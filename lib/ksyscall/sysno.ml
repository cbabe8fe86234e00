(* First-class syscall numbers.  One constructor per system call the
   simulated kernel offers, including the consolidated calls of §2.2.
   [to_int] is the wire number: a Cosy compound names a syscall by it,
   and [Cosy.Cosy_op.syscalls] lists which of them a compound may call.
   Renumbering a constructor changes the compound encoding. *)

type t =
  | Open
  | Close
  | Read
  | Write
  | Pread
  | Pwrite
  | Lseek
  | Stat
  | Fstat
  | Readdir
  | Mkdir
  | Unlink
  | Rename
  | Fsync
  | Getpid
  (* consolidated calls (§2.2) *)
  | Readdirplus
  | Open_read_close
  | Open_write_close
  | Sendfile
  | Open_fstat
  (* knet sockets *)
  | Socket
  | Bind
  | Listen
  | Accept
  | Recv
  | Send
  | Epoll_create
  | Epoll_ctl
  | Epoll_wait
  (* consolidated / zero-copy network calls (§2.2, §2.3) *)
  | Accept_recv
  | Recv_send
  | Sendfile_sock

let all =
  [
    Open; Close; Read; Write; Pread; Pwrite; Lseek; Stat; Fstat; Readdir;
    Mkdir; Unlink; Rename; Fsync; Getpid; Readdirplus; Open_read_close;
    Open_write_close; Sendfile; Open_fstat; Socket; Bind; Listen; Accept;
    Recv; Send; Epoll_create; Epoll_ctl; Epoll_wait; Accept_recv; Recv_send;
    Sendfile_sock;
  ]

let to_int = function
  | Open -> 0
  | Close -> 1
  | Read -> 2
  | Write -> 3
  | Pread -> 4
  | Pwrite -> 5
  | Lseek -> 6
  | Stat -> 7
  | Fstat -> 8
  | Readdir -> 9
  | Mkdir -> 10
  | Unlink -> 11
  | Rename -> 12
  | Fsync -> 13
  | Getpid -> 14
  | Readdirplus -> 15
  | Open_read_close -> 16
  | Open_write_close -> 17
  | Sendfile -> 18
  | Open_fstat -> 19
  | Socket -> 20
  | Bind -> 21
  | Listen -> 22
  | Accept -> 23
  | Recv -> 24
  | Send -> 25
  | Epoll_create -> 26
  | Epoll_ctl -> 27
  | Epoll_wait -> 28
  | Accept_recv -> 29
  | Recv_send -> 30
  | Sendfile_sock -> 31

let to_string = function
  | Open -> "open"
  | Close -> "close"
  | Read -> "read"
  | Write -> "write"
  | Pread -> "pread"
  | Pwrite -> "pwrite"
  | Lseek -> "lseek"
  | Stat -> "stat"
  | Fstat -> "fstat"
  | Readdir -> "readdir"
  | Mkdir -> "mkdir"
  | Unlink -> "unlink"
  | Rename -> "rename"
  | Fsync -> "fsync"
  | Getpid -> "getpid"
  | Readdirplus -> "readdirplus"
  | Open_read_close -> "open_read_close"
  | Open_write_close -> "open_write_close"
  | Sendfile -> "sendfile"
  | Open_fstat -> "open_fstat"
  | Socket -> "socket"
  | Bind -> "bind"
  | Listen -> "listen"
  | Accept -> "accept"
  | Recv -> "recv"
  | Send -> "send"
  | Epoll_create -> "epoll_create"
  | Epoll_ctl -> "epoll_ctl"
  | Epoll_wait -> "epoll_wait"
  | Accept_recv -> "accept_recv"
  | Recv_send -> "recv_send"
  | Sendfile_sock -> "sendfile_sock"

(* [of_int] decodes every kring entry, so it indexes rather than scans *)
let by_int =
  let a = Array.make (List.length all) None in
  List.iter (fun t -> a.(to_int t) <- Some t) all;
  a

let of_int n = if n >= 0 && n < Array.length by_int then by_int.(n) else None
let of_string s = List.find_opt (fun t -> to_string t = s) all

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare (to_int a) (to_int b)
let pp ppf t = Fmt.string ppf (to_string t)

(* True for the §2.2 consolidated calls that replace a syscall sequence. *)
let is_consolidated = function
  | Readdirplus | Open_read_close | Open_write_close | Sendfile | Open_fstat
  | Accept_recv | Recv_send | Sendfile_sock ->
      true
  | _ -> false
