(* Typed syscall descriptors.  [req] and [reply] are the single
   vocabulary every layer speaks: the user wrappers (Usyscall) build a
   [req] and hand it to the generic dispatcher, the trace layer records
   the [Sysno.t], the Cosy decoder lowers its compound ops to [req]s,
   and the kring submission queue carries marshalled [req]s through
   shared memory.

   The wire codec defines how a [req] is laid out when it crosses the
   boundary through a shared ring: a one-byte sysno tag followed by the
   call's operands (ints as 8-byte little-endian fixints, strings and
   payloads length-prefixed).  [req_copy_bytes]/[reply_copy_bytes] give
   the copy volume the classic synchronous path charges — kept
   byte-compatible with the historical per-wrapper accounting so the
   E1/E2 data-volume arithmetic is unchanged. *)

open Kvfs

type req =
  | Open of { path : string; flags : Vfs.open_flag list }
  | Close of { fd : int }
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : Bytes.t }
  | Pread of { fd : int; off : int; len : int }
  | Pwrite of { fd : int; off : int; data : Bytes.t }
  | Lseek of { fd : int; off : int; whence : Vfs.whence }
  | Stat of { path : string }
  | Fstat of { fd : int }
  | Readdir of { path : string }
  | Mkdir of { path : string }
  | Unlink of { path : string }
  | Rename of { src : string; dst : string }
  | Fsync of { fd : int }
  | Getpid
  | Readdirplus of { path : string }
  | Open_read_close of { path : string; maxlen : int }
  | Open_write_close of { path : string; data : Bytes.t; flags : Vfs.open_flag list }
  | Sendfile of { fd : int; off : int; len : int }
  | Open_fstat of { path : string; flags : Vfs.open_flag list }
  (* knet sockets; [sock] and [ep] are fds from the caller's table *)
  | Socket
  | Bind of { sock : int; port : int }
  | Listen of { sock : int; backlog : int }
  | Accept of { sock : int }
  | Recv of { sock : int; len : int }
  | Send of { sock : int; data : Bytes.t; off : int; len : int }
      (* sends [data]'s [len] bytes from [off]; on the wire and in the
         copy charge it is exactly those bytes *)
  | Epoll_create
  | Epoll_ctl of { ep : int; sock : int; add : bool; mask : int; cookie : int }
  | Epoll_wait of { ep : int; max : int }
  | Accept_recv of { sock : int; len : int }
  | Recv_send of { sock : int; len : int; data : Bytes.t }
  | Sendfile_sock of { sock : int; fd : int; off : int; len : int }

type ok_reply =
  | R_unit
  | R_int of int
  | R_bytes of Bytes.t
  | R_stat of Vtypes.stat
  | R_dirents of Vtypes.dirent list
  | R_dirents_stats of (Vtypes.dirent * Vtypes.stat) list
  | R_fd_stat of { fd : int; stat : Vtypes.stat }
  | R_ready of (int * int) list  (** epoll_wait: (cookie, readiness mask) *)
  | R_fd_bytes of { fd : int; data : Bytes.t }  (** accept_recv *)
  | R_int_bytes of { n : int; data : Bytes.t }  (** recv_send: sent, received *)

type reply = (ok_reply, Vtypes.errno) result

let sysno_of_req : req -> Sysno.t = function
  | Open _ -> Sysno.Open
  | Close _ -> Sysno.Close
  | Read _ -> Sysno.Read
  | Write _ -> Sysno.Write
  | Pread _ -> Sysno.Pread
  | Pwrite _ -> Sysno.Pwrite
  | Lseek _ -> Sysno.Lseek
  | Stat _ -> Sysno.Stat
  | Fstat _ -> Sysno.Fstat
  | Readdir _ -> Sysno.Readdir
  | Mkdir _ -> Sysno.Mkdir
  | Unlink _ -> Sysno.Unlink
  | Rename _ -> Sysno.Rename
  | Fsync _ -> Sysno.Fsync
  | Getpid -> Sysno.Getpid
  | Readdirplus _ -> Sysno.Readdirplus
  | Open_read_close _ -> Sysno.Open_read_close
  | Open_write_close _ -> Sysno.Open_write_close
  | Sendfile _ -> Sysno.Sendfile
  | Open_fstat _ -> Sysno.Open_fstat
  | Socket -> Sysno.Socket
  | Bind _ -> Sysno.Bind
  | Listen _ -> Sysno.Listen
  | Accept _ -> Sysno.Accept
  | Recv _ -> Sysno.Recv
  | Send _ -> Sysno.Send
  | Epoll_create -> Sysno.Epoll_create
  | Epoll_ctl _ -> Sysno.Epoll_ctl
  | Epoll_wait _ -> Sysno.Epoll_wait
  | Accept_recv _ -> Sysno.Accept_recv
  | Recv_send _ -> Sysno.Recv_send
  | Sendfile_sock _ -> Sysno.Sendfile_sock

(* Human-readable principal argument, matching the strings the old
   per-call wrappers put in trace records. *)
let arg_of_req = function
  | Open { path; _ } | Stat { path } | Readdir { path } | Mkdir { path }
  | Unlink { path } | Readdirplus { path }
  | Open_read_close { path; _ }
  | Open_write_close { path; _ }
  | Open_fstat { path; _ } ->
      path
  | Close { fd } | Read { fd; _ } | Write { fd; _ } | Pread { fd; _ }
  | Pwrite { fd; _ } | Lseek { fd; _ } | Fstat { fd } | Fsync { fd }
  | Sendfile { fd; _ } ->
      string_of_int fd
  | Rename { src; dst } -> src ^ "->" ^ dst
  | Getpid | Socket | Epoll_create -> ""
  | Bind { sock; _ } | Listen { sock; _ } | Accept { sock }
  | Recv { sock; _ } | Send { sock; _ } | Accept_recv { sock; _ }
  | Recv_send { sock; _ } | Sendfile_sock { sock; _ } ->
      string_of_int sock
  | Epoll_ctl { ep; _ } | Epoll_wait { ep; _ } -> string_of_int ep

(* --- boundary copy-volume accounting ----------------------------------- *)

let path_bytes path = String.length path + 1 (* NUL-terminated *)

let dirents_bytes entries =
  List.fold_left (fun n d -> n + Vtypes.dirent_wire_size d) 0 entries

let dirents_stats_bytes entries =
  List.fold_left
    (fun n (d, _st) -> n + Vtypes.dirent_wire_size d + Vtypes.stat_wire_size)
    0 entries

(* Bytes copied user -> kernel for the synchronous path of one call. *)
let req_copy_bytes = function
  | Open { path; _ } | Stat { path } | Readdir { path } | Mkdir { path }
  | Unlink { path } | Readdirplus { path }
  | Open_read_close { path; _ }
  | Open_fstat { path; _ } ->
      path_bytes path
  | Write { data; _ } | Pwrite { data; _ } -> Bytes.length data
  | Open_write_close { path; data; _ } -> path_bytes path + Bytes.length data
  | Rename { src; dst } -> path_bytes src + path_bytes dst
  | Send { len; _ } -> len
  | Recv_send { data; _ } -> Bytes.length data
  | Close _ | Read _ | Pread _ | Lseek _ | Fstat _ | Fsync _ | Getpid
  | Sendfile _ | Socket | Bind _ | Listen _ | Accept _ | Recv _
  | Epoll_create | Epoll_ctl _ | Epoll_wait _ | Accept_recv _
  | Sendfile_sock _ ->
      0

(* Bytes copied kernel -> user when the reply lands.  Shape-driven: a
   successful read pays for its payload, a stat for the marshalled
   struct, sendfile for nothing (the point — data never crosses). *)
let reply_copy_bytes = function
  | Error _ -> 0
  | Ok r -> (
      match r with
      | R_unit | R_int _ -> 0
      | R_bytes b -> Bytes.length b
      | R_stat _ -> Vtypes.stat_wire_size
      | R_dirents entries -> dirents_bytes entries
      | R_dirents_stats entries -> dirents_stats_bytes entries
      | R_fd_stat _ -> Vtypes.stat_wire_size
      (* one epoll_event (cookie + mask) is two 8-byte wire ints *)
      | R_ready ready -> 16 * List.length ready
      | R_fd_bytes { data; _ } -> Bytes.length data
      | R_int_bytes { data; _ } -> Bytes.length data)

(* --- the Cosy/kring C-style return-value convention -------------------- *)

(* Collapse a reply to the single int a C caller would see: >= 0 on
   success (fd / byte count / size / entry count), negative errno on
   failure.  The one place the negative-errno convention lives. *)
let reply_to_retval : reply -> int = function
  | Error e -> -Vtypes.errno_code e
  | Ok R_unit -> 0
  | Ok (R_int n) -> n
  | Ok (R_bytes b) -> Bytes.length b
  | Ok (R_stat st) -> st.Vtypes.st_size
  | Ok (R_dirents entries) -> List.length entries
  | Ok (R_dirents_stats entries) -> List.length entries
  | Ok (R_fd_stat { fd; _ }) -> fd
  | Ok (R_ready ready) -> List.length ready
  | Ok (R_fd_bytes { fd; _ }) -> fd
  | Ok (R_int_bytes { n; _ }) -> n

(* Lift a C-style return value back into a (payload-free) reply.  The
   inverse of [reply_to_retval] up to payload erasure: negative values
   decode through the errno table, non-negative become [R_int]. *)
let retval_to_reply rv : reply =
  if rv >= 0 then Ok (R_int rv)
  else
    match Vtypes.errno_of_code (-rv) with
    | Some e -> Error e
    | None -> Error Vtypes.EINVAL

(* --- open-flag / whence bitmask encoding -------------------------------- *)

(* Access mode in the low two bits (O_RDONLY=0, O_WRONLY=1, O_RDWR=2),
   modifier flags above — same shape as the Cosy compound encoding. *)
let flags_to_int flags =
  let acc =
    if List.mem Vfs.O_RDWR flags then 2
    else if List.mem Vfs.O_WRONLY flags then 1
    else 0
  in
  let acc = if List.mem Vfs.O_CREAT flags then acc lor 4 else acc in
  let acc = if List.mem Vfs.O_TRUNC flags then acc lor 8 else acc in
  if List.mem Vfs.O_APPEND flags then acc lor 16 else acc

(* Canonical decode: access mode first, then modifiers in fixed order.
   [flags_of_int (flags_to_int f)] is the canonical form of [f]. *)
let flags_of_int n =
  let mode =
    match n land 3 with 2 -> Vfs.O_RDWR | 1 -> Vfs.O_WRONLY | _ -> Vfs.O_RDONLY
  in
  let fl = [ mode ] in
  let fl = if n land 4 <> 0 then fl @ [ Vfs.O_CREAT ] else fl in
  let fl = if n land 8 <> 0 then fl @ [ Vfs.O_TRUNC ] else fl in
  if n land 16 <> 0 then fl @ [ Vfs.O_APPEND ] else fl

let whence_to_int = function
  | Vfs.SEEK_SET -> 0
  | Vfs.SEEK_CUR -> 1
  | Vfs.SEEK_END -> 2

let whence_of_int = function
  | 1 -> Vfs.SEEK_CUR
  | 2 -> Vfs.SEEK_END
  | _ -> Vfs.SEEK_SET

(* --- wire codec --------------------------------------------------------- *)

(* Layout: [sysno:1][operands...]; ints are 8-byte LE, strings and byte
   payloads are an 8-byte LE length followed by the raw bytes. *)

let int_wire = 8
let str_wire s = int_wire + String.length s
let bytes_wire b = int_wire + Bytes.length b

let req_wire_size = function
  | Open { path; _ } -> 1 + str_wire path + int_wire
  | Close _ -> 1 + int_wire
  | Read _ -> 1 + (2 * int_wire)
  | Write { data; _ } -> 1 + int_wire + bytes_wire data
  | Pread _ -> 1 + (3 * int_wire)
  | Pwrite { data; _ } -> 1 + (2 * int_wire) + bytes_wire data
  | Lseek _ -> 1 + (3 * int_wire)
  | Stat { path } | Readdir { path } | Mkdir { path } | Unlink { path }
  | Readdirplus { path } ->
      1 + str_wire path
  | Fstat _ | Fsync _ -> 1 + int_wire
  | Rename { src; dst } -> 1 + str_wire src + str_wire dst
  | Getpid -> 1
  | Open_read_close { path; _ } -> 1 + str_wire path + int_wire
  | Open_write_close { path; data; _ } ->
      1 + str_wire path + bytes_wire data + int_wire
  | Sendfile _ -> 1 + (3 * int_wire)
  | Open_fstat { path; _ } -> 1 + str_wire path + int_wire
  | Socket | Epoll_create -> 1
  | Bind _ | Listen _ | Recv _ | Accept_recv _ | Epoll_wait _ ->
      1 + (2 * int_wire)
  | Accept _ -> 1 + int_wire
  | Send { len; _ } -> 1 + (2 * int_wire) + len
  | Epoll_ctl _ -> 1 + (5 * int_wire)
  | Recv_send { data; _ } -> 1 + (2 * int_wire) + bytes_wire data
  | Sendfile_sock _ -> 1 + (4 * int_wire)

(* Little serialization cursor over a Bytes.t. *)
let put_int buf off n =
  Bytes.set_int64_le buf off (Int64.of_int n);
  off + int_wire

let put_str buf off s =
  let off = put_int buf off (String.length s) in
  Bytes.blit_string s 0 buf off (String.length s);
  off + String.length s

(* [len] bytes of [b] from [pos], encoded as if they were all of [b] *)
let put_bytes_sub buf off b ~pos ~len =
  let off = put_int buf off len in
  Bytes.blit b pos buf off len;
  off + len

let put_bytes buf off b = put_bytes_sub buf off b ~pos:0 ~len:(Bytes.length b)

let get_int buf off = (Int64.to_int (Bytes.get_int64_le buf off), off + int_wire)

let get_str buf off =
  let len, off = get_int buf off in
  if len < 0 || off + len > Bytes.length buf then
    invalid_arg "Syscall.decode_req: truncated string";
  (Bytes.sub_string buf off len, off + len)

let get_bytes buf off =
  let len, off = get_int buf off in
  if len < 0 || off + len > Bytes.length buf then
    invalid_arg "Syscall.decode_req: truncated payload";
  (Bytes.sub buf off len, off + len)

(* Encode [req] into [buf] at [pos], where a submission queue entry
   lies; returns the offset just past it ([pos + req_wire_size req]).
   Raises [Invalid_argument] when the encoding does not fit. *)
let encode_req_into buf ~pos req =
  Bytes.set buf pos (Char.chr (Sysno.to_int (sysno_of_req req)));
  let off = pos + 1 in
  match req with
  | Open { path; flags } ->
      let off = put_str buf off path in
      put_int buf off (flags_to_int flags)
  | Close { fd } -> put_int buf off fd
  | Read { fd; len } -> put_int buf (put_int buf off fd) len
  | Write { fd; data } -> put_bytes buf (put_int buf off fd) data
  | Pread { fd; off = o; len } ->
      put_int buf (put_int buf (put_int buf off fd) o) len
  | Pwrite { fd; off = o; data } ->
      put_bytes buf (put_int buf (put_int buf off fd) o) data
  | Lseek { fd; off = o; whence } ->
      put_int buf (put_int buf (put_int buf off fd) o) (whence_to_int whence)
  | Stat { path } | Readdir { path } | Mkdir { path } | Unlink { path }
  | Readdirplus { path } ->
      put_str buf off path
  | Fstat { fd } | Fsync { fd } -> put_int buf off fd
  | Rename { src; dst } -> put_str buf (put_str buf off src) dst
  | Getpid -> off
  | Open_read_close { path; maxlen } -> put_int buf (put_str buf off path) maxlen
  | Open_write_close { path; data; flags } ->
      put_int buf (put_bytes buf (put_str buf off path) data) (flags_to_int flags)
  | Sendfile { fd; off = o; len } ->
      put_int buf (put_int buf (put_int buf off fd) o) len
  | Open_fstat { path; flags } ->
      put_int buf (put_str buf off path) (flags_to_int flags)
  | Socket | Epoll_create -> off
  | Bind { sock; port } -> put_int buf (put_int buf off sock) port
  | Listen { sock; backlog } -> put_int buf (put_int buf off sock) backlog
  | Accept { sock } -> put_int buf off sock
  | Recv { sock; len } -> put_int buf (put_int buf off sock) len
  | Send { sock; data; off = pos; len } ->
      put_bytes_sub buf (put_int buf off sock) data ~pos ~len
  | Epoll_ctl { ep; sock; add; mask; cookie } ->
      let off = put_int buf (put_int buf off ep) sock in
      let off = put_int buf off (if add then 1 else 0) in
      put_int buf (put_int buf off mask) cookie
  | Epoll_wait { ep; max } -> put_int buf (put_int buf off ep) max
  | Accept_recv { sock; len } -> put_int buf (put_int buf off sock) len
  | Recv_send { sock; len; data } ->
      put_bytes buf (put_int buf (put_int buf off sock) len) data
  | Sendfile_sock { sock; fd; off = o; len } ->
      put_int buf (put_int buf (put_int buf (put_int buf off sock) fd) o) len

let encode_req req =
  let buf = Bytes.create (req_wire_size req) in
  ignore (encode_req_into buf ~pos:0 req);
  buf

(* Decode one request starting at [off]; returns it plus the offset just
   past its encoding, so a submission queue can walk packed requests. *)
let decode_req buf ~off =
  if off >= Bytes.length buf then invalid_arg "Syscall.decode_req: empty";
  let sysno =
    match Sysno.of_int (Char.code (Bytes.get buf off)) with
    | Some s -> s
    | None -> invalid_arg "Syscall.decode_req: bad sysno"
  in
  let off = off + 1 in
  match sysno with
  | Sysno.Open ->
      let path, off = get_str buf off in
      let fl, off = get_int buf off in
      (Open { path; flags = flags_of_int fl }, off)
  | Sysno.Close ->
      let fd, off = get_int buf off in
      (Close { fd }, off)
  | Sysno.Read ->
      let fd, off = get_int buf off in
      let len, off = get_int buf off in
      (Read { fd; len }, off)
  | Sysno.Write ->
      let fd, off = get_int buf off in
      let data, off = get_bytes buf off in
      (Write { fd; data }, off)
  | Sysno.Pread ->
      let fd, off = get_int buf off in
      let o, off = get_int buf off in
      let len, off = get_int buf off in
      (Pread { fd; off = o; len }, off)
  | Sysno.Pwrite ->
      let fd, off = get_int buf off in
      let o, off = get_int buf off in
      let data, off = get_bytes buf off in
      (Pwrite { fd; off = o; data }, off)
  | Sysno.Lseek ->
      let fd, off = get_int buf off in
      let o, off = get_int buf off in
      let w, off = get_int buf off in
      (Lseek { fd; off = o; whence = whence_of_int w }, off)
  | Sysno.Stat ->
      let path, off = get_str buf off in
      (Stat { path }, off)
  | Sysno.Fstat ->
      let fd, off = get_int buf off in
      (Fstat { fd }, off)
  | Sysno.Readdir ->
      let path, off = get_str buf off in
      (Readdir { path }, off)
  | Sysno.Mkdir ->
      let path, off = get_str buf off in
      (Mkdir { path }, off)
  | Sysno.Unlink ->
      let path, off = get_str buf off in
      (Unlink { path }, off)
  | Sysno.Rename ->
      let src, off = get_str buf off in
      let dst, off = get_str buf off in
      (Rename { src; dst }, off)
  | Sysno.Fsync ->
      let fd, off = get_int buf off in
      (Fsync { fd }, off)
  | Sysno.Getpid -> (Getpid, off)
  | Sysno.Readdirplus ->
      let path, off = get_str buf off in
      (Readdirplus { path }, off)
  | Sysno.Open_read_close ->
      let path, off = get_str buf off in
      let maxlen, off = get_int buf off in
      (Open_read_close { path; maxlen }, off)
  | Sysno.Open_write_close ->
      let path, off = get_str buf off in
      let data, off = get_bytes buf off in
      let fl, off = get_int buf off in
      (Open_write_close { path; data; flags = flags_of_int fl }, off)
  | Sysno.Sendfile ->
      let fd, off = get_int buf off in
      let o, off = get_int buf off in
      let len, off = get_int buf off in
      (Sendfile { fd; off = o; len }, off)
  | Sysno.Open_fstat ->
      let path, off = get_str buf off in
      let fl, off = get_int buf off in
      (Open_fstat { path; flags = flags_of_int fl }, off)
  | Sysno.Socket -> (Socket, off)
  | Sysno.Epoll_create -> (Epoll_create, off)
  | Sysno.Bind ->
      let sock, off = get_int buf off in
      let port, off = get_int buf off in
      (Bind { sock; port }, off)
  | Sysno.Listen ->
      let sock, off = get_int buf off in
      let backlog, off = get_int buf off in
      (Listen { sock; backlog }, off)
  | Sysno.Accept ->
      let sock, off = get_int buf off in
      (Accept { sock }, off)
  | Sysno.Recv ->
      let sock, off = get_int buf off in
      let len, off = get_int buf off in
      (Recv { sock; len }, off)
  | Sysno.Send ->
      let sock, off = get_int buf off in
      let data, off = get_bytes buf off in
      (Send { sock; data; off = 0; len = Bytes.length data }, off)
  | Sysno.Epoll_ctl ->
      let ep, off = get_int buf off in
      let sock, off = get_int buf off in
      let add, off = get_int buf off in
      let mask, off = get_int buf off in
      let cookie, off = get_int buf off in
      (Epoll_ctl { ep; sock; add = add <> 0; mask; cookie }, off)
  | Sysno.Epoll_wait ->
      let ep, off = get_int buf off in
      let max, off = get_int buf off in
      (Epoll_wait { ep; max }, off)
  | Sysno.Accept_recv ->
      let sock, off = get_int buf off in
      let len, off = get_int buf off in
      (Accept_recv { sock; len }, off)
  | Sysno.Recv_send ->
      let sock, off = get_int buf off in
      let len, off = get_int buf off in
      let data, off = get_bytes buf off in
      (Recv_send { sock; len; data }, off)
  | Sysno.Sendfile_sock ->
      let sock, off = get_int buf off in
      let fd, off = get_int buf off in
      let o, off = get_int buf off in
      let len, off = get_int buf off in
      (Sendfile_sock { sock; fd; off = o; len }, off)

let pp_req ppf req =
  let a = arg_of_req req in
  if a = "" then Sysno.pp ppf (sysno_of_req req)
  else Fmt.pf ppf "%a(%s)" Sysno.pp (sysno_of_req req) a
