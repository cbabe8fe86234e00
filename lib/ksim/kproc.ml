(* Process control block for the simulated kernel. *)

type state = Ready | Running | Blocked | Dead

let pp_state ppf s =
  Fmt.string ppf
    (match s with
    | Ready -> "ready"
    | Running -> "running"
    | Blocked -> "blocked"
    | Dead -> "dead")

type t = {
  pid : int;
  name : string;
  mutable cpu : int;                (* simulated CPU this process runs on *)
  mutable state : state;
  mutable utime : int;              (* cycles spent in user mode *)
  mutable stime : int;              (* cycles spent in kernel mode *)
  mutable syscalls : int;           (* syscall count *)
  mutable kernel_entry : int;      (* clock at last kernel entry, -1 = none *)
  mutable io_wait : int;            (* cycles spent waiting on disk I/O *)
  mutable io_wait_at_entry : int;   (* io_wait snapshot at kernel entry *)
  mutable kernel_budget_used : int; (* continuous kernel cycles (Cosy watchdog) *)
  mutable fd_table : int Int_table.t; (* fd -> vfs file handle *)
  mutable next_fd : int;
  mutable cwd : string;
}

let create ?(cpu = 0) ~pid ~name () =
  {
    pid;
    name;
    cpu;
    state = Ready;
    utime = 0;
    stime = 0;
    syscalls = 0;
    kernel_entry = -1;
    io_wait = 0;
    io_wait_at_entry = 0;
    kernel_budget_used = 0;
    fd_table = Int_table.create 16;
    next_fd = 3;  (* 0,1,2 reserved as in Unix *)
    cwd = "/";
  }

let alloc_fd t handle =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Int_table.replace t.fd_table fd handle;
  fd

(* The handle behind [fd], or -1 when none (handles are never
   negative): one table probe and no option box. *)
let find_fd t fd =
  match Int_table.find t.fd_table fd with h -> h | exception Not_found -> -1

let release_fd t fd =
  match Int_table.find_opt t.fd_table fd with
  | None -> None
  | Some h ->
      Int_table.remove t.fd_table fd;
      Some h

let open_fd_count t = Int_table.length t.fd_table

(* The open (fd, handle) pairs, ascending by fd whatever the table's
   bucket order. *)
let fds t =
  Int_table.fold (fun fd handle acc -> (fd, handle) :: acc) t.fd_table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pp ppf t =
  Fmt.pf ppf "pid=%d %s %a utime=%d stime=%d syscalls=%d" t.pid t.name
    pp_state t.state t.utime t.stime t.syscalls
