(* Shared VFS types: errno codes, file kinds, stat, directory entries,
   and the operations record every filesystem implements (memfs natively,
   wrapfs by delegation, journalfs by journaling over memfs). *)

type errno =
  | EPERM         (* rejected by an admission policy (kverify SFI deny) *)
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EBADF
  | EINVAL
  | ENOTEMPTY
  | ENOSPC
  | EFAULT
  | ENAMETOOLONG
  | EROFS
  | EINTR         (* syscall interrupted before any work (kfault EINTR) *)
  | EIO           (* block device read failure (kfault blockdev.read_eio) *)
  | ENOMEM        (* kernel allocation failure (kfault kalloc sites) *)
  | EAGAIN        (* operation would block (empty recvq, empty backlog) *)
  | ENOTSOCK      (* socket operation on a non-socket descriptor *)
  | EADDRINUSE    (* bind to a port another listener owns *)
  | ENOBUFS       (* send queue completely full (distinct from EAGAIN) *)
  | ETIMEDOUT     (* connect SYN dropped by a full accept backlog *)
  | ECONNREFUSED  (* connect to a port with no listener *)

let errno_to_string = function
  | EPERM -> "EPERM"
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENOTEMPTY -> "ENOTEMPTY"
  | ENOSPC -> "ENOSPC"
  | EFAULT -> "EFAULT"
  | ENAMETOOLONG -> "ENAMETOOLONG"
  | EROFS -> "EROFS"
  | EINTR -> "EINTR"
  | EIO -> "EIO"
  | ENOMEM -> "ENOMEM"
  | EAGAIN -> "EAGAIN"
  | ENOTSOCK -> "ENOTSOCK"
  | EADDRINUSE -> "EADDRINUSE"
  | ENOBUFS -> "ENOBUFS"
  | ETIMEDOUT -> "ETIMEDOUT"
  | ECONNREFUSED -> "ECONNREFUSED"

let pp_errno ppf e = Fmt.string ppf (errno_to_string e)

(* Linux-compatible numeric errno codes, used by the Cosy kernel
   extension's C-style return convention (negative errno on failure). *)
let errno_code = function
  | EPERM -> 1
  | ENOENT -> 2
  | EEXIST -> 17
  | ENOTDIR -> 20
  | EISDIR -> 21
  | EBADF -> 9
  | EINVAL -> 22
  | ENOTEMPTY -> 39
  | ENOSPC -> 28
  | EFAULT -> 14
  | ENAMETOOLONG -> 36
  | EROFS -> 30
  | EINTR -> 4
  | EIO -> 5
  | ENOMEM -> 12
  | EAGAIN -> 11
  | ENOTSOCK -> 88
  | EADDRINUSE -> 98
  | ENOBUFS -> 105
  | ETIMEDOUT -> 110
  | ECONNREFUSED -> 111

let all_errnos =
  [
    EPERM; ENOENT; EEXIST; ENOTDIR; EISDIR; EBADF; EINVAL; ENOTEMPTY; ENOSPC;
    EFAULT; ENAMETOOLONG; EROFS; EINTR; EIO; ENOMEM; EAGAIN; ENOTSOCK;
    EADDRINUSE; ENOBUFS; ETIMEDOUT; ECONNREFUSED;
  ]

(* Every rejection path maps to its own documented errno — a failed
   lookup on a genuinely unknown code is the caller's bug, not a shared
   catch-all:
     EPERM         kverify admission denial (SFI policy [Deny])
     EINTR         kfault-injected interrupt that exhausted the kernel's
                   transparent restart budget (see Usyscall)
     EIO           injected block-device read failure (kfault)
     ENOMEM        injected kalloc exhaustion surfacing to user land
     EAGAIN        would-block only: empty recvq / empty accept backlog
     ENOBUFS       send queue completely full
     ETIMEDOUT     connect SYN dropped by a full accept backlog
     ECONNREFUSED  connect to a port nobody listens on *)
let errno_of_code n = List.find_opt (fun e -> errno_code e = n) all_errnos

type kind = Regular | Directory

let pp_kind ppf = function
  | Regular -> Fmt.string ppf "file"
  | Directory -> Fmt.string ppf "dir"

type stat = {
  st_ino : int;
  st_kind : kind;
  st_size : int;
  st_nlink : int;
  st_blocks : int;
  st_mtime : int;    (* simulated cycles at last modification *)
}

(* Size of a marshalled stat when it crosses the user/kernel boundary;
   matches sizeof(struct stat) on 32-bit Linux 2.6 closely enough for
   the data-volume arithmetic in E1/E2. *)
let stat_wire_size = 88

let pp_stat ppf s =
  Fmt.pf ppf "ino=%d %a size=%d nlink=%d blocks=%d" s.st_ino pp_kind s.st_kind
    s.st_size s.st_nlink s.st_blocks

type dirent = { d_ino : int; d_name : string; d_kind : kind }

(* Wire size of one readdir entry (struct dirent is 268 bytes on Linux;
   the kernel packs them, we use name length + fixed header). *)
let dirent_wire_size d = 12 + String.length d.d_name

let name_max = 255

(* Operations every filesystem provides.  Inode numbers are local to the
   filesystem instance. *)
type ops = {
  fs_name : string;
  root : int;
  lookup : dir:int -> string -> (int, errno) result;
  create : dir:int -> name:string -> kind -> (int, errno) result;
  unlink : dir:int -> name:string -> (unit, errno) result;
  readdir : dir:int -> (dirent list, errno) result;
  getattr : ino:int -> (stat, errno) result;
  read : ino:int -> off:int -> len:int -> (bytes, errno) result;
  read_into :
    ino:int -> off:int -> len:int -> into:bytes -> pos:int ->
    (int, errno) result;
      (* [read] without the result buffer: the [n] bytes [read] would
         return land in [into] at [pos] (the rest of [into] untouched),
         at the same simulated cost, and [Ok n] comes back.
         @raise Invalid_argument if [into] cannot hold them at [pos]. *)
  write : ino:int -> off:int -> data:bytes -> (int, errno) result;
  truncate : ino:int -> size:int -> (unit, errno) result;
  rename :
    src_dir:int -> src:string -> dst_dir:int -> dst:string ->
    (unit, errno) result;
  fsync : ino:int -> (unit, errno) result;
  destroy_private : unit -> unit;
      (* release per-mount private state (wrapfs buffers etc.) *)
}

let valid_name name =
  String.length name > 0
  && String.length name <= name_max
  && (not (String.contains name '/'))
  && name <> "." && name <> ".."
