(** The VFS layer: a mount table, path resolution through the dentry
    cache (one [dcache_lock]-guarded lookup per component), and open-file
    handles.  The syscall layer calls only into this module. *)

type t

(** [create ?root_fs ?dcache_shards kernel]; the root filesystem
    defaults to a fresh memfs.  [dcache_shards] selects the dentry-cache
    locking mode: 1 (default) is the global [dcache_lock]; more shards
    enable per-shard locks with lockless reads (see {!Dcache}). *)
val create : ?root_fs:Vtypes.ops -> ?dcache_shards:int -> Ksim.Kernel.t -> t

val dcache : t -> Dcache.t

(** Mount a filesystem at a path prefix; the innermost (longest) prefix
    wins during resolution.  @raise Invalid_argument on relative
    prefixes. *)
val mount : t -> prefix:string -> fs:Vtypes.ops -> unit

(** Unmount; releases the filesystem's private state. *)
val umount : t -> prefix:string -> (unit, Vtypes.errno) result

(** Resolve a path to its filesystem and inode. *)
val resolve : t -> string -> (Vtypes.ops * int, Vtypes.errno) result

(** Resolve the parent directory: [(fs, dir inode, final component)]. *)
val resolve_parent :
  t -> string -> (Vtypes.ops * int * string, Vtypes.errno) result

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

(** Open (optionally creating/truncating); returns an open-file handle.
    Opening a directory for writing fails with [EISDIR]. *)
val open_file : t -> string -> open_flag list -> (int, Vtypes.errno) result

val close : t -> int -> (unit, Vtypes.errno) result

(** Sequential read/write at the handle's position. *)
val read : t -> int -> int -> (Bytes.t, Vtypes.errno) result

val write : t -> int -> Bytes.t -> (int, Vtypes.errno) result

(** [read] into [into] at [pos] instead of a fresh buffer (see
    {!Vtypes.ops}[.read_into]): same result count, same position
    advance, same simulated cost.
    @raise Invalid_argument if [into] cannot hold the bytes at [pos]. *)
val read_into :
  t -> int -> int -> into:Bytes.t -> pos:int -> (int, Vtypes.errno) result

(** Positioned read/write; the handle's position is untouched. *)
val pread : t -> int -> off:int -> len:int -> (Bytes.t, Vtypes.errno) result

(** [pread] into [into] at [pos], as [read_into] is to [read]. *)
val pread_into :
  t -> int -> off:int -> len:int -> into:Bytes.t -> pos:int ->
  (int, Vtypes.errno) result

val pwrite : t -> int -> off:int -> data:Bytes.t -> (int, Vtypes.errno) result

type whence = SEEK_SET | SEEK_CUR | SEEK_END

val lseek : t -> int -> off:int -> whence:whence -> (int, Vtypes.errno) result
val fstat : t -> int -> (Vtypes.stat, Vtypes.errno) result
val stat : t -> string -> (Vtypes.stat, Vtypes.errno) result
val readdir : t -> string -> (Vtypes.dirent list, Vtypes.errno) result
val mkdir : t -> string -> (int, Vtypes.errno) result
val unlink : t -> string -> (unit, Vtypes.errno) result
val rename : t -> src:string -> dst:string -> (unit, Vtypes.errno) result
val fsync : t -> int -> (unit, Vtypes.errno) result

val open_file_count : t -> int

(** The longest bucket chain in the open-file table (see
    {!Ksim.Int_table.max_chain}). *)
val max_chain : t -> int
val path_components_resolved : t -> int
