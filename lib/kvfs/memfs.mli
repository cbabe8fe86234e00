(** The base in-memory filesystem (the Ext2/Ext3 stand-in).

    File data lives in block-sized pages: every page but the last is
    one full block, the last grows geometrically up to one block, and
    every byte at or past the file size is zero.  Writes blit into the
    pages in place; a read gathers into the one buffer it returns.
    Pages are never pooled: a free-page pool was measured to cut
    allocation but to grow PostMark's peak heap by over half.  Every
    data and metadata access charges the block device (inodes pack 32
    to a metadata block, as in Ext2).  Directories are hash tables with
    insertion-order readdir, so 100,000-entry directories behave. *)

type t

val root_ino : int

(** [image] seeds the block device's persistent store (see
    {!Block_dev.image}); relevant when journalfs mounts with replay. *)
val create : ?image:Block_dev.image -> Ksim.Kernel.t -> t
val dev : t -> Block_dev.t

(** The operations vector (pass to {!Vfs.create} or stack wrapfs over). *)
val ops : t -> Vtypes.ops

(** Direct (non-VFS) access, used by journalfs and tests. *)

val lookup : t -> dir:int -> string -> (int, Vtypes.errno) result
val create_node : t -> dir:int -> name:string -> Vtypes.kind -> (int, Vtypes.errno) result
val unlink : t -> dir:int -> name:string -> (unit, Vtypes.errno) result
val readdir : t -> dir:int -> (Vtypes.dirent list, Vtypes.errno) result
val getattr : t -> ino:int -> (Vtypes.stat, Vtypes.errno) result
val read : t -> ino:int -> off:int -> len:int -> (Bytes.t, Vtypes.errno) result

(** The read primitive [read] is built on: the bytes [read] would
    return ([min len (size - off)], none past the end) are gathered
    into [into] at [pos] instead of a fresh buffer, the rest of [into]
    is untouched, and [Ok n] is their count.  Validation and block
    device charges are [read]'s, so the simulated cost is identical.
    @raise Invalid_argument if [into] cannot hold the [n] bytes at
    [pos]. *)
val read_into :
  t -> ino:int -> off:int -> len:int -> into:Bytes.t -> pos:int ->
  (int, Vtypes.errno) result

val write : t -> ino:int -> off:int -> data:Bytes.t -> (int, Vtypes.errno) result
val truncate : t -> ino:int -> size:int -> (unit, Vtypes.errno) result

val rename :
  t -> src_dir:int -> src:string -> dst_dir:int -> dst:string ->
  (unit, Vtypes.errno) result

val fsync : t -> ino:int -> (unit, Vtypes.errno) result
val inode_count : t -> int

(** The longest bucket chain in memfs's inode table and block bitmap
    (see {!Ksim.Int_table.max_chain}). *)
val max_chain : t -> int

(** Full-filesystem invariant check, e2fsck-style: every inode reachable
    from the root, no dangling dentries, directory and file link counts
    correct, no disk block mapped twice, block bitmap in exact agreement
    with the live inodes' block maps and the metadata blocks (so no
    blocks held for dead inodes), and every file's
    pages in shape (as many as its size needs, all full blocks but the
    last, zeros past the size).  Returns
    human-readable complaints; [[]] means clean.  Charges a metadata
    read per directory, like a real fsck pass over the inode table. *)
val fsck : t -> string list
