(** Wrapfs: a stackable filesystem that redirects every operation to a
    lower filesystem, as in FiST.

    Like the paper's Wrapfs, each object it touches gets dynamically
    allocated private data, names pass through temporary buffers, and
    data pages stage through a (pooled) page buffer — all via a pluggable
    allocator.  With {!kmalloc_allocator} this is "vanilla Wrapfs"; with
    Kefence's guarded allocator it is the instrumented version of
    experiment E5.  Buffers live in real simulated memory, so an injected
    off-by-one actually lands on a guardian page. *)

(** Where wrapfs gets its buffers. *)
type allocator = {
  alloc_name : string;
  space : Ksim.Address_space.t;  (** where the buffers are addressable *)
  alloc : int -> int;            (** size in bytes -> virtual address *)
  free : int -> unit;
}

(** The slab-backed default. *)
val kmalloc_allocator : Ksim.Kernel.t -> allocator

type t

(** [create ~allocator lower]; each lower inode gets an 80-byte private
    area (the paper's measured mean object size) on first sight. *)
val create : allocator:allocator -> Vtypes.ops -> t

(** Fault injection for tests and demos: overrun every temporary name
    buffer by [n] bytes. *)
val inject_overflow : t -> int -> unit

(** The stacked operations vector (pass to {!Vfs.create} or {!Vfs.mount}). *)
val ops : t -> Vtypes.ops

type stats = { live_private : int; name_copies : int; page_copies : int }

val stats : t -> stats
