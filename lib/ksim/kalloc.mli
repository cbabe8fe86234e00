(** Kernel allocators.

    [kmalloc] models the slab allocator: fast, byte-granular carving from
    slab pages, no per-allocation page-table work — and therefore no way
    to guard an individual allocation.

    [vmalloc] models Linux's vmalloc: every allocation gets its own
    page-aligned virtually-mapped area, slower but with private PTEs —
    the property Kefence builds on (§3.2).  As in the paper, a hash table
    maps addresses to areas so vfree does not scan a list. *)

(** One vmalloc'd area. *)
type area = {
  addr : int;                (** user-visible start address *)
  size : int;                (** requested size in bytes *)
  npages : int;              (** data pages (excluding any guardian) *)
  guardian_vpn : int option; (** Kefence guardian page, if requested *)
  align_end : bool;          (** data flush against the end of last page *)
}

type t

(** [stats] receives allocation counters and the live-page gauge;
    defaults to a disabled registry.  [fault] gets the [kalloc.vmalloc]
    and [kalloc.kmalloc] sites, registered here in that order (an armed
    plan makes the corresponding allocator raise {!Out_of_memory} as if
    the region were exhausted).  [pid] names the owner of each fresh
    allocation (the kernel passes the scheduler's current pid); crash
    containment uses it to find what a dying process holds. *)
val create :
  ?stats:Kstats.t ->
  space:Address_space.t ->
  clock:Sim_clock.t ->
  cost:Cost_model.t ->
  fault:Kfault.t ->
  pid:(unit -> int) ->
  unit ->
  t

exception Out_of_memory of string

(** Slab allocation; 8-byte aligned.  @raise Invalid_argument on
    non-positive size, {!Out_of_memory} when the region is exhausted
    (or a kfault plan fires). *)
val kmalloc : t -> int -> int

(** @raise Invalid_argument if the address is not a live kmalloc. *)
val kfree : t -> int -> unit

(** Page-granular allocation.  With [guard] a no-access guardian PTE is
    mapped adjacent to the data; with [align_end] (default) the buffer
    ends exactly at the guardian so the first out-of-bounds byte traps,
    otherwise it starts right after it (underflow detection). *)
val vmalloc : ?guard:bool -> ?align_end:bool -> t -> int -> area

(** @raise Invalid_argument if the address is not a live vmalloc. *)
val vfree : t -> int -> unit

type stats = {
  live_areas : int;
  pages_live : int;
  pages_high_water : int;    (** the paper's "outstanding pages" metric *)
  allocs : int;
  mean_alloc_bytes : float;  (** the paper's "average allocation size" *)
}

val stats : t -> stats
val kmalloc_live_count : t -> int

(** What {!reap_pid} freed. *)
type reap = {
  reaped_kmallocs : int;
  reaped_vmallocs : int;
  reaped_vm_addrs : int list;  (** freed vmalloc addresses, ascending *)
}

(** Crash containment: free every live kmalloc and vmalloc owned by
    [pid] (as {!create}'s [pid] source named it), through the normal
    kfree/vfree paths — normal charges, guardian-PTE unmaps and TLB
    shootdowns included.  Ascending address order, for determinism. *)
val reap_pid : t -> int -> reap
