(** Simulated block device with a buffer cache.

    Filesystems charge disk costs through here; cache hits are free, so
    repeated access to hot metadata costs nothing — which is what makes
    PostMark metadata-rate-bound rather than seek-bound in E6/E7.  Reads
    miss with a seek (full cost for far seeks, discounted for
    sequential); writes are write-back with an amortized flusher charge.
    All disk time is charged as I/O wait: it counts toward elapsed time
    but not system time.

    Eviction is second-chance (clock) by default: a reference bit set on
    every hit spares hot blocks one trip of the hand, so a sequential
    scan no longer flushes the working set the way plain FIFO does.
    [Fifo] remains available for comparison (experiment E7 reports the
    hit-rate delta). *)

type t

type policy = Fifo | Second_chance

(** An uncorrectable read error on the given block, raised when the
    kfault site [blockdev.read_eio] fires: the simulated driver's own
    retries are exhausted.  [Fs_guard] translates it to [EIO] at the
    VFS boundary.  The sibling site [blockdev.read_short] is
    self-recovering — the transfer is re-issued at the cost of an extra
    partial read (counted in [retry.blockdev_rereads]) and no error
    escapes. *)
exception Io_error of int

(** Power failed at a durable-write boundary (the kfault site
    [blockdev.crash_point] fired): the write in flight and all volatile
    state are lost.  Nothing below the run harness catches this;
    recovery happens on the next boot from the {!image} alone. *)
exception Power_loss

(** The persistent face of the device: block number -> payload, the only
    state that survives {!Power_loss}.  Obtain one with {!image}, hand it
    to [create ?image] to boot from it. *)
type image

(** [cache_blocks] defaults to ~150k blocks (≈600 MB, the page cache of
    the paper's 884 MB testbed); [policy] defaults to [Second_chance].
    [image] seeds the persistent payload store (reboot-from-disk). *)
val create :
  ?cache_blocks:int -> ?policy:policy -> ?image:image -> Ksim.Kernel.t -> t

(** Bytes per block. *)
val block_size : int
val read_block : t -> int -> unit
val write_block : t -> int -> unit

(** Drop a freed block from the cache and the clock ring, so a dead
    file's blocks stop counting against [cache_blocks].  Costs no
    simulated time; a block not resident is ignored. *)
val forget : t -> int -> unit

(** Blocks in the cache, and entries on the clock ring (walked; one per
    resident block). *)
val resident : t -> int
val ring_length : t -> int

(** [write_block_data t blk data] is {!write_block} (once per spanned
    block) plus durability: the payload enters the image.  Probes the
    [blockdev.crash_point] fault site {e before} persisting, so a fired
    point raises {!Power_loss} with the payload still lost — the
    lost-write window write-ahead journaling must tolerate. *)
val write_block_data : t -> int -> string -> unit

(** Read a durable payload back ({!read_block} charges per spanned
    block); [None] if the image holds nothing at [blk]. *)
val read_block_data : t -> int -> string option

(** Deep-copy snapshot of the persistent image — what a reboot may
    start from. *)
val image : t -> image

(** The longest bucket chain in the cache's table (see
    {!Ksim.Int_table.max_chain}). *)
val max_chain : t -> int

type stats = {
  reads : int;
  writes : int;
  hits : int;
  misses : int;
  evictions : int;
}

(** Derived from the [blockdev.*] kstats counters, so the two reporting
    paths can never disagree. *)
val stats : t -> stats
