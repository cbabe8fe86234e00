(* Simulated block device with a buffer cache.  Filesystems charge disk
   costs through here; the cache means repeated access to hot metadata is
   cheap, which is what makes PostMark metadata-rate-bound rather than
   seek-bound in E6/E7.

   Eviction is second-chance (clock): each resident block carries a
   reference bit, set on every hit.  The evictor walks the clock ring from
   the oldest arrival; a block with its bit set is spared (bit cleared,
   moved to the newest end) and the first block with a clear bit is
   evicted.  Hot blocks therefore survive a scan that would flush a plain
   FIFO. *)

type policy = Fifo | Second_chance

(* The persistent face of the device: block number -> payload bytes.
   Everything else in the simulator is volatile; after a power loss this
   table is the only state a reboot may consult. *)
type image = (int, Bytes.t) Hashtbl.t

(* A resident block's place on the clock ring: circular and doubly
   linked through a per-device sentinel, so the hand takes the oldest
   entry and [forget] unlinks a freed block in O(1). *)
type slot = {
  blk : int;
  mutable referenced : bool;
  mutable prev : slot;
  mutable next : slot;
}

type t = {
  kernel : Ksim.Kernel.t;
  block_size : int;
  cache_blocks : int;
  policy : policy;
  cache : slot Ksim.Int_table.t;      (* resident block -> its slot *)
  ring : slot;                        (* sentinel; [ring.next] is oldest *)
  kstats : Kstats.t;
  st_reads : Kstats.counter;
  st_writes : Kstats.counter;
  st_cache_hits : Kstats.counter;
  st_cache_misses : Kstats.counter;
  st_evictions : Kstats.counter;
  st_rereads : Kstats.counter;        (* short transfers retried *)
  fault : Kfault.t;
  site_eio : Kfault.site;
  site_short : Kfault.site;
  site_crash : Kfault.site;
  image : image;                      (* durable payloads (journalfs WAL) *)
  mutable last_block : int;           (* for seek-distance modelling *)
}

(* An uncorrectable read error on the given block: the driver gave up
   after its own retries.  Filesystems translate this to EIO at the ops
   boundary (see Fs_guard) so user land sees a clean errno. *)
exception Io_error of int

(* Power failed at a durable-write boundary: the write in flight — and
   every volatile structure in the machine — is lost.  Nothing catches
   this below the run harness; recovery happens on the next boot, from
   the image alone. *)
exception Power_loss

let create ?(block_size = 4096) ?(cache_blocks = 150_000)
    ?(policy = Second_chance) ?image kernel =
  let kstats = Ksim.Kernel.stats kernel in
  let rec ring = { blk = -1; referenced = false; prev = ring; next = ring } in
  {
    kernel;
    block_size;
    cache_blocks;
    policy;
    (* start small and let the table grow: sized for [cache_blocks] up
       front it would cost megabytes of buckets per boot, most never
       used; eviction reads only its length and the clock ring *)
    cache = Ksim.Int_table.create 256;
    ring;
    kstats;
    st_reads = Kstats.counter kstats "blockdev.reads";
    st_writes = Kstats.counter kstats "blockdev.writes";
    st_cache_hits = Kstats.counter kstats "blockdev.cache_hits";
    st_cache_misses = Kstats.counter kstats "blockdev.cache_misses";
    st_evictions = Kstats.counter kstats "blockdev.evictions";
    st_rereads = Kstats.counter kstats "retry.blockdev_rereads";
    fault = Ksim.Kernel.fault kernel;
    site_eio = Kfault.register (Ksim.Kernel.fault kernel) "blockdev.read_eio";
    site_short =
      Kfault.register (Ksim.Kernel.fault kernel) "blockdev.read_short";
    site_crash =
      Kfault.register (Ksim.Kernel.fault kernel) "blockdev.crash_point";
    image = (match image with Some i -> i | None -> Hashtbl.create 256);
    last_block = 0;
  }

let block_size t = t.block_size

(* Disk transfers are I/O wait: they advance elapsed time but do not
   count as system (CPU) time, like a process blocked in the elevator. *)
let charge t cycles = Ksim.Kernel.charge_io t.kernel cycles

let seek_cost t blk =
  let cost = Ksim.Kernel.cost t.kernel in
  let distance = abs (blk - t.last_block) in
  t.last_block <- blk;
  if distance = 0 then 0
  else if distance <= 8 then cost.Ksim.Cost_model.disk_seek / 100
  else cost.Ksim.Cost_model.disk_seek

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev

let push_newest t s =
  s.prev <- t.ring.prev;
  s.next <- t.ring;
  t.ring.prev.next <- s;
  t.ring.prev <- s

let rec evict_one t =
  let s = t.ring.next in
  if s != t.ring then begin
    unlink s;
    if t.policy = Second_chance && s.referenced then begin
      s.referenced <- false;
      push_newest t s;
      evict_one t
    end
    else begin
      Ksim.Int_table.remove t.cache s.blk;
      Kstats.incr t.kstats t.st_evictions
    end
  end

let touch t blk =
  match Ksim.Int_table.find t.cache blk with
  | s -> s.referenced <- true
  | exception Not_found ->
      let s = { blk; referenced = false; prev = t.ring; next = t.ring } in
      push_newest t s;
      Ksim.Int_table.replace t.cache blk s;
      if Ksim.Int_table.length t.cache > t.cache_blocks then evict_one t

(* A freed block leaves the cache and the ring at once rather than when
   the hand reaches it.  A queue that skipped such entries lazily would
   evict in the same order while freed block numbers are never reused,
   as memfs guarantees (it allocates from a forward cursor). *)
let forget t blk =
  match Ksim.Int_table.find t.cache blk with
  | s ->
      unlink s;
      Ksim.Int_table.remove t.cache blk
  | exception Not_found -> ()

let resident t = Ksim.Int_table.length t.cache

let ring_length t =
  let rec count s n = if s == t.ring then n else count s.next (n + 1) in
  count t.ring.next 0

(* Read one block: free on cache hit, seek+transfer on miss. *)
let read_block t blk =
  Kstats.incr t.kstats t.st_reads;
  match Ksim.Int_table.find t.cache blk with
  | s ->
      s.referenced <- true;
      Kstats.incr t.kstats t.st_cache_hits
  | exception Not_found ->
      Kstats.incr t.kstats t.st_cache_misses;
      let cost = Ksim.Kernel.cost t.kernel in
      let perf = Ksim.Kernel.perf t.kernel in
      let span =
        Kperf.span_begin perf ~pid:0 ~arg:blk ~cat:"io" ~name:"blockdev.read"
      in
      charge t (seek_cost t blk);
      (* injected short transfer: the driver re-issues the read, so the
         block costs an extra partial transfer but no error escapes *)
      if Kfault.fire t.fault t.site_short then begin
        charge t (cost.Ksim.Cost_model.disk_read_block / 2);
        Kstats.incr t.kstats t.st_rereads;
        Kperf.instant perf ~pid:0 ~arg:blk ~cat:"retry" ~name:"blockdev.reread"
      end;
      (* injected hard failure: the driver's retries are exhausted *)
      if Kfault.fire t.fault t.site_eio then begin
        charge t cost.Ksim.Cost_model.disk_read_block;
        Kperf.span_end perf ~pid:0 ~arg:blk span;
        raise (Io_error blk)
      end;
      charge t cost.Ksim.Cost_model.disk_read_block;
      Kperf.span_end perf ~pid:0 ~arg:blk span;
      touch t blk

(* Write one block: write-back model — the block enters the cache and a
   fraction of the transfer cost is charged to model the flusher. *)
let write_block t blk =
  Kstats.incr t.kstats t.st_writes;
  let cost = Ksim.Kernel.cost t.kernel in
  let perf = Ksim.Kernel.perf t.kernel in
  let span =
    Kperf.span_begin perf ~pid:0 ~arg:blk ~cat:"io" ~name:"blockdev.write"
  in
  charge t (cost.Ksim.Cost_model.disk_write_block / 10);
  Kperf.span_end perf ~pid:0 ~arg:blk span;
  touch t blk

(* Durable writes carry their payload into the image; this is the only
   path whose effect survives a Power_loss.  The crash point is probed
   *before* the payload lands, so a fire models power failing with the
   write still in the drive's volatile write cache — the lost-write
   window journaling must tolerate. *)
let write_block_data t blk data =
  if Kfault.fire t.fault t.site_crash then raise Power_loss;
  write_block t blk;
  (* a payload longer than one block occupies the following slots too *)
  for i = 1 to (max 1 (String.length data) - 1) / t.block_size do
    write_block t (blk + i)
  done;
  Hashtbl.replace t.image blk (Bytes.of_string data)

let read_block_data t blk =
  match Hashtbl.find_opt t.image blk with
  | None -> None
  | Some data ->
      read_block t blk;
      for i = 1 to (max 1 (Bytes.length data) - 1) / t.block_size do
        read_block t (blk + i)
      done;
      Some (Bytes.to_string data)

(* Deep-copy snapshot: what a reboot is allowed to start from. *)
let image t : image =
  let copy = Hashtbl.create (max 16 (Hashtbl.length t.image)) in
  Hashtbl.iter (fun blk data -> Hashtbl.replace copy blk (Bytes.copy data)) t.image;
  copy

let max_chain t = Ksim.Int_table.max_chain t.cache

type stats = {
  reads : int;
  writes : int;
  hits : int;
  misses : int;
  evictions : int;
}

(* Derived entirely from the kstats counters, so the two reporting paths
   can never disagree. *)
let stats (t : t) =
  {
    reads = Kstats.counter_value t.st_reads;
    writes = Kstats.counter_value t.st_writes;
    hits = Kstats.counter_value t.st_cache_hits;
    misses = Kstats.counter_value t.st_cache_misses;
    evictions = Kstats.counter_value t.st_evictions;
  }
