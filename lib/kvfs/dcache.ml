(* Dentry cache: (parent inode, name) -> inode.

   In the compatibility configuration (shards = 1, the default) every
   operation takes the one global dcache_lock — path resolution hits it
   once per component and namespace operations hit it too, which is how
   E6 reproduces the paper's ~8,805 dcache_lock acquisitions per second
   under PostMark.

   With shards > 1 the table is split into per-shard buckets, each with
   its own lock, and lookups take a lockless fast path: a per-shard
   seqcount is made odd while a writer is inside, so a reader that sees
   the same even value before and after its probe knows the probe was
   consistent and never touches the lock.  Writers still take the shard
   lock.  This is the fix E13 measures against the global-lock mode. *)

type shard = {
  lock : Ksim.Spinlock.t;
  entries : (int * string, int) Hashtbl.t;
  mutable seq : int;  (* seqcount: odd while a writer is inside *)
}

type t = {
  shards : shard array;
  kstats : Kstats.t;
  perf : Kperf.t option;
  st_hits : Kstats.counter;
  st_misses : Kstats.counter;
  st_invalidations : Kstats.counter;
}

let create ?(stats = Kstats.create ~enabled:true ()) ?ctx ?perf ?(shards = 1)
    () =
  if shards < 1 then invalid_arg "Dcache.create: shards";
  let mk_shard _ =
    {
      (* all shard locks share the name, so their lock.dcache_lock.*
         kstats aggregate into the same counters *)
      lock = Ksim.Spinlock.create ?ctx ?perf "dcache_lock";
      entries = Hashtbl.create (max 64 (4096 / shards));
      seq = 0;
    }
  in
  {
    shards = Array.init shards mk_shard;
    kstats = stats;
    perf;
    st_hits = Kstats.counter stats "dcache.hits";
    st_misses = Kstats.counter stats "dcache.misses";
    st_invalidations = Kstats.counter stats "dcache.invalidations";
  }

let nshards t = Array.length t.shards

let lock t = t.shards.(0).lock

let shard_of t ~dir ~name =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else t.shards.(Hashtbl.hash (dir, name) mod n)

let record_result t found =
  if found then Kstats.incr t.kstats t.st_hits
  else begin
    Kstats.incr t.kstats t.st_misses;
    (* misses are the interesting rarity in a flamegraph: each one means
       a directory scan follows *)
    match t.perf with
    | Some perf -> Kperf.instant perf ~pid:0 ~arg:0 ~cat:"vfs" ~name:"dcache.miss"
    | None -> ()
  end

(* Lock and unlock directly rather than through [with_lock]: nothing
   between them can raise, and a closure per lookup is host garbage on
   the hottest path PostMark has. *)
let locked_lookup ?pid t s ~dir ~name =
  Ksim.Spinlock.lock ~file:__FILE__ ~line:__LINE__ ?pid s.lock;
  let r = Hashtbl.find_opt s.entries (dir, name) in
  record_result t (Option.is_some r);
  Ksim.Spinlock.unlock ~file:__FILE__ ~line:__LINE__ s.lock;
  r

let lookup ?pid t ~dir ~name =
  let s = shard_of t ~dir ~name in
  if Array.length t.shards = 1 then locked_lookup ?pid t s ~dir ~name
  else begin
    (* seqcount fast path: a consistent probe needs the same even seq
       before and after.  Retry once on interference, then fall back to
       the lock (the slow path of a real seqlock reader). *)
    let rec fast attempts =
      if attempts = 0 then locked_lookup ?pid t s ~dir ~name
      else
        let s1 = s.seq in
        if s1 land 1 = 1 then fast (attempts - 1)
        else
          let r = Hashtbl.find_opt s.entries (dir, name) in
          if s.seq = s1 then begin
            record_result t (Option.is_some r);
            r
          end
          else fast (attempts - 1)
    in
    fast 2
  end

(* A writer's critical section: the shard lock held and the seqcount
   odd in between.  The table updates inside cannot raise. *)
let write_begin ?pid s =
  Ksim.Spinlock.lock ~file:__FILE__ ~line:__LINE__ ?pid s.lock;
  s.seq <- s.seq + 1

let write_end s =
  s.seq <- s.seq + 1;
  Ksim.Spinlock.unlock ~file:__FILE__ ~line:__LINE__ s.lock

let insert ?pid t ~dir ~name ~ino =
  let s = shard_of t ~dir ~name in
  write_begin ?pid s;
  Hashtbl.replace s.entries (dir, name) ino;
  write_end s

let invalidate ?pid t ~dir ~name =
  let s = shard_of t ~dir ~name in
  write_begin ?pid s;
  Kstats.incr t.kstats t.st_invalidations;
  Hashtbl.remove s.entries (dir, name);
  write_end s

let clear ?pid t =
  Array.iter
    (fun s ->
      write_begin ?pid s;
      Hashtbl.reset s.entries;
      write_end s)
    t.shards

let acquisitions t =
  Array.fold_left (fun acc s -> acc + Ksim.Spinlock.acquisitions s.lock) 0
    t.shards

let contended t =
  Array.fold_left (fun acc s -> acc + Ksim.Spinlock.contended s.lock) 0
    t.shards

let spin_cycles t =
  Array.fold_left (fun acc s -> acc + Ksim.Spinlock.spin_cycles s.lock) 0
    t.shards

type stats = { hits : int; misses : int; invalidations : int; lock_acquisitions : int }

(* Derived entirely from the kstats counters (plus the locks), so the
   two reporting paths can never disagree. *)
let stats (t : t) =
  {
    hits = Kstats.counter_value t.st_hits;
    misses = Kstats.counter_value t.st_misses;
    invalidations = Kstats.counter_value t.st_invalidations;
    lock_acquisitions = acquisitions t;
  }
