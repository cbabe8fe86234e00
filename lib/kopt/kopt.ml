(* The kopt facade: optimizing admitted programs.

   One [t] per kernel sits between kverify's admission and execution.
   When a Cosy compound is submitted, kopt probes the per-process
   compiled-program cache (keyed by a structural hash of the compound's
   wire bytes); on a miss it runs kverify admission itself — identical
   charges — and, if the compound verifies, compiles it with {!Plan}
   and caches the result.  The hook answers [Compiled plan]; Cosy's own
   op loop runs it (kopt compiles, Cosy executes): fd operands resolve
   once per distinct descriptor, adjacent contiguous transfers run as
   single bulk copies, read→write pairs dispatch splice-style, and ops
   inside proven counted loops run at the hoisted per-op rate.  Results
   are observably identical to the interpreter — same slot values,
   shared-buffer contents, errno sequence, and fd-table end state — only
   the cycle/copy accounting improves.

   For kring batches, {!ring_plan} admits via kverify and plans fused
   recv→send pairs plus completion-region coalescing (the CQ lives in
   the same shared mapping as the SQ, so the batch-end reply copy-out is
   pure accounting and can be elided). *)

module Plan = Plan
module Kernel = Ksim.Kernel
module Systable = Ksyscall.Systable
module Syscall = Ksyscall.Syscall
module Cx = Cosy.Cosy_exec

type t = {
  kernel : Kernel.t;
  kv : Kverify.t;
  cache_capacity : int;
  cache : (int * string, Plan.t) Hashtbl.t;  (* (pid, digest) -> plan *)
  order : (int * string) Queue.t;            (* FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  kstats : Kstats.t;
  s_hits : Kstats.counter;
  s_misses : Kstats.counter;
  s_compiles : Kstats.counter;
  s_invalidations : Kstats.counter;
  fault : Kfault.t;
  site_invalidate : Kfault.site;
}

let create ?(cache_capacity = 64) kv sys =
  if cache_capacity <= 0 then
    invalid_arg "Kopt.create: cache_capacity must be positive";
  let kernel = Systable.kernel sys in
  let kstats = Kernel.stats kernel in
  {
    kernel;
    kv;
    cache_capacity;
    cache = Hashtbl.create 16;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    compiles = 0;
    kstats;
    s_hits = Kstats.counter kstats "kopt.cache.hits";
    s_misses = Kstats.counter kstats "kopt.cache.misses";
    s_compiles = Kstats.counter kstats "kopt.cache.compiles";
    s_invalidations = Kstats.counter kstats "kopt.cache.invalidations";
    fault = Kernel.fault kernel;
    site_invalidate = Kfault.register (Kernel.fault kernel) "kopt.cache_invalidate";
  }

let hits t = t.hits
let misses t = t.misses
let compiles t = t.compiles
let cache_size t = Hashtbl.length t.cache

(* --- compile + per-process cache ---------------------------------------- *)

let try_plan t ~shared_size compound =
  let cost = Kernel.cost t.kernel in
  let clock = Kernel.clock t.kernel in
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_cache_probe;
  let pid = (Kernel.current t.kernel).Ksim.Kproc.pid in
  let key = (pid, Digest.bytes compound.Cosy.Compound.buf) in
  (* injected cache invalidation: the entry is dropped at the moment of
     the probe (as if the process's cache had been flushed), turning the
     hit into a miss — the compound recompiles, observably identical *)
  let probe = Hashtbl.find_opt t.cache key in
  let probe =
    match probe with
    | Some _ when Kfault.fire t.fault t.site_invalidate ->
        Hashtbl.remove t.cache key;
        Kstats.incr t.kstats t.s_invalidations;
        None
    | p -> p
  in
  match probe with
  | Some plan ->
      t.hits <- t.hits + 1;
      Kstats.incr t.kstats t.s_hits;
      Some plan
  | None -> (
      t.misses <- t.misses + 1;
      Kstats.incr t.kstats t.s_misses;
      (* admission runs here, with exactly the charges the plain
         verifier path would have paid *)
      match Kverify.compound_verdict t.kv ~shared_size compound with
      | Kverify.Checker.Rejected _ -> None
      | Kverify.Checker.Verified { ops = nops; loops } ->
          let perf = Kernel.perf t.kernel in
          let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name:"compile" in
          Ksim.Sim_clock.advance clock
            (nops * cost.Ksim.Cost_model.kopt_compile_op);
          (* the checker just decoded this compound; re-decoding here is
             covered by the per-op compile charge *)
          let ops, slot_count = Cosy.Compound.decode compound in
          let plan = Plan.compile ~shared_size ~loops ops ~slot_count in
          Kperf.span_end perf ~pid:0 ~arg:0 span;
          t.compiles <- t.compiles + 1;
          Kstats.incr t.kstats t.s_compiles;
          if Hashtbl.length t.cache >= t.cache_capacity then
            (match Queue.take_opt t.order with
            | Some old -> Hashtbl.remove t.cache old
            | None -> ());
          Hashtbl.replace t.cache key plan;
          Queue.add key t.order;
          Some plan)

(* --- admission hooks ----------------------------------------------------- *)

let admit_compound t cx =
  let shared_size = Cosy.Shared_buffer.size (Cx.shared cx) in
  fun compound ->
    match try_plan t ~shared_size compound with
    | None -> Cx.Dynamic
    | Some plan -> Cx.Compiled plan.Plan.code

let ring_plan t reqs =
  match Kverify.admit_ring t.kv reqs with
  | None -> None
  | Some _ ->
      let arr = Array.of_list reqs in
      let n = Array.length arr in
      let fuse = Array.make n false in
      let i = ref 0 in
      while !i < n - 1 do
        match (arr.(!i), arr.(!i + 1)) with
        | Syscall.Recv { sock = s1; _ }, Syscall.Send { sock = s2; _ }
          when s1 = s2 ->
            fuse.(!i) <- true;
            i := !i + 2
        | _ -> incr i
      done;
      Some { Kring.fuse_next = fuse; coalesce_cq = true }
