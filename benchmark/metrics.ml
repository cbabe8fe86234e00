(* The metric catalogue and how each metric is computed from a run's
   repetitions.  [Sim] metrics come from the simulated clock and
   counters: deterministic for a seed, so every repetition must read
   exactly the same, and a mismatch is a failure.  [Host] metrics come
   from the host clock and allocator and are the median over
   repetitions. *)

type better = Higher | Lower
type source = Sim | Host

type def = { name : string; unit_ : string; better : better; source : source }

let d name unit_ better source = { name; unit_; better; source }

(* End-to-end: what a user of the simulator sees, per workload.  An op
   is a response (c10k), a PostMark step (postmark_smp4) or a record
   access (cosy_db). *)
let end_to_end =
  [
    d "sim_throughput" "ops/s" Higher Sim;
    d "sim_latency_p50_us" "us" Lower Sim;
    d "sim_latency_p99_us" "us" Lower Sim;
    d "host_throughput" "ops/s" Higher Host;
    d "host_alloc_words_per_op" "words/op" Lower Host;
    d "host_peak_heap_mb" "MB" Lower Host;
    d "setup_s" "s" Lower Host;
  ]

(* Self-time layers reported from the traced run, sim and host clock. *)
let trace_layers =
  [ "ksyscall"; "ksyscall.epoll_wait"; "cosy"; "kring"; "ksim.lock"; "kvfs.io";
    Probe.outside ]

(* Per-layer, from the untraced repetitions (counters) and the traced
   ones (self time and tracing cost). *)
let per_layer =
  [
    d "ksim.user_share" "ratio" Lower Sim;
    d "ksim.sys_share" "ratio" Lower Sim;
    d "ksim.wait_share" "ratio" Lower Sim;
    d "ksim.context_switches_per_op" "count/op" Lower Sim;
    d "ksim.lock_acquisitions_per_op" "count/op" Lower Sim;
    d "ksim.lock_spin_cycles_per_op" "cycles/op" Lower Sim;
    d "ksim.lock_contended_ratio" "ratio" Lower Sim;
    d "ksyscall.syscalls_per_op" "count/op" Lower Sim;
    d "ksyscall.crossings_per_op" "count/op" Lower Sim;
    d "ksyscall.copied_bytes_per_op" "B/op" Lower Sim;
    d "kvfs.dcache_hit_ratio" "ratio" Higher Sim;
    d "kvfs.blockdev_hit_ratio" "ratio" Higher Sim;
    d "kvfs.blockdev_ios_per_op" "count/op" Lower Sim;
    d "knet.accept_ratio" "ratio" Higher Sim;
    d "knet.redials_per_conn" "count/conn" Lower Sim;
    d "knet.wakeups_per_wait" "ratio" Higher Sim;
    d "cosy.ops_per_submit" "count" Higher Sim;
    d "kring.batch_mean" "count" Higher Sim;
    d "kring.crossings_saved_per_op" "count/op" Higher Sim;
    d "kverify.admitted_per_op" "count/op" Higher Sim;
    d "kverify.watchdog_elided_ratio" "ratio" Higher Sim;
    d "kopt.cq_bytes_saved_per_op" "B/op" Higher Sim;
    d "kopt.fused_pairs_per_op" "count/op" Higher Sim;
    d "host.promoted_words_per_op" "words/op" Lower Host;
    d "host.major_gcs_per_kop" "count/kop" Lower Host;
    d "kperf.events_per_op" "count/op" Lower Sim;
    d "kperf.sim_overhead_pct" "%" Lower Sim;
    d "kperf.host_overhead_pct" "%" Lower Host;
  ]
  @ List.concat_map
      (fun l ->
        [ d (l ^ ".share") "ratio" Lower Sim; d (l ^ ".host_share") "ratio" Lower Host ])
      trace_layers

(* ---------- statistics --------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default "exclusive" method), so spreads read the same here as
   in an acceptance check written in Python. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Exact rank percentile of integer samples; 0 when there are none. *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ---------- one repetition ------------------------------------------------ *)

let sim_e2e (r : Cells.rep) =
  [
    ("sim_throughput", ratio (float_of_int r.Cells.ops) (Ksim.Sim_clock.cycles_to_seconds r.Cells.sim_cycles));
    ("sim_latency_p50_us", Probe.us_of_cycles (percentile r.Cells.latencies 0.50));
    ("sim_latency_p99_us", Probe.us_of_cycles (percentile r.Cells.latencies 0.99));
  ]

let alloc_words (a : Gc.stat) (b : Gc.stat) =
  b.Gc.minor_words +. b.Gc.major_words -. b.Gc.promoted_words
  -. (a.Gc.minor_words +. a.Gc.major_words -. a.Gc.promoted_words)

let host_e2e (r : Cells.rep) =
  let ops = float_of_int r.Cells.ops in
  [
    ("host_throughput", ratio ops r.Cells.host_s);
    ("host_alloc_words_per_op",
      ratio (alloc_words r.Cells.before.Probe.gc r.Cells.after.Probe.gc) ops);
    ("setup_s", r.Cells.setup_s);
  ]

(* Counter-derived layer metrics: all simulated, all deterministic. *)
let sim_layers (r : Cells.rep) =
  let a = r.Cells.before and b = r.Cells.after in
  let dl = Probe.delta a b in
  let ops = r.Cells.ops in
  let per_op n = ratio_i n ops in
  let { Ksim.Kernel.elapsed = el; utime; stime } = r.Cells.times in
  let lock suffix = Probe.delta_matching a b ~prefix:"lock." ~suffix in
  let acq = lock ".acquisitions" in
  let dc_hits = dl "dcache.hits" and bd_hits = dl "blockdev.cache_hits" in
  let conns = dl "net.conns" in
  let admitted = dl "kverify.watchdog_elided" in
  let bcount = fst b.Probe.batch - fst a.Probe.batch in
  let bsum = snd b.Probe.batch - snd a.Probe.batch in
  [
    ("ksim.user_share", ratio_i utime el);
    ("ksim.sys_share", ratio_i stime el);
    ("ksim.wait_share", ratio_i (el - utime - stime) el);
    ("ksim.context_switches_per_op", per_op (b.Probe.switches - a.Probe.switches));
    ("ksim.lock_acquisitions_per_op", per_op acq);
    ("ksim.lock_spin_cycles_per_op", per_op (lock ".spin_cycles"));
    ("ksim.lock_contended_ratio", ratio_i (lock ".contended") acq);
    ("ksyscall.syscalls_per_op", per_op (dl "syscall.total"));
    ("ksyscall.crossings_per_op", per_op (b.Probe.crossings - a.Probe.crossings));
    ("ksyscall.copied_bytes_per_op", per_op (b.Probe.copied - a.Probe.copied));
    ("kvfs.dcache_hit_ratio", ratio_i dc_hits (dc_hits + dl "dcache.misses"));
    ("kvfs.blockdev_hit_ratio", ratio_i bd_hits (bd_hits + dl "blockdev.cache_misses"));
    ("kvfs.blockdev_ios_per_op", per_op (dl "blockdev.reads" + dl "blockdev.writes"));
    ("knet.accept_ratio", ratio_i conns (conns + dl "net.backlog_drops"));
    ("knet.redials_per_conn", ratio_i (dl "retry.net_redials") r.Cells.conns);
    ("knet.wakeups_per_wait", ratio_i (dl "net.epoll.wakeups") (dl "net.epoll.waits"));
    ("cosy.ops_per_submit", ratio_i (dl "cosy.ops_executed") (dl "cosy.submits"));
    ("kring.batch_mean", ratio_i bsum bcount);
    ("kring.crossings_saved_per_op", per_op (dl "ring.crossings_saved"));
    (* every program kverify admits runs with its watchdog elided *)
    ("kverify.admitted_per_op", per_op admitted);
    ("kverify.watchdog_elided_ratio",
      ratio_i admitted (dl "ring.enters" + dl "cosy.submits"));
    ("kopt.cq_bytes_saved_per_op", per_op (dl "ring.opt.cq_bytes_saved"));
    ("kopt.fused_pairs_per_op", per_op (dl "ring.opt.fused_pairs"));
  ]

let host_layers (r : Cells.rep) =
  let a = r.Cells.before.Probe.gc and b = r.Cells.after.Probe.gc in
  let ops = float_of_int r.Cells.ops in
  [
    ("host.promoted_words_per_op", ratio (b.Gc.promoted_words -. a.Gc.promoted_words) ops);
    ("host.major_gcs_per_kop",
      ratio (1000. *. float_of_int (b.Gc.major_collections - a.Gc.major_collections)) ops);
  ]

(* Self-time shares from a traced repetition, per layer and per syscall. *)
let shares (tr : Probe.tracer) =
  let sum_sim = Hashtbl.fold (fun _ v acc -> acc + v) tr.Probe.sim 0 in
  let sum_host = Hashtbl.fold (fun _ v acc -> acc +. v) tr.Probe.host 0. in
  let under l key = key = l || (l = "ksyscall" && String.starts_with ~prefix:"ksyscall." key) in
  let total tbl zero plus l =
    Hashtbl.fold (fun k v acc -> if under l k then plus acc v else acc) tbl zero
  in
  let layers =
    List.sort_uniq compare
      (trace_layers @ Hashtbl.fold (fun k _ acc -> k :: acc) tr.Probe.sim [])
  in
  List.concat_map
    (fun l ->
      [
        (l ^ ".share", ratio_i (total tr.Probe.sim 0 ( + ) l) sum_sim);
        (l ^ ".host_share", ratio (total tr.Probe.host 0. ( +. ) l) sum_host);
      ])
    layers

(* ---------- a run: repetitions over a few inputs --------------------------- *)

(* A run measures a few input seeds, each repeated.  A [Sim] metric
   takes one value per input, which every repetition of that input must
   reproduce exactly, and the run reports the mean over inputs.  A
   [Host] metric is the median over all repetitions, except
   [host_throughput], which is the fastest repetition's: on a shared
   machine other tenants only ever slow a repetition down, and the best
   repetition spreads least from run to run. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (* in catalogue order *)
  detail : (string * float) list;   (* per-syscall shares beyond the catalogue *)
  mismatches : string list;         (* sim metrics that differed across reps *)
}

(* (input seed, metric values) for each repetition *)
let rows f reps = List.map (fun (r : Cells.rep) -> (r.Cells.seed, f r)) reps

let seeds rows = List.sort_uniq compare (List.map fst rows)

(* A metric a repetition does not report (a span layer it never
   entered) reads 0. *)
let values name rows seed =
  List.filter_map
    (fun (s, row) ->
      if s = seed then Some (Option.value ~default:0. (List.assoc_opt name row))
      else None)
    rows

(* The one value an input's repetitions agree on, noting a mismatch. *)
let agree mismatches name = function
  | [] -> nan
  | v :: rest ->
      if List.exists (fun x -> x <> v) rest then mismatches := name :: !mismatches;
      v

let sim_of mismatches name rows seed = agree mismatches name (values name rows seed)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sim_mean mismatches name rows = mean (List.map (sim_of mismatches name rows) (seeds rows))
let all_values name rows = List.concat_map (values name rows) (seeds rows)
let host_median name rows = median (all_values name rows)

let counts reps =
  List.fold_left
    (fun (a, f) (r : Cells.rep) -> (a + r.Cells.attempted, f + r.Cells.failed))
    (0, 0) reps

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let result ~mismatches reps metrics detail =
  let attempted, failed = counts reps in
  {
    correct = failed = 0 && !mismatches = [];
    attempted;
    failed;
    metrics;
    detail;
    mismatches = List.sort_uniq compare !mismatches;
  }

(* End-to-end metrics over untraced repetitions. *)
let summarize_e2e reps =
  let mismatches = ref [] in
  let sims = rows sim_e2e reps and hosts = rows host_e2e reps in
  let value def =
    match def.name with
    | "host_peak_heap_mb" -> peak_heap_mb ()
    | "host_throughput" -> List.fold_left max 0. (all_values def.name hosts)
    | n when def.source = Sim -> sim_mean mismatches n sims
    | n -> host_median n hosts
  in
  result ~mismatches reps (List.map (fun def -> (def.name, value def)) end_to_end) []

(* Per-layer metrics: counters from the untraced repetitions, self time
   and tracing cost from the traced ones. *)
let summarize_layers ~untraced ~traced =
  let mismatches = ref [] in
  let sim_rows = rows sim_layers untraced and host_rows = rows host_layers untraced in
  let share_rows = rows (fun (r : Cells.rep) -> shares (Option.get r.Cells.trace)) traced in
  let cost (r : Cells.rep) =
    [
      ("sim_cycles", float_of_int r.Cells.sim_cycles);
      ("host_s", r.Cells.host_s);
      ("events_per_op",
        ratio_i (r.Cells.after.Probe.perf_events - r.Cells.before.Probe.perf_events) r.Cells.ops);
    ]
  in
  let ucost = rows cost untraced and tcost = rows cost traced in
  (* tracing cost per input, traced against untraced, then the median *)
  let overhead name per_seed =
    median
      (List.map
         (fun s ->
           let base = per_seed name ucost s in
           100. *. ratio (per_seed name tcost s -. base) base)
         (List.filter (fun s -> List.mem s (seeds ucost)) (seeds tcost)))
  in
  let is_in rows n = List.exists (fun (_, row) -> List.mem_assoc n row) rows in
  let value def =
    match def.name with
    | "kperf.events_per_op" -> sim_mean mismatches "events_per_op" tcost
    | "kperf.sim_overhead_pct" -> overhead "sim_cycles" (sim_of mismatches)
    | "kperf.host_overhead_pct" ->
        overhead "host_s" (fun n rows s -> median (values n rows s))
    | n when is_in sim_rows n -> sim_mean mismatches n sim_rows
    | n when is_in host_rows n -> host_median n host_rows
    | n when def.source = Sim -> sim_mean mismatches n share_rows
    | n -> host_median n share_rows
  in
  let metrics = List.map (fun def -> (def.name, value def)) per_layer in
  let detail =
    List.concat_map (fun (_, row) -> List.map fst row) share_rows
    |> List.sort_uniq compare
    |> List.filter (fun n -> not (List.mem_assoc n metrics))
    |> List.map (fun n ->
           if String.ends_with ~suffix:".host_share" n then (n, host_median n share_rows)
           else (n, sim_mean mismatches n share_rows))
  in
  result ~mismatches (untraced @ traced) metrics detail
