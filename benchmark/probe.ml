(* Probes that read the simulator from outside: the host clock, the
   kernel's public clocks and counters, per-step simulated accounting,
   and a kperf sink that turns span events into per-layer self time on
   both clocks.  Nothing here changes what the simulator does. *)

(* Host monotonic clock, in seconds. *)
let host_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let us_of_cycles c = Ksim.Sim_clock.cycles_to_seconds c *. 1e6

(* ---------- per-step accounting ---------------------------------------- *)

(* Simulated elapsed/user/system cycles summed over the units of work a
   workload performs, plus each productive unit's elapsed time as a
   latency sample.  The current process is read inside the step, so
   under [Smp.run] each step is charged to its own instance. *)
type steps = {
  kernel : Ksim.Kernel.t;
  mutable samples : int list;  (* newest first *)
  mutable elapsed : int;
  mutable utime : int;
  mutable stime : int;
}

let steps kernel =
  { kernel; samples = []; elapsed = 0; utime = 0; stime = 0 }

(* Run one unit of work; [f] returns [false] when there was nothing left
   to do, and such an empty step is not sampled. *)
let step acct f =
  let k = acct.kernel in
  let p = Ksim.Kernel.current k in
  let t0 = Ksim.Kernel.now k in
  let u0 = p.Ksim.Kproc.utime and s0 = p.Ksim.Kproc.stime in
  let more = f () in
  let dt = Ksim.Kernel.now k - t0 in
  acct.elapsed <- acct.elapsed + dt;
  acct.utime <- acct.utime + (p.Ksim.Kproc.utime - u0);
  acct.stime <- acct.stime + (p.Ksim.Kproc.stime - s0);
  if more then acct.samples <- dt :: acct.samples;
  more

(* The sums alone, so a finished repetition does not keep its kernel. *)
let times acct =
  { Ksim.Kernel.elapsed = acct.elapsed; utime = acct.utime; stime = acct.stime }

(* ---------- counter snapshots ------------------------------------------ *)

type snapshot = {
  counters : (string, int) Hashtbl.t;  (* every kstats counter by name *)
  batch : int * int;                   (* ring.batch.size count, sum *)
  crossings : int;
  copied : int;                        (* bytes copied either way *)
  switches : int;
  perf_events : int;
  gc : Gc.stat;
}

let snapshot t =
  let k = Core.kernel t in
  let counters = Hashtbl.create 128 and batch = ref (0, 0) in
  List.iter
    (fun (name, v) ->
      match v with
      | Kstats.Counter_v n -> Hashtbl.replace counters name n
      | Kstats.Hist_v h when name = "ring.batch.size" ->
          batch := (h.Kstats.v_count, h.Kstats.v_sum)
      | _ -> ())
    (Kstats.dump (Core.stats t));
  {
    counters;
    batch = !batch;
    crossings = Ksim.Kernel.crossings k;
    copied = Ksim.Kernel.bytes_from_user k + Ksim.Kernel.bytes_to_user k;
    switches = Ksim.Scheduler.context_switches (Ksim.Kernel.sched k);
    perf_events = Kperf.emitted (Core.perf t);
    gc = Gc.quick_stat ();
  }

let counter s name = Option.value ~default:0 (Hashtbl.find_opt s.counters name)

(* Growth of a counter between two snapshots. *)
let delta a b name = counter b name - counter a name

(* Growth summed over every counter named [prefix ... suffix], e.g. all
   [lock.<name>.spin_cycles]. *)
let delta_matching a b ~prefix ~suffix =
  let matches name =
    String.starts_with ~prefix name && String.ends_with ~suffix name
  in
  Hashtbl.fold
    (fun name v acc -> if matches name then acc + v - counter a name else acc)
    b.counters 0

(* ---------- kperf sink: per-layer self time ----------------------------- *)

(* Every interval between two consecutive trace events is charged to the
   innermost open span of the CPU that emitted the earlier event, or to
   [outside] when that CPU has no span open.  A span's self time is thus
   its duration minus its children's, on the simulated clock (event
   timestamps) and on the host clock (stamped here).  The simulator runs
   one CPU's step at a time, so the intervals tile both clocks. *)

let outside = "workloads.outside"

(* The layer a span belongs to; syscalls keep their name so the
   per-syscall breakdown survives. *)
let layer_of (ev : Kperf.event) =
  match ev.Kperf.ev_cat with
  | "syscall" -> "ksyscall." ^ ev.Kperf.ev_name
  | "ring" -> "kring"
  | "lock" -> "ksim.lock"
  | "io" -> "kvfs.io"
  | cat -> cat

type tracer = {
  stacks : (int * string) list array;  (* per CPU: open span id, layer *)
  sim : (string, int) Hashtbl.t;
  host : (string, float) Hashtbl.t;
  mutable cpu : int;
  mutable ts : int;
  mutable hts : float;
}

let charge tr ~ts ~hts =
  let layer =
    match tr.stacks.(tr.cpu) with (_, l) :: _ -> l | [] -> outside
  in
  let add tbl zero plus v =
    Hashtbl.replace tbl layer
      (plus (Option.value ~default:zero (Hashtbl.find_opt tbl layer)) v)
  in
  add tr.sim 0 ( + ) (ts - tr.ts);
  add tr.host 0. ( +. ) (hts -. tr.hts);
  tr.ts <- ts;
  tr.hts <- hts

let rec unwind id = function
  | [] -> []
  | (i, _) :: rest -> if i = id then rest else unwind id rest

let on_event tr (ev : Kperf.event) =
  charge tr ~ts:ev.Kperf.ev_ts ~hts:(host_now ());
  let ncpus = Array.length tr.stacks in
  let cpu = max 0 (min (ncpus - 1) ev.Kperf.ev_cpu) in
  tr.cpu <- cpu;
  match ev.Kperf.ev_kind with
  | Kperf.Begin ->
      tr.stacks.(cpu) <- (ev.Kperf.ev_id, layer_of ev) :: tr.stacks.(cpu)
  | Kperf.End ->
      (* mirror kperf: the span is on the emitting CPU's stack, except
         when a slice migrated, so fall back to a scan *)
      let holds c = List.mem_assoc ev.Kperf.ev_id tr.stacks.(c) in
      let c =
        if holds cpu then cpu
        else Option.value ~default:cpu (List.find_opt holds (List.init ncpus Fun.id))
      in
      tr.stacks.(c) <- unwind ev.Kperf.ev_id tr.stacks.(c)
  | Kperf.Instant | Kperf.Async_begin | Kperf.Async_end -> ()

(* Start attributing at the current instant; the caller must [finish]. *)
let attach t =
  let perf = Core.perf t in
  let tr =
    {
      stacks = Array.make (Kperf.ncpus perf) [];
      sim = Hashtbl.create 32;
      host = Hashtbl.create 32;
      cpu = 0;
      ts = Ksim.Kernel.now (Core.kernel t);
      hts = host_now ();
    }
  in
  Kperf.set_sink perf (Some (on_event tr));
  tr

(* Charge the tail interval and detach; returns the tracer's totals. *)
let finish t tr =
  Kperf.set_sink (Core.perf t) None;
  charge tr ~ts:(Ksim.Kernel.now (Core.kernel t)) ~hts:(host_now ());
  tr
