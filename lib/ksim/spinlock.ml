(* Spinlock with instrumentation hooks and an SMP contention model.

   Execution is serialized, so a lock is never literally held when a
   different process reaches [lock] — recursive acquisition still
   indicates a locking bug and raises.  Contention is instead *derived*
   from the scheduler's per-CPU local clocks (parallel wall time).

   The lock remembers a ring of recent *hold windows* [w_from, w_to) in
   parallel time, each the span of one critical section ([lock_hold]
   cycles, charged to the holder).  An acquirer whose local time lands
   inside another CPU's window arrived while the lock was genuinely held
   in wall time: it waits for that hold's release — and if the release
   lands inside yet another window it keeps waiting behind the chain,
   which is how convoys form.  The wait is charged as spin cycles up to
   [spin_cap]; beyond that the process blocks (a context switch plus the
   remaining wait).  An arrival covered by no window found the lock free
   — in particular, a CPU whose clock lags far behind (say, fresh out of
   a long disk wait) arrived before the recorded holds existed in wall
   time and owes nothing.  A cacheline bounce is charged whenever
   ownership migrates across CPUs.

   Under load the arithmetic makes the lock a genuine serialization
   point: holds on different CPUs cannot overlap in parallel time, so
   once the offered hold time per unit of parallel time approaches 1
   the convoy chains never drain and throughput is capped by the lock's
   service rate — the effect E13 measures, and exactly what the paper's
   ~8,805/s dcache_lock monitoring was pointing at.

   At ncpus=1 the model is inert (no hold charge, no contention), so
   single-CPU runs are preserved bit-for-bit.  Every acquire/release
   emits an Instrument event, which is how the dcache_lock experiment
   (E6) counts acquisitions; contended acquisitions additionally emit a
   [Contended] event carrying the spin cycles as its value. *)

type counters = {
  st_acquisitions : Kstats.counter;
  st_contended : Kstats.counter;
  st_spin : Kstats.counter;
}

type window = {
  mutable w_cpu : int;  (* -1 = empty slot *)
  mutable w_from : int;
  mutable w_to : int;
}

type ctx = {
  sched : Scheduler.t;
  clock : Sim_clock.t;
  cost : Cost_model.t;
  stats : Kstats.t;
  registry : registry;
}

(* Every lock created under a ctx enrols here, so crash containment can
   find the locks a dying process still holds. *)
and registry = { mutable regd : t list }

and t = {
  id : int;
  name : string;
  ctx : ctx option;
  perf : Kperf.t option;         (* contention-wait spans, if wired *)
  counters : (Kstats.t * counters) option;
  mutable locked : bool;
  mutable holder : int;          (* pid, or -1 *)
  mutable holder_cpu : int;      (* CPU of the current holder, or -1 *)
  mutable last_cpu : int;        (* CPU of the last release, or -1 *)
  mutable poisoned : bool;       (* force-released after an oops *)
  windows : window array;        (* ring of recent hold windows *)
  mutable w_next : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable spin_cycles : int;
}

let next_id = ref 0
let new_registry () = { regd = [] }
let registered r = List.rev r.regd

let ring_slots = function
  | None -> 1
  | Some c -> max 8 (2 * Scheduler.ncpus c.sched)

let create ?ctx ?perf name =
  incr next_id;
  let counters =
    match ctx with
    | None -> None
    | Some c ->
        let counter suffix =
          Kstats.counter c.stats (Printf.sprintf "lock.%s.%s" name suffix)
        in
        Some
          ( c.stats,
            {
              st_acquisitions = counter "acquisitions";
              st_contended = counter "contended";
              st_spin = counter "spin_cycles";
            } )
  in
  let t =
    {
      id = !next_id;
      name;
      ctx;
      perf;
      counters;
      locked = false;
      holder = -1;
      holder_cpu = -1;
      last_cpu = -1;
      poisoned = false;
      windows =
        Array.init (ring_slots ctx) (fun _ ->
            { w_cpu = -1; w_from = 0; w_to = 0 });
      w_next = 0;
      acquisitions = 0;
      contended = 0;
      spin_cycles = 0;
    }
  in
  (match ctx with
  | Some c -> c.registry.regd <- t :: c.registry.regd
  | None -> ());
  t

exception Deadlock of string

(* release time of the hold on another CPU whose window covers [now]
   (the latest such, if several overlap), or [now] when none does *)
let blocking_release t ~cpu ~now =
  let release = ref now in
  for i = 0 to Array.length t.windows - 1 do
    let w = t.windows.(i) in
    if w.w_cpu >= 0 && w.w_cpu <> cpu && now >= w.w_from && now < w.w_to
       && w.w_to > !release
    then release := w.w_to
  done;
  !release

let lock ?(file = "<unknown>") ?(line = 0) ?(pid = 0) t =
  if t.locked && t.holder = pid then
    raise (Deadlock (Printf.sprintf "%s: recursive lock by pid %d" t.name pid));
  (* serialized simulation: the lock is always free here; SMP contention
     is derived from overlap with the busy interval in parallel time *)
  (match t.ctx with
  | None -> ()
  | Some c ->
      let cpu = Scheduler.active_cpu c.sched in
      let ncpus = Scheduler.ncpus c.sched in
      if ncpus > 1 then begin
        let arrival = Scheduler.local_now c.sched in
        (* follow the convoy: waiting out one hold can land us inside
           the next hold chained behind it.  The ring holds at most
           2*ncpus windows, which bounds the walk. *)
        let release = ref (blocking_release t ~cpu ~now:arrival) in
        let guard = ref (Array.length t.windows) in
        while
          !guard > 0
          &&
          let next = blocking_release t ~cpu ~now:!release in
          if next > !release then begin
            release := next;
            true
          end
          else false
        do
          decr guard
        done;
        if !release > arrival then begin
          let needed = !release - arrival in
          let spin = min needed c.cost.Cost_model.spin_cap in
          (* the wait is a traced span: its duration is the convoy's
             cost, its parent whatever operation hit the lock *)
          let span =
            match t.perf with
            | Some perf ->
                Kperf.span_begin perf ~pid ~arg:spin ~cat:"lock" ~name:t.name
            | None -> 0
          in
          Sim_clock.advance c.clock spin;
          t.contended <- t.contended + 1;
          t.spin_cycles <- t.spin_cycles + spin;
          (match t.counters with
          | Some (stats, k) ->
              Kstats.incr stats k.st_contended;
              Kstats.add stats k.st_spin spin
          | None -> ());
          Instrument.emit ~pid ~obj:t.id ~value:spin
            ~kind:Instrument.Contended ~file ~line ();
          if needed > spin then begin
            Scheduler.context_switch c.sched;
            Sim_clock.advance c.clock (needed - spin)
          end;
          match t.perf with
          | Some perf -> Kperf.span_end perf ~pid ~arg:needed span
          | None -> ()
        end;
        (* ownership migrates cross-CPU: pull the lock's cacheline *)
        if t.last_cpu >= 0 && t.last_cpu <> cpu then
          Sim_clock.advance c.clock c.cost.Cost_model.cacheline_bounce;
        (* charge the critical section and record its window in the
           ring.  Uniprocessor runs skip all of this: the cost is
           folded into the surrounding operation's calibration, and
           there is nobody to contend with. *)
        let from = Scheduler.local_now c.sched in
        Sim_clock.advance c.clock c.cost.Cost_model.lock_hold;
        let w = t.windows.(t.w_next) in
        w.w_cpu <- cpu;
        w.w_from <- from;
        w.w_to <- Scheduler.local_now c.sched;
        t.w_next <- (t.w_next + 1) mod Array.length t.windows
      end;
      t.holder_cpu <- cpu);
  t.locked <- true;
  t.holder <- pid;
  t.acquisitions <- t.acquisitions + 1;
  (match t.counters with
  | Some (stats, k) -> Kstats.incr stats k.st_acquisitions
  | None -> ());
  Instrument.emit ~pid ~obj:t.id ~value:1 ~kind:Instrument.Lock ~file ~line ()

let unlock ?(file = "<unknown>") ?(line = 0) t =
  if not t.locked then
    raise (Deadlock (Printf.sprintf "%s: unlock of free lock" t.name));
  let pid = t.holder in
  t.locked <- false;
  t.holder <- -1;
  (match t.ctx with
  | None -> ()
  | Some c ->
      t.last_cpu <- Scheduler.active_cpu c.sched;
      t.holder_cpu <- -1);
  Instrument.emit ~pid ~obj:t.id ~value:0 ~kind:Instrument.Unlock ~file ~line ()

let with_lock ?file ?line ?pid t f =
  lock ?file ?line ?pid t;
  match f () with
  | v ->
      unlock ?file ?line t;
      v
  | exception e ->
      unlock ?file ?line t;
      raise e

(* Crash containment: a dying process cannot unlock what it holds, so
   the oops path rips the lock away.  The lock is marked poisoned (the
   critical section it protected may be half-done) and a Contended-style
   event with value -1 marks the forced release in the instrument
   stream, followed by the normal Unlock so event counts stay paired. *)
let force_release ?(file = "<unknown>") ?(line = 0) t =
  if not t.locked then false
  else begin
    let pid = t.holder in
    t.poisoned <- true;
    t.locked <- false;
    t.holder <- -1;
    t.holder_cpu <- -1;
    (match t.counters with
    | Some (stats, k) -> Kstats.incr stats k.st_contended
    | None -> ());
    Instrument.emit ~pid ~obj:t.id ~value:(-1) ~kind:Instrument.Contended
      ~file ~line ();
    Instrument.emit ~pid ~obj:t.id ~value:0 ~kind:Instrument.Unlock ~file
      ~line ();
    true
  end

let is_locked t = t.locked
let holder t = t.holder
let poisoned t = t.poisoned
let acquisitions t = t.acquisitions
let contended t = t.contended
let spin_cycles t = t.spin_cycles
let id t = t.id
let name t = t.name
