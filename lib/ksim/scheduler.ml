(* Round-robin preemptive scheduler over N simulated CPUs.

   The simulation executes workloads as OCaml code, so preemption is
   realized at explicit checkpoints: long-running kernel paths (notably
   the Cosy interpreter's loop back-edges) call [checkpoint].  When the
   current process has run past its timeslice, a context switch is
   charged and the next runnable process notionally runs — this is what
   gives Cosy's watchdog its teeth: a compound stuck in an infinite loop
   keeps hitting checkpoints, keeps being charged, and is killed once it
   exhausts its kernel-time budget (paper §2.3).

   SMP model.  Execution remains serialized (one OCaml thread), but each
   CPU carries a *local clock*: the wall time that CPU has notionally
   consumed running its processes in parallel with the others.  A driver
   runs a slice of some process's work inside [run_on ~cpu f]; the global
   Sim_clock delta of the slice is credited to that CPU's local clock.
   Local clocks share an origin, so comparing them across CPUs is
   comparing parallel wall time — which is exactly what the
   contention-aware [Spinlock] does to decide whether a lock held on
   another CPU was still held when this CPU reached it.  The makespan
   (max over local clocks) is the elapsed time of the parallel run. *)

type t = {
  clock : Sim_clock.t;
  cost : Cost_model.t;
  stats : Kstats.t;
  st_switches : Kstats.counter;
  st_preemptions : Kstats.counter;
  st_spawns : Kstats.counter;
  ncpus : int;
  queues : Kproc.t list array;        (* per-CPU runqueue, current first *)
  currents : Kproc.t option array;
  cpu_clock : int array;              (* accumulated local wall time *)
  slice_start : int array;            (* global clock value at slice start *)
  mutable active_cpu : int;           (* CPU the serialized sim is executing *)
  mutable chunk_base : int;           (* global clock at run_on entry, or -1 *)
  mutable next_pid : int;
  mutable context_switches : int;
  mutable preemptions : int;
  mutable perf : Kperf.t option;      (* tracer, wired by Kernel.create *)
}

let create ?(stats = Kstats.create ()) ?(ncpus = 1) ~clock ~cost () =
  if ncpus < 1 then invalid_arg "Scheduler.create: ncpus";
  {
    clock;
    cost;
    stats;
    st_switches = Kstats.counter stats "sched.context_switches";
    st_preemptions = Kstats.counter stats "sched.preemptions";
    st_spawns = Kstats.counter stats "sched.spawns";
    ncpus;
    queues = Array.make ncpus [];
    currents = Array.make ncpus None;
    cpu_clock = Array.make ncpus 0;
    slice_start = Array.make ncpus 0;
    active_cpu = 0;
    chunk_base = -1;
    next_pid = 1;
    context_switches = 0;
    preemptions = 0;
    perf = None;
  }

let ncpus t = t.ncpus
let active_cpu t = t.active_cpu
let set_perf t p = t.perf <- Some p

(* Least-loaded CPU (lowest index on ties), so spawns without an explicit
   placement spread round-robin across an idle machine. *)
let pick_cpu t =
  let best = ref 0 in
  for c = 1 to t.ncpus - 1 do
    if List.length t.queues.(c) < List.length t.queues.(!best) then best := c
  done;
  !best

let spawn ?cpu t ~name =
  let cpu =
    match cpu with
    | Some c ->
        if c < 0 || c >= t.ncpus then invalid_arg "Scheduler.spawn: cpu";
        c
    | None -> pick_cpu t
  in
  let p = Kproc.create ~cpu ~pid:t.next_pid ~name () in
  Kstats.incr t.stats t.st_spawns;
  t.next_pid <- t.next_pid + 1;
  t.queues.(cpu) <- t.queues.(cpu) @ [ p ];
  if t.currents.(cpu) = None then begin
    p.Kproc.state <- Kproc.Running;
    t.currents.(cpu) <- Some p;
    t.slice_start.(cpu) <- Sim_clock.now t.clock
  end;
  p

exception No_current_process

let current t =
  match t.currents.(t.active_cpu) with
  | Some p -> p
  | None -> raise No_current_process

(* Make [p] the running process on its CPU (the SMP driver switches
   between workload processes this way; the demoted process stays on the
   runqueue, ready). *)
let activate t p =
  let cpu = p.Kproc.cpu in
  (match t.currents.(cpu) with
  | Some q when q != p && q.Kproc.state = Kproc.Running ->
      q.Kproc.state <- Kproc.Ready
  | Some _ | None -> ());
  p.Kproc.state <- Kproc.Running;
  t.currents.(cpu) <- Some p;
  t.slice_start.(cpu) <- Sim_clock.now t.clock

let context_switch t =
  let cpu = t.active_cpu in
  Sim_clock.advance t.clock t.cost.Cost_model.context_switch;
  t.context_switches <- t.context_switches + 1;
  Kstats.incr t.stats t.st_switches;
  (* trace the switch, attributed to the outgoing process and parented
     to whatever span the CPU was inside (a ring drain, a lock wait) *)
  (match t.perf with
  | Some perf ->
      let pid =
        match t.currents.(cpu) with Some p -> p.Kproc.pid | None -> 0
      in
      Kperf.instant perf ~pid ~arg:cpu ~cat:"sched" ~name:"context_switch"
  | None -> ());
  t.slice_start.(cpu) <- Sim_clock.now t.clock;
  (* rotate this CPU's runqueue *)
  match t.queues.(cpu) with
  | [] | [ _ ] -> ()
  | p :: rest ->
      t.queues.(cpu) <- rest @ [ p ];
      (match t.currents.(cpu) with
      | Some c when c.Kproc.state = Kproc.Running ->
          c.Kproc.state <- Kproc.Ready
      | Some _ | None -> ());
      let next =
        List.find_opt (fun q -> q.Kproc.state = Kproc.Ready) t.queues.(cpu)
      in
      (match next with
      | Some n ->
          n.Kproc.state <- Kproc.Running;
          t.currents.(cpu) <- Some n
      | None -> ())

(* Exceeded-timeslice check; long kernel paths call this at back-edges. *)
let checkpoint t =
  let cpu = t.active_cpu in
  let elapsed = Sim_clock.now t.clock - t.slice_start.(cpu) in
  if elapsed >= t.cost.Cost_model.timeslice then begin
    t.preemptions <- t.preemptions + 1;
    Kstats.incr t.stats t.st_preemptions;
    (match t.currents.(cpu) with
    | Some p -> p.Kproc.kernel_budget_used <- p.Kproc.kernel_budget_used + elapsed
    | None -> ());
    context_switch t
  end

let process_count t =
  Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

let kill t p =
  let cpu = p.Kproc.cpu in
  p.Kproc.state <- Kproc.Dead;
  t.queues.(cpu) <- List.filter (fun q -> q != p) t.queues.(cpu);
  (match t.currents.(cpu) with
  | Some c when c == p ->
      t.currents.(cpu) <-
        List.find_opt (fun q -> q.Kproc.state <> Kproc.Dead) t.queues.(cpu)
  | Some _ | None -> ());
  (* the machine always runs something; killing the last process hands
     the CPU to a fresh idle/init task *)
  if process_count t = 0 then ignore (spawn ~cpu t ~name:"init")

(* --- SMP time accounting ---------------------------------------------- *)

(* Run [f] as a slice of CPU [cpu]'s work: the global-clock delta it
   produces is wall time consumed by that CPU, credited to its local
   clock.  Nests; the inner slice's time is credited to the inner CPU
   (and, deliberately, also elapses on the outer one, like a remote
   helper executing synchronously). *)
let end_slice t ~cpu ~prev_cpu ~prev_base =
  let base = t.chunk_base in
  if base >= 0 then
    t.cpu_clock.(cpu) <- t.cpu_clock.(cpu) + (Sim_clock.now t.clock - base);
  t.active_cpu <- prev_cpu;
  t.chunk_base <- prev_base

let run_on t ~cpu f =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg "Scheduler.run_on: cpu";
  let prev_cpu = t.active_cpu and prev_base = t.chunk_base in
  t.active_cpu <- cpu;
  t.chunk_base <- Sim_clock.now t.clock;
  match f () with
  | v ->
      end_slice t ~cpu ~prev_cpu ~prev_base;
      v
  | exception e ->
      end_slice t ~cpu ~prev_cpu ~prev_base;
      raise e

(* Local wall time of the active CPU.  Outside [run_on] (the single-CPU
   fast path) local time is just global time. *)
let local_now t =
  let base = t.chunk_base in
  if base < 0 then Sim_clock.now t.clock
  else t.cpu_clock.(t.active_cpu) + (Sim_clock.now t.clock - base)

let cpu_time t cpu =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg "Scheduler.cpu_time: cpu";
  t.cpu_clock.(cpu)

(* Elapsed time of a parallel run: the busiest CPU's local clock. *)
let makespan t = Array.fold_left max 0 t.cpu_clock

let context_switches t = t.context_switches
let preemptions t = t.preemptions
