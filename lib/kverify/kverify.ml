(* The kverify facade: admission before execution.

   One [t] per kernel bundles the two halves of the subsystem — the
   syscall-flow-integrity gate (a {!Sfi} automaton consulted at the
   [Usyscall.verdict] choke point) and the static {!Checker} that admits
   compounds and ring batches onto the watchdog-elided fast path.  All
   observability flows through the kernel's existing rails: kstats
   counters, kperf instants, and a ["sfi-violation"] instrument event
   for the kmonitor stream. *)

module Sysno = Ksyscall.Sysno
module Systable = Ksyscall.Systable
module Kernel = Ksim.Kernel

module Sfi = Sfi
module Checker = Checker

(* Re-exported so callers can catch the gate's kill without naming
   ksyscall internals. *)
exception Flow_violation = Ksyscall.Usyscall.Flow_violation

type policy =
  | Kill  (** terminate the offending process (default) *)
  | Deny  (** fail the syscall with [EPERM], process survives *)
  | Log   (** record the violation and let the syscall through *)

let sfi_violation = Ksim.Instrument.custom "sfi-violation"

type t = {
  kernel : Kernel.t;
  policy : policy;
  mutable automaton : Sfi.t option;
  last : (int, Sysno.t) Hashtbl.t;  (* pid -> last admitted sysno *)
  (* kstats handles (no-ops when the registry is disabled)... *)
  s_checked : Kstats.counter;
  s_violations : Kstats.counter;
  s_elided : Kstats.counter;
  (* ...and unconditional counts, so accessors work either way *)
  mutable n_checked : int;
  mutable n_violations : int;
  mutable n_elided : int;
}

let create ?(policy = Kill) kernel =
  let stats = Kernel.stats kernel in
  {
    kernel;
    policy;
    automaton = None;
    last = Hashtbl.create 64;
    s_checked = Kstats.counter stats "kverify.checked";
    s_violations = Kstats.counter stats "kverify.violations";
    s_elided = Kstats.counter stats "kverify.watchdog_elided";
    n_checked = 0;
    n_violations = 0;
    n_elided = 0;
  }

let policy t = t.policy
let automaton t = t.automaton
let set_automaton t a = t.automaton <- a
let checked t = t.n_checked
let violations t = t.n_violations
let watchdog_elided t = t.n_elided

(* --- the SFI gate ------------------------------------------------------- *)

let violation t ~pid ~prev sysno =
  t.n_violations <- t.n_violations + 1;
  Kstats.incr (Kernel.stats t.kernel) t.s_violations;
  Kperf.instant (Kernel.perf t.kernel) ~pid ~arg:(Sysno.to_int sysno)
    ~cat:"kverify" ~name:"sfi-violation" ();
  Ksim.Instrument.emit ~pid ~obj:(Sysno.to_int sysno)
    ~value:(match prev with Some p -> Sysno.to_int p | None -> -1)
    ~kind:sfi_violation ~file:__FILE__ ~line:__LINE__ ();
  match t.policy with
  | Kill ->
      (* the process dies; drop its flow state so a reused pid starts
         fresh *)
      Hashtbl.remove t.last pid;
      Systable.Gate_kill
  | Deny ->
      (* the denied syscall never happened: flow state unchanged *)
      Systable.Gate_deny Kvfs.Vtypes.EPERM
  | Log ->
      (* observe-only: advance state so one stray transition doesn't
         cascade into flagging every subsequent (legitimate) pair *)
      Hashtbl.replace t.last pid sysno;
      Systable.Gate_allow

let gate t : Systable.gate =
 fun ~pid ~sysno ->
  match t.automaton with
  | None -> Systable.Gate_allow
  | Some a ->
      Ksim.Sim_clock.advance (Kernel.clock t.kernel)
        (Kernel.cost t.kernel).Ksim.Cost_model.sfi_check;
      t.n_checked <- t.n_checked + 1;
      Kstats.incr (Kernel.stats t.kernel) t.s_checked;
      let prev = Hashtbl.find_opt t.last pid in
      if Sfi.permits a ~prev sysno then begin
        Hashtbl.replace t.last pid sysno;
        Systable.Gate_allow
      end
      else violation t ~pid ~prev sysno

let install t sys = Systable.set_gate sys (gate t)
let uninstall _t sys = Systable.clear_gate sys

(* --- static admission ----------------------------------------------------- *)

let admitted t ~ops =
  Ksim.Sim_clock.advance (Kernel.clock t.kernel)
    (ops * (Kernel.cost t.kernel).Ksim.Cost_model.verify_admit_op);
  t.n_elided <- t.n_elided + 1;
  Kstats.incr (Kernel.stats t.kernel) t.s_elided

(* One admission pass costs [verify_admit_op] per op — charged whether or
   not the program verifies (the checker read every op either way).  The
   verdict form returns the checker's analysis facts, which kopt needs
   to compile the admitted program; the admission hooks below are what
   plain (non-optimizing) admission installs. *)
let compound_verdict t ~shared_size compound =
  match Checker.verify_compound ~shared_size compound with
  | Checker.Verified { ops; _ } as v ->
      admitted t ~ops;
      v
  | Checker.Rejected _ as v ->
      Ksim.Sim_clock.advance (Kernel.clock t.kernel)
        (compound.Cosy.Compound.op_count
        * (Kernel.cost t.kernel).Ksim.Cost_model.verify_admit_op);
      v

let admit_compound t cx =
  let shared_size = Cosy.Shared_buffer.size (Cosy.Cosy_exec.shared cx) in
  fun compound ->
    if Checker.is_verified (compound_verdict t ~shared_size compound) then
      Cosy.Cosy_exec.Verified
    else Cosy.Cosy_exec.Dynamic

(* Plain ring admission is the empty plan: verified pricing, nothing
   fused, the completion copy-out still charged. *)
let admit_ring t reqs =
  match Checker.verify_reqs reqs with
  | Checker.Verified { ops; _ } ->
      admitted t ~ops;
      Some { Kring.fuse_next = [||]; coalesce_cq = false }
  | Checker.Rejected _ ->
      Ksim.Sim_clock.advance (Kernel.clock t.kernel)
        (List.length reqs
        * (Kernel.cost t.kernel).Ksim.Cost_model.verify_admit_op);
      None

(* --- learning ----------------------------------------------------------- *)

let learn recorder = Sfi.of_graph (Ktrace.Syscall_graph.of_recorder recorder)
