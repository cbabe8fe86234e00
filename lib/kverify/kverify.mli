(** kverify: admission before execution.

    Two complementary static protections behind one subsystem handle:

    - {b Syscall-flow integrity} (after SFIP): a {!Sfi} automaton
      compiled from a recorded {!Ktrace.Syscall_graph} is installed as
      the {!Ksyscall.Systable} gate, so every dispatch — plain, ring,
      compound, or consolidated — pays one table probe to prove the
      transition was seen during recording.  Violations hit the
      configured {!policy}.
    - {b Static admission} ({!Checker}): compounds and ring batches that
      verify before execution run on the watchdog-elided fast path;
      anything unprovable falls back bit-for-bit.

    Observability: [kverify.checked] / [kverify.violations] /
    [kverify.watchdog_elided] kstats, a kperf instant per violation, and
    an ["sfi-violation"] event on the kmonitor stream ([obj] = attempted
    sysno, [value] = previous sysno or -1). *)

module Sfi = Sfi
module Checker = Checker

(** Alias of {!Ksyscall.Usyscall.Flow_violation}: raised out of the
    dispatch paths when the gate kills the offender. *)
exception Flow_violation of { pid : int; sysno : Ksyscall.Sysno.t }

(** What happens to a syscall whose flow transition was never
    recorded. *)
type policy =
  | Kill  (** terminate the offending process (default) *)
  | Deny  (** fail the syscall with [EPERM]; the process survives *)
  | Log   (** count + emit the violation, let the syscall through *)

type t

val create : ?policy:policy -> Ksim.Kernel.t -> t
val policy : t -> policy

(** The automaton to enforce; [None] (the default) allows everything. *)
val set_automaton : t -> Sfi.t option -> unit

val automaton : t -> Sfi.t option

(** Compile an automaton from a recorded trace. *)
val learn : Ktrace.Recorder.t -> Sfi.t

(** Install this instance as the dispatch gate.  With no automaton set
    the gate allows everything and charges nothing, so an installed but
    empty gate leaves cycles, digests and kstats as they were. *)
val install : t -> Ksyscall.Systable.t -> unit

(** {1 Static admission} — every admission pass charges
    [Cost_model.verify_admit_op] per op/request, verified or not, and
    bumps [kverify.watchdog_elided] on success. *)

(** The Cosy admission hook for [Cosy_exec.set_admission], bounded by
    the extension's shared buffer: [Verified] when the compound checks,
    [Dynamic] otherwise. *)
val admit_compound :
  t -> Cosy.Cosy_exec.t -> Cosy.Compound.t -> Cosy.Cosy_exec.admission

(** The kring admission hook for [Kring.set_admission]: a batch that
    checks gets the empty plan (verified pricing, nothing fused, the
    completion copy-out still charged); anything else [None]. *)
val admit_ring : t -> Ksyscall.Syscall.req list -> Kring.plan option

(** One compound admission pass (same charges and counters as
    {!admit_compound}) returning the full {!Checker.verdict}, whose
    [Verified] payload carries the analysis facts (proven counted loops)
    the kopt optimizer compiles against. *)
val compound_verdict :
  t -> shared_size:int -> Cosy.Compound.t -> Checker.verdict

(** {1 Counters} (mirrored in kstats when the registry is enabled) *)

val checked : t -> int

val violations : t -> int

val watchdog_elided : t -> int
