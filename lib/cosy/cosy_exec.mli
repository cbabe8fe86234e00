(** The Cosy kernel extension (§2.3).

    [submit] crosses the boundary once, decodes the compound (charging
    per-op decode cost), and executes the operations in kernel mode.
    One op loop runs every {!admission} outcome, compiled plans
    included.
    Syscall ops dispatch to the same in-kernel service routines ordinary
    syscalls use, so every permission check still runs — only crossings
    and copies disappear.  Loop back-edges hit the scheduler's preemption
    checkpoint and the watchdog; [Call_user] ops run mini-C functions
    under the active {!Cosy_safety} protection mode. *)

exception Exec_error of string

type t

(** [create ?shared_size ?policy ?user_program sys] builds an extension
    bound to [sys].  [user_program] is mini-C source providing the
    functions [Call_user] ops may invoke. *)
val create :
  ?shared_size:int ->
  ?policy:Cosy_safety.policy ->
  ?user_program:string ->
  Ksyscall.Systable.t ->
  t

(** The zero-copy shared buffer (visible to both "sides"). *)
val shared : t -> Shared_buffer.t

val safety : t -> Cosy_safety.t

(** What admission decided about one submitted compound.  Every
    outcome runs in the same op loop and counts ops (a rewritten pair
    as two) and back-edges as they execute, so a kill mid-compound
    leaves the same counts on every path. *)
type admission =
  | Dynamic
      (** not admitted: run under the back-edge watchdog on the full
          [cosy_exec_op] cost *)
  | Verified
      (** statically verified: run on the cheaper [cosy_exec_op_verified]
          cost with the back-edge watchdog elided (its loops were proven
          bounded — the preemption checkpoint still runs) *)
  | Compiled of Cosy_plan.t
      (** admitted and compiled (or found in a compiled-program cache):
          the plan's ops run without a decode, after a
          [n_loops * kopt_loop_hoist] preamble, at [kopt_exec_op] (or
          [kopt_exec_op_hoisted] for a non-syscall op in a proven
          counted loop); its rewrites run coalesced and fused pairs
          (one gate verdict per original op, in order) and resolve fd
          operands through a per-execution cache that [close] evicts.
          The watchdog is elided as for [Verified]. *)

(** Install/remove the admission hook.  [submit] calls it once per
    compound, inside the kernel stay after the safety watchdog is armed;
    the hook charges its own admission (and compile) costs.  [None] (the
    default) disables admission entirely: every compound runs
    [Dynamic]. *)
val set_admission : t -> (Compound.t -> admission) option -> unit

(** Compounds admitted on the watchdog-elided path so far. *)
val watchdog_elisions : t -> int

(** Execute a compound in the shared kernel stay
    ({!Ksyscall.Usyscall.stay}); returns the final register file.  Every
    kill is contained as on the other entry paths, the offender killed
    before the exception escapes.
    @raise Exec_error on malformed compounds,
    @raise Cosy_safety.Watchdog_expired past the kernel-time budget
    (["cosy-watchdog"]),
    @raise Ksyscall.Usyscall.Flow_violation on a flow-gate kill,
    @raise Ksim.Kernel.Oops on a contained memory fault — a Kefence hit
    in a syscall op or a user function escaping its segment
    (["cosy-fault"]); without a reaper the raw [Ksim.Fault.Fault]
    escapes.  Kernel mode is always exited before raising. *)
val submit : t -> Compound.t -> int array

type stats = {
  submits : int;
  ops_executed : int;
  backedges : int;
  user_calls : int;
  watchdog_kills : int;
  segment_loads : int;
  fd_resolved : int;  (** distinct fd resolutions charged under plans *)
  fd_reused : int;    (** fd uses a plan's resolution cache answered *)
}

val stats : t -> stats
