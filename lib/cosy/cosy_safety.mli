(** Safety mechanisms for running user code in the kernel (§2.3–2.4):
    the preemption-based watchdog, segment-based memory protection in the
    paper's two flavours, and the authentication heuristic that drops
    checks after enough safe runs. *)

type protection_mode =
  | Isolated_segment  (** code+data in an isolated segment: maximum
                          security, a segment reload on every call *)
  | Data_segment      (** only data isolated: "no additional runtime
                          overhead while calling such a function" *)
  | Trusted           (** no segmentation (post-authentication) *)

val pp_mode : Format.formatter -> protection_mode -> unit

type policy = {
  mode : protection_mode;
  watchdog_budget : int;     (** max continuous kernel cycles *)
  trust_after : int option;  (** authenticate after N safe runs *)
}

(** Data-segment mode with the cost model's kernel-time budget. *)
val default_policy : Ksim.Cost_model.t -> policy

(** The kernel's watchdog exception ({!Ksim.Kernel.Watchdog_expired}):
    a kill, unwound like a flow-gate kill on every entry path. *)
exception Watchdog_expired of { used : int; budget : int }

type t

(** [fault] wires the kfault engine and registers the
    [cosy.watchdog_early] site: an armed plan makes {!watchdog_check}
    raise {!Watchdog_expired} while still under budget, exercising the
    kill/cleanup path on demand. *)
val create :
  ?fault:Kfault.t ->
  policy:policy ->
  clock:Ksim.Sim_clock.t ->
  cost:Ksim.Cost_model.t ->
  unit ->
  t

(** Start the watchdog window (at compound submit). *)
val arm : t -> unit

(** Called from every loop back-edge — whenever the preemptive kernel
    would get a chance to schedule.  @raise Watchdog_expired past the
    budget. *)
val watchdog_check : t -> unit

(** The mode a user function actually runs under, after the
    authentication heuristic. *)
val effective_mode : t -> string -> protection_mode

val record_safe_run : t -> string -> unit
val safe_runs : t -> string -> int

(** Charge the segment reloads for entering/leaving an isolated user
    function; free in the other modes. *)
val charge_call_overhead : t -> protection_mode -> unit

(** The segment a user function executes under, given its memory region;
    [None] means run unconfined. *)
val segment_for : base:int -> len:int -> protection_mode -> Ksim.Segment.t option

val watchdog_kills : t -> int
val segment_loads : t -> int
