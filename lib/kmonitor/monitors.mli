(** In-kernel on-line monitors (§3.3/§3.5): verify higher-level kernel
    invariants from the event stream — "spinlocks that are locked are
    later unlocked, reference counters are incremented and decremented
    symmetrically, interrupts that are disabled are later re-enabled". *)

type violation = {
  what : string;
  obj : int;
  file : string;
  line : int;
  time_seen : int;  (** event ordinal when flagged *)
}

val pp_violation : Format.formatter -> violation -> unit

(** {2 Reference counters} *)

type refcount_monitor = {
  rc_state : (int, int) Hashtbl.t;  (** obj -> last observed count *)
  mutable rc_events : int;
  mutable rc_violations : violation list;
}

val refcount_monitor : unit -> refcount_monitor
val refcount_callback : refcount_monitor -> Ksim.Instrument.event -> unit

(** Objects whose count never returned to [resting]: leak candidates. *)
val refcount_leaks : refcount_monitor -> resting:int -> (int * int) list

(** {2 Spinlocks} *)

type spinlock_monitor = {
  sl_held : (int, string * int) Hashtbl.t;  (** obj -> acquire site *)
  mutable sl_events : int;
  mutable sl_acquisitions : int;
  mutable sl_violations : violation list;
}

val spinlock_monitor : unit -> spinlock_monitor
val spinlock_callback : spinlock_monitor -> Ksim.Instrument.event -> unit
val spinlocks_still_held : spinlock_monitor -> (int * (string * int)) list

(** {2 Lock contention}

    Not an invariant check but the paper's performance-monitoring use of
    the same event stream: count [Contended] events (whose value carries
    the spin cycles charged) per lock to find the hot ones. *)

type contention_monitor = {
  cn_state : (int, int * int) Hashtbl.t;
      (** obj -> (contended acquisitions, spin cycles) *)
  mutable cn_events : int;
  mutable cn_spin_cycles : int;
}

val contention_monitor : unit -> contention_monitor
val contention_callback : contention_monitor -> Ksim.Instrument.event -> unit

(** Locks by contended-acquisition count, hottest first:
    [(obj, contended, spin cycles)]. *)
val hottest_locks : contention_monitor -> (int * int * int) list

(** {2 Network backpressure}

    Watches knet's ["net-backlog-drop"] events: the event's obj is the
    listening port, its value the listener's running drop count. *)

type net_monitor = {
  nm_state : (int, int) Hashtbl.t;  (** port -> drops observed *)
  mutable nm_events : int;
}

val net_monitor : unit -> net_monitor
val net_callback : net_monitor -> Ksim.Instrument.event -> unit

(** Listening ports by observed drop count, hottest first. *)
val hottest_listeners : net_monitor -> (int * int) list

(** {2 Interrupt balance} *)

type irq_monitor = {
  mutable irq_depth : int;
  mutable irq_events : int;
  mutable irq_violations : violation list;
}

val irq_monitor : unit -> irq_monitor
val irq_callback : irq_monitor -> Ksim.Instrument.event -> unit

(** {2 Bundles} *)

type standard = {
  refcounts : refcount_monitor;
  spinlocks : spinlock_monitor;
  irqs : irq_monitor;
  contention : contention_monitor;
  net : net_monitor;
}

(** Register the standard monitors on a dispatcher. *)
val register_standard : Dispatcher.t -> standard

val all_violations : standard -> violation list
