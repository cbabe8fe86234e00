(** Periodic kstats snapshots pushed into the event stream.

    Each snapshot emits one ["kstats-snapshot"] event per registered
    metric (see DESIGN.md's event-kind table), so the whole registry flows through the same
    log_event -> dispatcher -> ring path as lock and refcount events and
    user space can reconstruct metric time series from the ring alone.

    Events only flow while a {!Dispatcher} is installed (instrumentation
    enabled), exactly like every other event source. *)

type t

(** [create ?interval kernel] — [interval] is the minimum number of
    cycles between {!tick}-driven snapshots (default 1M). *)
val create : ?interval:int -> Ksim.Kernel.t -> t

(** Emit one snapshot of every registered metric right now. *)
val emit : t -> unit

(** Emit a snapshot only if [interval] cycles have passed since the last
    one; call from a timer tick or any polling loop. *)
val tick : t -> unit

(** Snapshots emitted so far. *)
val snapshots : t -> int

(** [decode ev] returns [(metric_name, scalar_value)] when [ev] is a
    snapshot event, [None] otherwise. *)
val decode : Ksim.Instrument.event -> (string * int) option
