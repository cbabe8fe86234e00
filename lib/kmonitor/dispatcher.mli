(** The event dispatcher of the paper's Figure 1: [log_event] invokes a
    set of callbacks.

    In-kernel on-line monitors register synchronous callbacks; the
    ring-buffer feed for user-space consumers is enabled separately.
    {!install} wires the dispatcher into the kernel's instrumentation
    indirection so spinlocks, refcounts and interrupt toggles flow in. *)

type callback = Ksim.Instrument.event -> unit

type t

val create : ?ring_capacity:int -> Ksim.Kernel.t -> t

(** The ring feeding user space (read via {!Chardev}). *)
val ring : t -> Ksim.Instrument.event Ring.t

(** The log_event entry point: charges dispatch cost, runs callbacks,
    pushes to the ring when enabled. *)
val log_event : t -> Ksim.Instrument.event -> unit

(** Point [Ksim.Instrument.log] at this dispatcher. *)
val install : t -> unit

val uninstall : t -> unit

(** Register a synchronous in-kernel callback (invoked on every event). *)
val register : t -> name:string -> callback -> unit

val unregister : t -> name:string -> unit
val enable_ring : t -> unit

(** Events seen since creation. *)
val events : t -> int
