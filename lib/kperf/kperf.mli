(** ftrace-style tracing for the simulated kernel: per-CPU bounded trace
    rings, causal spans with parent/child links, and exporters — folded
    stacks for flamegraphs, Chrome [trace_event] JSON loadable in
    Perfetto, and a top-N "where did the cycles go" self-profile.

    The tracer mirrors the kstats contract: disabled by default, every
    hook a single branch when off, and the library itself never touches
    the simulated clock.  The kernel supplies [now]/[cpu]/[charge]
    closures at boot; [charge] models the per-event emit cost
    ([Cost_model.trace_emit]) and only runs while tracing is enabled, so
    untraced runs are bit-for-bit identical to an untraced kernel.

    Synchronous spans follow per-CPU stack discipline (a span begun
    inside another becomes its child); asynchronous spans
    ([async_begin]/[async_end]) outlive any one syscall — a knet request
    in flight — and export as Perfetto async tracks. *)

(** Ring overflow behaviour: [Overwrite] keeps the newest events
    (counting [kperf.ring.overwritten]); [Drop] keeps the oldest
    (counting [kperf.ring.drops]). *)
type mode = Overwrite | Drop

type ev_kind = Begin | End | Instant | Async_begin | Async_end

type event = {
  ev_kind : ev_kind;
  ev_id : int;      (** span id; 0 for instants *)
  ev_parent : int;  (** enclosing span id; 0 at top level *)
  ev_cat : string;
  ev_name : string;
  ev_ts : int;      (** simulated cycles *)
  ev_cpu : int;
  ev_pid : int;
  ev_arg : int;     (** numeric payload: spin cycles, batch size, port… *)
  ev_seq : int;     (** global emit order, 1-based *)
}

type t

(** [now]/[cpu]/[charge] default to constants suitable for standalone
    use (tests); the kernel wires its clock, scheduler and cost model.
    [ring_capacity] is per CPU; a CPU's ring is allocated on the first
    event it stores, so a tracer that records nothing holds no ring
    storage.  Counters register into [stats]. *)
val create :
  ?enabled:bool ->
  ?mode:mode ->
  ?ring_capacity:int ->
  ?ncpus:int ->
  ?stats:Kstats.t ->
  ?now:(unit -> int) ->
  ?cpu:(unit -> int) ->
  ?charge:(unit -> unit) ->
  unit ->
  t

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

(** Mirror hook: called with every emitted event while enabled (the
    Kmonitor bridge installs itself here). *)
val set_sink : t -> (event -> unit) option -> unit

val ncpus : t -> int
val mode : t -> mode

(** Events rejected in [Drop] mode. *)
val drops : t -> int

(** Events displaced in [Overwrite] mode. *)
val overwritten : t -> int

(** Total events emitted (including dropped/overwritten ones). *)
val emitted : t -> int

(** Forget all events and open spans; ids and sequence restart. *)
val clear : t -> unit

(** {1 Emit hooks} — single branch, no-ops returning 0 when disabled. *)

(** Open a span as a child of the active CPU's current span; returns its
    id (0 when disabled — [span_end] ignores 0).  [pid] and [arg] are
    required (0 when there is nothing to name), so a call on a hot path
    boxes no option. *)
val span_begin : t -> pid:int -> arg:int -> cat:string -> name:string -> int

val span_end : t -> pid:int -> arg:int -> int -> unit

(** A point event, parented to the current span.  [pid] and [arg] are
    required for the same reason as {!span_begin}'s. *)
val instant : t -> pid:int -> arg:int -> cat:string -> name:string -> unit

(** Open an asynchronous span (not part of any CPU stack). *)
val async_begin : t -> pid:int -> arg:int -> cat:string -> name:string -> int

val async_end : t -> pid:int -> arg:int -> int -> unit

(** Innermost open span on the active CPU (0 when none / disabled). *)
val current_span : t -> int

(** {1 Reading} *)

(** All retained events in emit order (ring overflow already applied). *)
val events : t -> event list

(** {1 Exporters} — all deterministic for a fixed event sequence. *)

(** Folded stacks: one ["cat:name;…;cat:name self_cycles"] line per
    distinct stack, sorted; feed to flamegraph.pl or speedscope. *)
val folded : t -> string

val fold_events : event list -> string

type profile_row = {
  p_label : string;
  p_count : int;
  p_total : int;  (** inclusive cycles *)
  p_self : int;   (** exclusive cycles *)
  p_share : float;
      (** [p_self] as a fraction of all self cycles in the trace,
          computed before top-N truncation *)
}

(** Top [n] spans by exclusive (self) cycles. *)
val top : ?n:int -> t -> profile_row list

val top_of_events : ?n:int -> event list -> profile_row list
val pp_top : Format.formatter -> profile_row list -> unit

(** Chrome [trace_event] JSON, loadable in Perfetto / chrome://tracing:
    one thread per simulated CPU for sync spans, id-keyed async tracks,
    timestamps in raw simulated cycles. *)
val chrome_json : t -> string

val chrome_of_events : ncpus:int -> event list -> string

(** Parse {!chrome_json} output back into events (metadata records are
    skipped; [ev_seq] reassigned from array order).
    @raise Json.Parse_error on malformed input. *)
val events_of_chrome : string -> event list

(** Minimal hand-rolled JSON parser (no external JSON dependency is
    available): objects, arrays, strings with escapes, numbers, [true],
    [false], [null].  Also used by [kstats_tool diff] to read
    [BENCH_kstats.json]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse : string -> t
  val member : string -> t -> t option
  val to_int : t -> int
  val to_float : t -> float
  val to_string : t -> string
  val to_list : t -> t list
end
