(** Rule-driven instrumentation selection — the §3.5 plan, implemented:
    a little pattern language over events, "in the spirit of
    aspect-oriented programming" ("instrument every operation on an
    inode's reference count").

    Rule syntax:
    {v
      kinds [@ file-prefix] [obj=N] [value<N | value>N]
    v}
    where [kinds] is a comma-separated list of event kinds — any name
    {!Ksim.Instrument.pp_kind} prints, built-in or declared with
    {!Ksim.Instrument.custom} — or [*].  Examples:
    {v
      ref-inc,ref-dec @ memfs      every refcount op in memfs code
      lock,unlock obj=3            one particular lock
      * value<0                    anything whose value went negative
      kfault-inject @ kfault:net   injected network faults
    v} *)

type t

exception Bad_rule of string

(** Parse a rule.  @raise Bad_rule on syntax errors. *)
val parse : string -> t

val matches : t -> Ksim.Instrument.event -> bool

(** Parse a rule into a predicate.  @raise Bad_rule on syntax errors. *)
val compile : string -> Ksim.Instrument.event -> bool

(** Attach a rule to a dispatcher: only matching events reach [sink]. *)
val subscribe :
  Dispatcher.t ->
  rule:string ->
  name:string ->
  (Ksim.Instrument.event -> unit) ->
  unit

val pp : Format.formatter -> t -> unit
