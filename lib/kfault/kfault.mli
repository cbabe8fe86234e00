(** Deterministic fault injection: a registry of named fault sites
    threaded through the hot paths of every subsystem, armed with
    seeded, reproducible {e plans}.

    The engine sits below ksim (its only dependency is kstats):
    subsystems register sites at creation time
    and consult {!fire} at the exact point where the real kernel could
    fail — an exhausted slab, a bad sector, a dropped frame, a signal
    landing mid-syscall.  Disarmed (the default), every such probe is a
    single branch that touches neither the simulated clock nor the
    metrics registry, so a disarmed kernel is bit-for-bit identical to
    one built without kfault at all.

    Armed, the engine is just as deterministic: triggers are pure
    functions of the per-site occurrence counter, a user seed and the
    simulated clock, so two twin systems running the same workload
    under the same plan inject the same faults at the same occurrences
    and finish with identical cycle counts, kstats and digests.
    {!fire} itself never advances the clock; the {e consequences}
    (a retried block transfer, a retransmitted frame, a restarted
    syscall) are charged by the subsystem that recovers, which is what
    makes the engine cycle-accounted rather than cycle-invisible.

    The sweep helpers support FATE-style systematic exploration: run
    once in counting mode ({!arm} with an empty plan) to learn how
    often each site is reached, then run the workload again once per
    (site, occurrence) with a {!One_shot} plan and assert the
    invariants (no uncaught exception, clean errno propagation,
    digests byte-identical or cleanly failed).  [Resilience] in the
    core facade builds that harness; [bin/kfault_tool.exe] drives it. *)

(** Engines created while this is [true] boot enabled (mirrors
    [Kstats.default_enabled] / [Kperf.default_enabled]).  A disabled
    engine never fires, counts nothing, and registers only site
    handles. *)
val default_enabled : bool ref

type t
type site

(** How an armed site decides to fire, as a pure function of the
    per-site occurrence counter (1-based, counted only while armed),
    the plan seed and the simulated clock. *)
type trigger =
  | Every_nth of int  (** fire on occurrences n, 2n, 3n, ... *)
  | Prob of { seed : int; ppm : int }
      (** fire with probability [ppm] parts-per-million, from a
          deterministic per-site stream seeded by [seed] *)
  | Cycle_window of { lo : int; hi : int }
      (** fire on every occurrence with [lo <= now < hi] *)
  | One_shot of int  (** fire exactly once, at occurrence k (1-based) *)

type plan = { site : string; trigger : trigger }

(** [now] is the simulated clock (defaults to a constant, suitable for
    standalone tests); the kernel wires [Sim_clock.now].  Per-site and
    aggregate fire counters register into [stats].  [on_fire] runs with
    the site name and the occurrence index on every fire; the kernel
    wires it to a kperf instant (cat ["kfault"]) and a ["kfault-inject"]
    instrument event. *)
val create :
  ?enabled:bool ->
  ?stats:Kstats.t ->
  ?now:(unit -> int) ->
  ?on_fire:(name:string -> occurrence:int -> unit) ->
  unit ->
  t

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

(** {1 Sites} *)

(** Registering the same name twice returns the same handle (kernels
    may stack several filesystems over one engine). *)
val register : t -> string -> site

val site_name : site -> string

(** Registered site names, in registration order. *)
val site_names : t -> string list

val find_site : t -> string -> site option

(** {1 Arming} *)

(** Install a plan and reset all occurrence/fire counters.  An empty
    plan list is {e counting mode}: every probe counts an occurrence
    but nothing fires — used by the sweep to learn site reach.  A plan
    may name a site that has not been registered yet: the site picks
    the plan up when its subsystem registers it (rings and Cosy
    extensions are created mid-run, after arming).  With [strict]
    (default), a plan whose site is unknown {e at arm time} raises
    [Failure]; [~strict:false] defers or skips it (the form harnesses
    use when arming before the workload builds its subsystems).
    @raise Failure on unknown site names when [strict]. *)
val arm : ?strict:bool -> t -> plan list -> unit

(** Back to zero-impact: probes stop counting; counters keep their
    values for reading. *)
val disarm : t -> unit

val is_armed : t -> bool

(** {1 The hot-path probe} *)

(** [fire t s] is consulted at the fault site: [false] when disarmed
    (one branch, nothing touched), otherwise counts an occurrence and
    evaluates the site's trigger.  On fire it bumps [kfault.fires] and
    the per-site counter and calls [on_fire].
    Never advances the simulated clock. *)
val fire : t -> site -> bool

(** {1 Reading} *)

val occurrences : t -> site -> int
val fires : t -> site -> int

(** (name, occurrences, fires) per registered site, registration
    order. *)
val counts : t -> (string * int * int) list

(** {1 Plan specs}

    The textual form used by [kfault_tool] and the bench driver:
    [SITE=nth:N], [SITE=prob:PPM:SEED], [SITE=window:LO:HI],
    [SITE=once:K], and [SITE=at:C] (fire at the first probe at or after
    cycle [C] — the crash_at trigger, an open-ended window). *)

val trigger_of_string : string -> (trigger, string) result
val plan_of_spec : string -> (plan, string) result
val pp_trigger : Format.formatter -> trigger -> unit
val pp_plan : Format.formatter -> plan -> unit

(** {1 Sweep helpers} *)

(** [sweep_points ?max_per_site counts] turns counting-mode results
    (name, occurrences) into the (site, occurrence) list to explore:
    every occurrence of every reached site, or — capped — an evenly
    spaced sample of [max_per_site] occurrences per site. *)
val sweep_points :
  ?max_per_site:int -> (string * int) list -> (string * int) list
