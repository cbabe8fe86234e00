(** Virtual cycle counter.

    All simulated costs are charged here, so every experiment is
    deterministic and independent of host speed.  Reports can convert
    cycles to wall-clock seconds under the nominal 1.7 GHz rate of the
    paper's P4 testbed. *)

type t

(** A fresh clock at cycle 0. *)
val create : unit -> t

(** Current cycle count. *)
val now : t -> int

(** Advance by [n] cycles.  @raise Invalid_argument if [n] is negative. *)
val advance : t -> int -> unit

(** Reset to cycle 0. *)
val reset : t -> unit

(** Convert a cycle count to seconds at the nominal 1.7 GHz rate. *)
val cycles_to_seconds : int -> float

val pp : Format.formatter -> t -> unit
