(** Static admission checker for compounds and ring batches.

    Verifies, before execution, that a program cannot misbehave on
    shape: opcodes decode, syscall operands match their kinds in
    {!Cosy.Cosy_op.syscalls}, shared-buffer references stay in bounds,
    and every loop back-edge follows the provably-bounded counted-loop
    idiom Cosy-GCC emits.  A [Verified] program runs with the dynamic watchdog elided;
    a [Rejected] one falls back bit-for-bit to the dynamic path. *)

(** One proven counted loop (op indices inclusive; the body is
    [ops.(l_head) .. ops.(l_back)]).  These are the analysis facts the
    kopt optimizer consumes to hoist per-iteration bounds/shape checks
    out of the body, which the back-edge proof makes sound. *)
type loop = {
  l_head : int;     (** loop head: target of the back-edge *)
  l_guard : int;    (** the guard [Jz] with the forward exit *)
  l_back : int;     (** the back-edge jump itself *)
  l_counter : int;  (** the monotone counter slot *)
}

type verdict =
  | Verified of { ops : int; loops : loop list }
      (** statically checked ops/requests + proven counted loops *)
  | Rejected of string         (** why the analysis could not prove it *)

val is_verified : verdict -> bool

(** Verify an encoded Cosy compound against the shared buffer it will
    run over ([shared_size] bytes). *)
val verify_compound : shared_size:int -> Cosy.Compound.t -> verdict

(** Verify a decoded kring batch.  Batches are straight-line, so this is
    per-request descriptor shape checking. *)
val verify_reqs : Ksyscall.Syscall.req list -> verdict
