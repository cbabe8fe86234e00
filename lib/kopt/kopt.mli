(** kopt: optimizing admitted programs.

    An optimization pass that runs after {!Kverify} admits a Cosy
    compound or kring batch, compiling it into a specialized program.
    kopt keeps only the compiler ({!Plan}) and the cache: a compiled
    compound is a {!Cosy.Cosy_plan.t} that {!Cosy.Cosy_exec}'s one op
    loop runs, and a batch plan is a {!Kring.plan}.  The rewrites:

    - {b fd-resolution caching}: each distinct descriptor value is
      resolved (and charged) once per execution; [close] evicts.
    - {b copy coalescing}: adjacent transfers on contiguous
      shared-buffer ranges become single bulk copies.
    - {b op fusion}: read→write (compound) and recv→send (ring) pairs
      dispatch splice-style under one charge.
    - {b loop-invariant hoisting}: ops inside counted loops the checker
      proved bounded run at the hoisted per-op rate, after a one-time
      per-loop preamble charge.

    Compiled programs land in a per-process cache keyed by a structural
    hash of the compound's wire bytes ([kopt.cache.hits] /
    [kopt.cache.misses] / [kopt.cache.compiles] kstats); repeat
    submissions skip decode, admission, and compilation entirely.

    Invariant: optimized execution is observably identical to the
    interpreter — same results, shared-buffer contents, errno sequences
    and fd-table end state — only cycle/crossing/copy accounting may
    improve.  Anything the checker rejects falls back to the dynamic
    path bit-for-bit. *)

module Plan = Plan

type t

(** [create kv sys] builds an optimizer bound to the kernel behind
    [sys], running admission through [kv].  Its compiled-program cache
    holds 64 programs, with FIFO eviction. *)
val create : Kverify.t -> Ksyscall.Systable.t -> t

(** The Cosy admission hook for [Cosy_exec.set_admission], in place of
    [Kverify.admit_compound]: the optimizer runs admission itself with
    identical charges, so installing both would charge it twice.  An
    admitted compound comes back [Compiled] (from the cache or freshly
    compiled); a rejected one [Dynamic]. *)
val admit_compound :
  t -> Cosy.Cosy_exec.t -> Cosy.Compound.t -> Cosy.Cosy_exec.admission

(** The kring admission hook for [Kring.set_admission], in place of
    [Kverify.admit_ring]: admission (with identical charges) plus a
    batch plan that fuses adjacent same-socket recv→send pairs and
    coalesces the completion-region copy-out away, or [None] if the
    batch did not verify. *)
val ring_plan : t -> Ksyscall.Syscall.req list -> Kring.plan option

(** Probe the cache / admit / compile one compound.  Charges
    [kopt_cache_probe] always, admission + [kopt_compile_op] per op on a
    miss that verifies.  [None] means the compound was rejected — the
    caller should fall back to the dynamic path.  Exposed for tests and
    tools; {!admit_compound} wires it into submit. *)
val try_plan : t -> shared_size:int -> Cosy.Compound.t -> Plan.t option

(** {1 Counters} (cache counters mirrored in kstats) *)

val hits : t -> int

val misses : t -> int

val compiles : t -> int

val cache_size : t -> int
