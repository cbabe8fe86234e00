(** io_uring-style batched syscall submission (after AnyCall): typed
    {!Ksyscall.Syscall.req}s are marshalled into a submission queue
    backed by the Cosy shared buffer, one [sys_ring_enter] crossing
    drains the queue in kernel mode through the ordinary service
    routines under the Cosy preemption watchdog, and replies are reaped
    from the completion queue without a crossing.

    A batch of N costs the one-time setup crossing plus one crossing
    per [enter], one copy-in of the packed requests and one copy-out of
    the packed replies — versus N crossings and N copy round-trips for
    the synchronous dispatcher. *)

(** One completed operation. *)
type completion = {
  seq : int;    (** submission order, ring-wide *)
  sysno : Ksyscall.Sysno.t;
  reply : Ksyscall.Syscall.reply;
}

type t

(** [create sys] maps the rings: one boundary crossing (the
    [sys_ring_setup] analogue), after which submission and reaping are
    crossing-free.  [sq_entries] bounds the submission queue (default
    64), [cq_entries] the completion queue (default [2 * sq_entries]),
    [shared_size] the SQ backing store, [policy] the watchdog applied
    while draining (defaults to the Cosy default policy). *)
val create :
  ?sq_entries:int ->
  ?cq_entries:int ->
  ?shared_size:int ->
  ?policy:Cosy.Cosy_safety.policy ->
  Ksyscall.Systable.t ->
  t

(** Queue one request without crossing, encoded where its entry lies in
    the shared region; [Error `Sq_full] is the
    backpressure signal (entry cap or backing store exhausted) — drain
    with {!enter} and retry.  Returns the completion sequence number. *)
val push : t -> Ksyscall.Syscall.req -> (int, [ `Sq_full ]) result

(** Drain the submission queue in one crossing; returns the number of
    completions produced (0 if the SQ was empty — no crossing then).
    Stops early if the CQ fills.  Runs in the shared kernel stay
    ({!Ksyscall.Usyscall.stay}), so every kill — watchdog
    (["ring-watchdog"]), flow gate, memory fault (["ring-fault"],
    surfacing as [Ksim.Kernel.Oops] when contained) — kills the offender
    before it escapes; completions already produced survive unless the
    reap discards them. *)
val enter : t -> int

(** Reap the oldest completion (user mode, no crossing). *)
val reap : t -> completion option

(** Reap everything currently in the CQ, oldest first. *)
val reap_all : t -> completion list

(** Push all requests (draining whenever the SQ fills), [enter], and
    reap: completions for every request, in submission order. *)
val run_batch : t -> Ksyscall.Syscall.req list -> completion list

(** What admission decided about an accepted batch.  Every admitted
    batch drains on the cheap parse-in-place path: no per-entry
    copy_from_user, [ring_verified_op] instead of a decode, watchdog
    elided (preemption checkpoints still run).  The empty plan
    [{ fuse_next = [||]; coalesce_cq = false }] asks for nothing more —
    plain verified admission. *)
type plan = {
  fuse_next : bool array;
      (** [fuse_next.(i)]: batch position [i] starts a splice-style pair
          (recv→send on one socket) — both entries drain under a single
          [kopt_fused_op] dispatch charge instead of two
          [ring_verified_op]s.  Replies, completions, and per-request
          trace records are unchanged. *)
  coalesce_cq : bool;
      (** treat the completion region as shared-mapped: elide the
          batch-end reply copy-out; saved bytes land in
          [ring.opt.cq_bytes_saved] instead of the copy counters. *)
}

(** Install/remove the admission hook.  {!enter} decodes the queued
    requests and hands them to the hook before executing any of them;
    the hook charges its own admission costs.  [Some plan] admits the
    batch under that {!plan}, and the batch then dispatches exactly the
    requests the hook judged — no second decode, so bytes changed in the
    shared region after the check do not change what runs.  [None] — or
    a batch that fails to decode — falls back to today's watchdog path
    bit-for-bit, decoding each entry as it dispatches.  [None] as the
    hook (the default) disables admission entirely. *)
val set_admission :
  t -> (Ksyscall.Syscall.req list -> plan option) option -> unit

(** Batches admitted on the watchdog-elided path so far. *)
val watchdog_elisions : t -> int

(** Fused recv→send pairs drained so far. *)
val fused_pairs : t -> int

(** Reply bytes whose copy-out was elided by CQ coalescing. *)
val cq_bytes_saved : t -> int

val sq_depth : t -> int
val cq_depth : t -> int

(** Crash containment: drop everything still queued in both rings (a
    dying process's in-flight batch state); returns the number of
    entries discarded.  Host-level bookkeeping only — no cycles. *)
val discard_pending : t -> int
val sq_entries : t -> int
val cq_entries : t -> int
val shared : t -> Cosy.Shared_buffer.t
