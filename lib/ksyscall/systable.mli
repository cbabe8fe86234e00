(** The system: a kernel plus a VFS plus syscall bookkeeping.

    User wrappers ({!Usyscall}) cross the boundary and call the in-kernel
    service routines ({!Sys_file}); the Cosy kernel extension calls the
    service routines directly, skipping the crossing — which is the
    entire point of the paper's §2. *)

(** One syscall's trace record, as delivered to an attached tracer. *)
type trace_record = {
  pid : int;
  sysno : Sysno.t;    (** which syscall ({!Sysno.to_string} for display) *)
  arg : string;       (** human-readable principal argument *)
  bytes_in : int;     (** user -> kernel copy volume *)
  bytes_out : int;    (** kernel -> user copy volume *)
  ok : bool;
  timestamp : int;    (** virtual cycles at completion *)
}

type t

val create :
  ?root_fs:Kvfs.Vtypes.ops -> ?dcache_shards:int -> Ksim.Kernel.t -> t

val kernel : t -> Ksim.Kernel.t
val vfs : t -> Kvfs.Vfs.t

(** Boundary fault sites ([syscall.eintr], [syscall.eagain]) consulted
    by [Usyscall.invoke], the plain dispatch path, plus the retry
    counters its restart logic feeds. *)
val fault : t -> Kfault.t

val eintr_site : t -> Kfault.site
val count_eintr_restart : t -> unit

(** Consecutive injections either boundary fault may make before the
    call goes through: EINTR restarts give up with [EINTR] after this
    many, and {!inject_eagain} lets the next call pass unprobed. *)
val restart_budget : int

(** Probe [syscall.eagain]; [true] means answer this recv/accept with a
    spurious [EAGAIN] (counted in [retry.eagain_injected]). *)
val inject_eagain : t -> bool

(** The simulated socket stack booted alongside the VFS. *)
val net : t -> Knet.t

(** Install/remove the (single) tracer. *)
val set_tracer : t -> (trace_record -> unit) -> unit

val clear_tracer : t -> unit

(** What the dispatch-admission gate decided about one syscall.
    [Gate_kill] obliges the dispatcher to terminate the offending
    process exactly like a watchdog expiry. *)
type gate_decision =
  | Gate_allow
  | Gate_deny of Kvfs.Vtypes.errno
  | Gate_kill

type gate = pid:int -> sysno:Sysno.t -> gate_decision

(** Install/remove the (single) dispatch-admission gate
    ([Usyscall.verdict] consults it for every request, whatever the entry
    path).  Kverify's
    syscall-flow automaton installs itself here; with no gate installed
    the check is one [None] branch and zero cycles. *)
val set_gate : t -> gate -> unit

val clear_gate : t -> unit
val gate : t -> gate option

(** Used by the dispatcher to account and publish one completed syscall
    ([sysno] is [req]'s).  The tracer's [arg] string is built from [req]
    only when a tracer is installed. *)
val record :
  t -> sysno:Sysno.t -> req:Syscall.req -> bytes_in:int -> bytes_out:int ->
  ok:bool -> unit

(** Record one syscall's boundary-to-boundary latency into the
    per-syscall kstats histogram ([syscall.<name>.latency]). *)
val observe_latency : t -> sysno:Sysno.t -> cycles:int -> unit

(** Invocations of one syscall so far. *)
val count : t -> Sysno.t -> int

val total_syscalls : t -> int
