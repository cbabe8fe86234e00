(** Public facade: boot a simulated kernel with a chosen filesystem
    stack and the paper's subsystems attached.

    Examples and downstream users start here; the individual libraries
    ([Ksim], [Kvfs], [Ksyscall], [Ktrace], [Minic], [Cosy], [Kefence],
    [Kgcc], [Kmonitor]) remain usable directly for anything the facade
    does not cover.

    {[
      let t = Core.boot_with Core.Config.default in
      let fd = Core.ok (Core.Syscall.sys_open (Core.sys t) ~path:"/x"
                          ~flags:Core.o_create) in
      ...
    ]} *)

module Kernel = Ksim.Kernel
module Cost_model = Ksim.Cost_model
module Vfs = Kvfs.Vfs
module Vtypes = Kvfs.Vtypes
module Syscall = Ksyscall.Usyscall
module Systable = Ksyscall.Systable
module Sysno = Ksyscall.Sysno
module Req = Ksyscall.Syscall
module Ring = Kring
module Stats = Kstats
module Net = Knet
module Perf = Kperf
module Verify = Kverify
module Opt = Kopt
module Fault = Kfault
module Crash = Kcrash

(** The filesystem stack to boot with. *)
type fs_choice =
  | Memfs                           (** plain in-memory Ext2 stand-in *)
  | Wrapfs_kmalloc                  (** stackable wrapfs, slab allocations *)
  | Wrapfs_kefence of Kefence.mode  (** wrapfs over guarded vmalloc (E5) *)
  | Journalfs                       (** journaling Reiserfs stand-in *)
  | Journalfs_kgcc                  (** ... compiled with KGCC (E7) *)

(** Everything {!boot_with} can vary, as one record.  Override fields of
    {!Config.default} with record-update syntax:

    {[
      Core.boot_with
        { Core.Config.default with fs = Journalfs; ncpus = Some 4 }
    ]} *)
module Config : sig
  type t = {
    cost : Ksim.Cost_model.t;
        (** prices every simulated operation (default
            [Cost_model.default]) *)
    ncpus : int option;  (** simulated CPUs; [None] (default) boots 1 *)
    dcache_shards : int option;
        (** dentry-cache locking: 1 = global [dcache_lock], more =
            per-shard locks with lockless reads (see {!Kvfs.Dcache}) *)
    trace : bool option;
        (** [Some true] boots this system with the kperf tracer on,
            [Some false] or [None] (default) with it off *)
    fs : fs_choice;
    verify : Kverify.policy option;
        (** [Some p]: boot with a {!Kverify.t} installed as the dispatch
            gate under policy [p] (set an automaton to start enforcing)
            and install kverify admission on {!cosy} and {!ring}
            instances.  [None] (default): kverify entirely absent —
            zero cost, bit-for-bit identical execution. *)
    optimize : bool;
        (** [true]: boot with a {!Kopt.t} whose admission {!cosy} and
            {!ring} install instead of plain kverify admission — admitted
            programs compile into cached specialized plans (observably
            identical execution, cheaper accounting).  Implies a
            kverify instance: when [verify] is [None] one is created
            under the [Log] policy with no dispatch gate installed,
            which is cycle-identical to plain admission.  [false]
            (default): kopt entirely absent. *)
    crash : Kcrash.config option;
        (** [Some c]: boot with a {!Kcrash.t}.  [c.contain] installs the
            oops reaper behind every kill (the kverify [Kill] policy,
            the Cosy and kring watchdogs, kernel-mode memory faults) on
            every entry path, so a crashing process is destroyed with
            everything it held — fds, heap, locks, in-flight ring
            state — reaped, and every other process untouched.  [c.durable] puts journalfs (when
            [fs] is a Journalfs flavor) in write-ahead mode: mutating
            ops log intent/commit records to the persistent device
            image, and a mount from a survivor image replays them (see
            {!reboot}).  [None] (default): kcrash entirely absent — the
            kill sites fall back to plain [Scheduler.kill] and the
            journal stays headers-only, bit-for-bit the previous
            behavior, kstats included. *)
  }

  val default : t
end

type t

val kernel : t -> Ksim.Kernel.t
val sys : t -> Ksyscall.Systable.t

(** The kernel-wide metrics registry (counters, gauges, latency
    histograms).  Enabled at boot when [!Kstats.default_enabled];
    toggle later with [Kstats.set_enabled]. *)
val stats : t -> Kstats.t

(** The kperf tracer: per-CPU trace rings and causal spans.  Enabled at
    boot by [Config.trace]; toggle later with [Kperf.set_enabled].
    Disabled, every tracepoint is a single branch and the simulated
    clock is untouched. *)
val perf : t -> Kperf.t

(** The kernel's fault-injection engine (see {!Kfault}).  Disarmed by
    default: every instrumented site is a single branch and execution
    is bit-for-bit identical to a kernel without kfault.  Arm sites
    with [Kfault.arm (Core.fault t) plans]. *)
val fault : t -> Kfault.t

(** The simulated socket stack booted alongside the VFS (see {!Knet}). *)
val net : t -> Knet.t

(** The optional subsystems the chosen stack instantiated. *)
val kefence : t -> Kefence.t option

val wrapfs : t -> Kvfs.Wrapfs.t option
val journalfs : t -> Kvfs.Journalfs.t option
val kgcc_runtime : t -> Kgcc.Kgcc_runtime.t option

(** The kverify instance, when booted with [verify = Some _] (or
    implied by [optimize = true]). *)
val kverify : t -> Kverify.t option

(** The kopt optimizer, when booted with [optimize = true]. *)
val kopt : t -> Kopt.t option

(** The kcrash instance, when booted with [crash = Some _]. *)
val kcrash : t -> Kcrash.t option

val dispatcher : t -> Kmonitor.Dispatcher.t option

(** The config this system was booted from (what {!reboot} reuses). *)
val config : t -> Config.t

(** Common open-flag sets. *)
val o_rdonly : Kvfs.Vfs.open_flag list

val o_create : Kvfs.Vfs.open_flag list
val o_rdwr : Kvfs.Vfs.open_flag list
val o_append : Kvfs.Vfs.open_flag list

exception Sys_error of Kvfs.Vtypes.errno

(** Unwrap a syscall result.  @raise Sys_error on errno. *)
val ok : ('a, Kvfs.Vtypes.errno) result -> 'a

(** Boot a system from a {!Config.t}.  This is the single entry point:
    build a config with record-update syntax over {!Config.default} and
    pass it here.  Everything a boot can vary is a {!Config.t} field.

    [?image] seeds the block device with a persistent payload store
    from a previous system (see {!image}); a durable journalfs then
    replays its write-ahead log before serving anything, and the new
    system's kcrash (if any) accounts for the recovery. *)
val boot_with : ?image:Kvfs.Block_dev.image -> Config.t -> t

(** The persistent payload store behind this system's journalfs — what
    a power-loss survivor gets to rebuild from.  A deep copy: later
    writes to the running system do not retroactively change it.
    [None] unless the system booted a Journalfs flavor. *)
val image : t -> Kvfs.Block_dev.image option

(** Crash-consistent reboot: boot a fresh system from this one's config
    and persistent {!image} alone.  Everything volatile — processes,
    page cache, heap, locks, in-flight ring state — is gone, exactly as
    after a power loss; a durable journalfs replays its WAL on mount. *)
val reboot : t -> t

(** Called with every system {!boot_with} constructs, before it is returned.
    Harnesses (e.g. the bench driver) hook this to aggregate kstats
    across the many systems a run boots.  Defaults to a no-op. *)
val on_boot : (t -> unit) ref

(** Attach the event-monitoring stack (installs a dispatcher into the
    kernel's log_event indirection; [ring] enables the user-space feed). *)
val enable_monitoring : ?ring:bool -> t -> Kmonitor.Dispatcher.t

val disable_monitoring : t -> unit

(** A Cosy kernel extension bound to this system, with the system's
    admission stage installed: kopt's when booted with [optimize],
    else kverify's when booted with [verify], else none. *)
val cosy :
  ?shared_size:int ->
  ?policy:Cosy.Cosy_safety.policy ->
  ?user_program:string ->
  t ->
  Cosy.Cosy_exec.t

(** A batched submission/completion ring bound to this system (costs
    the one-time setup crossing), with the same admission stage as
    {!cosy}. *)
val ring :
  ?sq_entries:int ->
  ?cq_entries:int ->
  ?shared_size:int ->
  ?policy:Cosy.Cosy_safety.policy ->
  t ->
  Kring.t

(** Attach an strace-style recorder. *)
val trace : t -> Ktrace.Recorder.t

(** A periodic kstats snapshot feed into the monitoring event stream
    (requires {!enable_monitoring} for the events to flow). *)
val stats_feed : ?interval:int -> t -> Kmonitor.Stats_feed.t

(** Mirror kperf span begins and ends into the monitoring event stream
    as ["kperf-span-begin"]/["kperf-span-end"] events, by installing
    the tracer's sink (replacing any other).  Opt-in because spans are
    high-volume; [Kperf.set_sink (perf t) None] detaches.  Requires
    {!enable_monitoring} for the events to flow. *)
val perf_feed : t -> unit

(** Render the /proc-style metrics report for this system. *)
val pp_stats : Format.formatter -> t -> unit

(** Render elapsed/user/system like time(1). *)
val pp_times : Format.formatter -> Ksim.Kernel.times -> unit
