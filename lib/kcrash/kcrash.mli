(** Kcrash: oops containment and crash-consistent recovery.

    Front 1 — {b oops containment}.  The substrate's kills (the kverify
    syscall-flow gate, the Cosy and kring watchdogs, a kernel-mode
    memory fault) historically marked the offender dead and leaked
    whatever it held.  They all reach [Ksim.Kernel.reap] from the kernel
    stay's one unwind ({!Ksyscall.Usyscall.stay}), so they are contained
    on every entry path, memory faults included.  With kcrash
    {!install}ed, [Ksim.Kernel.reap] routes here and the oops path reaps everything
    the dying process owned — fd-table entries, kmalloc/vmalloc heap
    objects (guardian PTEs included), held spinlocks (poisoned then
    force-released with a [Contended]-style instrument event), and
    registered in-flight subsystem state such as ring queues — leaving
    every other process bit-for-bit unaffected.

    Front 2 — {b power-loss recovery}.  The [blockdev.crash_point]
    kfault site (trigger [crash_at:CYCLE], i.e. [at:CYCLE]) models power
    failing at a durable-write boundary: [Power_loss] escapes, the
    volatile kernel dies, and the next boot rebuilds from the persistent
    {!Kvfs.Block_dev.image} alone via journalfs replay-on-mount.
    {!note_recovery} accounts for what the replay salvaged.

    All counters ([kcrash.oops], [kcrash.reaped_*], [kcrash.recoveries],
    [kcrash.torn_discarded], [kcrash.replayed_records]) are created
    lazily on the first event, so an installed-but-quiet kcrash leaves
    the kstats dump byte-identical to a kernel without it. *)

type config = {
  contain : bool;  (** install the oops reaper at the kill sites *)
  durable : bool;
      (** journalfs write-ahead logging + replay-on-mount (only
          meaningful with [Config.fs = Journalfs]) *)
}

(** [{ contain = true; durable = true }]. *)
val default_config : config

(** Re-export of {!Ksim.Kernel.Oops}: raised out of the kernel stay, on
    any entry path, after a contained kernel-mode memory fault. *)
exception Oops of { pid : int; reason : string }

(** Re-export of {!Kvfs.Block_dev.Power_loss}: raised when the armed
    [blockdev.crash_point] fault site fires at a durable write. *)
exception Power_loss

(** What one contained oops reaped. *)
type oops_report = {
  o_pid : int;
  o_reason : string;
  o_time : int;  (** cycles at containment *)
  o_fds : int;  (** fd-table entries closed *)
  o_kmallocs : int;  (** slab objects freed *)
  o_vmallocs : int;  (** vmalloc areas freed, guardian PTEs torn down *)
  o_locks : int;  (** spinlocks poisoned and force-released *)
  o_ring : int;  (** in-flight ring entries discarded *)
}

type t

val create : Ksim.Kernel.t -> Ksyscall.Systable.t -> t

(** Route [Ksim.Kernel.reap] — called for every kill (the kverify
    [Kill] policy, the Cosy and kring watchdogs, a kernel-mode memory
    fault) on every entry path — through {!oops}. *)
val install : t -> unit

(** The oops path itself: kill [p] and reap everything it held, then
    emit a ["kcrash-oops"] event.  The kernel stay's unwind has already
    returned to user mode. *)
val oops : t -> Ksim.Kproc.t -> reason:string -> unit

(** Register a subsystem reaper (e.g. kring's [discard_pending]); it
    receives the dying pid and returns how many entries it discarded. *)
val add_reaper : t -> (pid:int -> int) -> unit

(** Have the oops path drop Kefence bookkeeping (buffer and guardian
    maps) for every vmalloc area it frees, so no guardian PTE outlives
    its owner. *)
val attach_kefence : t -> Kefence.t -> unit

(** Account a journalfs replay-on-mount: bumps [kcrash.recoveries],
    [kcrash.torn_discarded] and [kcrash.replayed_records], and emits a
    ["kcrash-power-loss"]/["kcrash-recovery"] event pair. *)
val note_recovery : t -> Kvfs.Journalfs.recover_info -> unit

(** Contained-oops reports, oldest first. *)
val reports : t -> oops_report list

val oops_count : t -> int
val pp_oops_report : Format.formatter -> oops_report -> unit
