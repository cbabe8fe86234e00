(** The assembled machine: clock, physical memory, kernel and user
    address spaces, allocators, scheduler.  Every higher-level library
    takes a [Kernel.t] and builds on it.

    The kernel tracks the user/kernel mode bit, boundary crossings, and
    bytes copied each way — the quantities the paper's §2 techniques
    exist to reduce — and produces [time(1)]-style elapsed/user/system
    accounting in which disk waits count toward elapsed time but not
    system time. *)

(** Bytes per page, in both address spaces and in physical memory. *)
val page_size : int

type mode = User | Kernel_mode

type t

(** Boot a machine: [cost] prices every simulated operation (default
    [Cost_model.default]), [ncpus] is the number of simulated CPUs
    (default 1). *)
val create : ?cost:Cost_model.t -> ?ncpus:int -> unit -> t

val clock : t -> Sim_clock.t
val cost : t -> Cost_model.t

(** Kernel virtual address space (where kmalloc/vmalloc memory lives). *)
val kspace : t -> Address_space.t

(** (Shared) user virtual address space. *)
val uspace : t -> Address_space.t

val alloc : t -> Kalloc.t
val sched : t -> Scheduler.t

(** The kernel-wide metrics registry.  Created enabled when
    [Kstats.default_enabled] was set at boot; cycle-neutral either
    way. *)
val stats : t -> Kstats.t

(** The kperf tracer: per-CPU trace rings and causal spans.  Created
    disabled ([Kperf.set_enabled] turns it on); while disabled
    every emit is a single branch and the simulated clock is never
    touched, so untraced runs are bit-for-bit identical to pre-kperf
    runs.  While enabled each stored record charges
    [Cost_model.trace_emit] cycles. *)
val perf : t -> Kperf.t

(** The deterministic fault-injection engine.  Every kernel carries
    one; until a harness arms a plan ([Kfault.arm]) each registered
    fault site costs a single branch and the run is bit-for-bit
    identical to a kernel built without kfault. *)
val fault : t -> Kfault.t

(** Current virtual time, in cycles. *)
val now : t -> int

(** The running process. *)
val current : t -> Kproc.t

val mode : t -> mode

(** Scheduler/clock/cost wiring that makes a {!Spinlock} created from it
    contention-aware and feeds its [lock.*] kstats.  One shared ctx per
    kernel: every lock created through it enrols in the same registry,
    which {!locks} (and crash containment) scans. *)
val lock_ctx : t -> Spinlock.ctx

(** Every contention-aware lock created via {!lock_ctx}, in creation
    order. *)
val locks : t -> Spinlock.t list

(** A kernel fault that was contained: only [pid] died.  The syscall
    layer raises this to its caller in place of the fault itself when a
    reaper is installed, so harnesses can count a clean kill rather than
    an escaped crash. *)
exception Oops of { pid : int; reason : string }

(** A kernel stay ran [used] cycles past its [budget]: Cosy's watchdog
    ([Cosy.Cosy_safety.Watchdog_expired]), declared here so the syscall
    layer's unwind can treat it as a kill. *)
exception Watchdog_expired of { used : int; budget : int }

(** Install the crash-containment hook (kcrash's oops path).  When set,
    {!reap} routes through it; when [None] (the default) {!reap} is
    exactly [Scheduler.kill] — same code path as before kcrash
    existed. *)
val set_reaper : t -> (Kproc.t -> reason:string -> unit) option -> unit

val has_reaper : t -> bool

(** Kill a process, reaping what it held if a reaper is installed.
    Every kill — flow gate, watchdog, memory fault — reaches it from one
    function, the kernel-stay unwind, on every entry path. *)
val reap : t -> Kproc.t -> reason:string -> unit

exception Kernel_mode_violation of string

(** Trap into the kernel: charges entry cost (as system time), counts a
    crossing.  @raise Kernel_mode_violation if already in kernel mode. *)
val enter_kernel : t -> unit

(** Return to user mode: charges exit cost and accumulates the system
    time of the stay (minus any I/O wait).
    @raise Kernel_mode_violation if not in kernel mode. *)
val exit_kernel : t -> unit

(** Charge user-mode CPU to the current process. *)
val charge_user : t -> int -> unit

(** Advance the clock for kernel-mode CPU work. *)
val charge_kernel : t -> int -> unit

(** Charge disk-wait time: advances the wall clock but is excluded from
    the current process's system time, like a process blocked on I/O. *)
val charge_io : t -> int -> unit

(** Copy [len] bytes out of simulated user memory at [uaddr]; charges the
    per-byte cost and counts the bytes.
    @raise Kernel_mode_violation in user mode. *)
val copy_from_user : t -> uaddr:int -> len:int -> Bytes.t

(** Copy into simulated user memory; charged and counted symmetrically. *)
val copy_to_user : t -> uaddr:int -> Bytes.t -> unit

(** Charge-only variants for data paths that carry host bytes: same cost
    and byte accounting, no simulated-memory traffic. *)
val charge_copy_from_user : t -> int -> unit

val charge_copy_to_user : t -> int -> unit

(** Total user/kernel boundary crossings. *)
val crossings : t -> int

val bytes_from_user : t -> int
val bytes_to_user : t -> int

exception Irq_unbalanced

(** Interrupt disable/enable with balance tracking; both emit
    instrumentation events.  @raise Irq_unbalanced on enable at depth 0. *)
val irq_disable : ?file:string -> ?line:int -> t -> unit

val irq_enable : ?file:string -> ?line:int -> t -> unit
val irq_depth : t -> int

(** Allocate user-space memory for workload buffers. *)
val user_alloc : t -> int -> int

(** What [time(1)] would print, in cycles. *)
type times = { elapsed : int; utime : int; stime : int }

(** Run [f] as the current process and report the elapsed/user/system
    cycles attributable to it. *)
val timed : t -> (unit -> 'a) -> 'a * times
