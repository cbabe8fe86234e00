(* The assembled machine: clock, physical memory, kernel and user address
   spaces, allocators, scheduler.  Every higher-level library takes a
   [Kernel.t] and builds on it. *)

type config = {
  page_size : int;
  cost : Cost_model.t;
  phys_frames_hint : int;
  ncpus : int;
}

let default_config =
  { page_size = 4096; cost = Cost_model.default; phys_frames_hint = 1024;
    ncpus = 1 }

type mode = User | Kernel_mode

type t = {
  config : config;
  clock : Sim_clock.t;
  mem : Phys_mem.t;
  kspace : Address_space.t;    (* kernel virtual address space *)
  uspace : Address_space.t;    (* (shared) user virtual address space *)
  alloc : Kalloc.t;            (* kernel allocators over kspace *)
  sched : Scheduler.t;
  kstats : Kstats.t;           (* kernel-wide metrics registry *)
  perf : Kperf.t;              (* trace rings + causal spans *)
  fault : Kfault.t;            (* deterministic fault injection *)
  st_crossings : Kstats.counter;
  st_bytes_in : Kstats.counter;
  st_bytes_out : Kstats.counter;
  lockctx : Spinlock.ctx;      (* shared, so all locks enrol in one registry *)
  (* crash containment hook: when installed (kcrash), kill sites reap the
     offender's resources instead of just marking it dead *)
  mutable reaper : (Kproc.t -> reason:string -> unit) option;
  mutable mode : mode;
  mutable user_kernel_crossings : int;
  mutable bytes_copied_user_to_kernel : int;
  mutable bytes_copied_kernel_to_user : int;
  mutable irq_depth : int;
  (* user-space heap: a bump allocator over uspace for workload buffers *)
  mutable user_brk_vpn : int;
}

let user_heap_base_vpn = 0x400

let kfault_inject = Instrument.custom "kfault-inject"

let create ?(config = default_config) () =
  let clock = Sim_clock.create () in
  let kstats = Kstats.create ~enabled:!Kstats.default_enabled () in
  let mem = Phys_mem.create ~page_size:config.page_size in
  let kspace =
    Address_space.create ~stats:kstats ~name:"kernel" ~mem ~clock
      ~cost:config.cost ()
  in
  let uspace =
    Address_space.create ~stats:kstats ~name:"user" ~mem ~clock
      ~cost:config.cost ()
  in
  let alloc =
    Kalloc.create ~stats:kstats ~space:kspace ~clock ~cost:config.cost ()
  in
  let sched =
    Scheduler.create ~stats:kstats ~ncpus:config.ncpus ~clock ~cost:config.cost
      ()
  in
  (* The tracer sits below ksim in the library graph, so the kernel wires
     it up with closures: timestamps off the simulated clock, the active
     CPU off the scheduler, and a per-event charge off the cost model.
     Disabled (the default) it never runs any of them, keeping traced and
     untraced runs bit-for-bit identical. *)
  let perf =
    Kperf.create ~enabled:!Kperf.default_enabled ~ncpus:config.ncpus
      ~stats:kstats
      ~now:(fun () -> Sim_clock.now clock)
      ~cpu:(fun () -> Scheduler.active_cpu sched)
      ~charge:(fun () ->
        Sim_clock.advance clock config.cost.Cost_model.trace_emit)
      ()
  in
  Scheduler.set_perf sched perf;
  (* Like the tracer, the fault engine sits below ksim and gets the
     clock as a closure, and each fire as one: a tracer instant plus a
     "kfault-inject" event naming the site, valued at the occurrence.
     Disarmed (always, until a harness arms a plan) every site probe is
     one branch and nothing else runs. *)
  let fault =
    Kfault.create ~enabled:!Kfault.default_enabled ~stats:kstats
      ~now:(fun () -> Sim_clock.now clock)
      ~on_fire:(fun ~name ~occurrence ->
        Kperf.instant perf ~arg:occurrence ~cat:"kfault" ~name ();
        Instrument.emit ~pid:(Scheduler.current sched).Kproc.pid ~obj:0
          ~value:occurrence ~kind:kfault_inject ~file:("kfault:" ^ name)
          ~line:0 ())
      ()
  in
  Kalloc.set_fault alloc fault;
  let k =
    {
      config;
      clock;
      mem;
      kspace;
      uspace;
      alloc;
      sched;
      kstats;
      perf;
      fault;
      st_crossings = Kstats.counter kstats "kernel.crossings";
      st_bytes_in = Kstats.counter kstats "kernel.bytes_from_user";
      st_bytes_out = Kstats.counter kstats "kernel.bytes_to_user";
      lockctx =
        {
          Spinlock.sched;
          clock;
          cost = config.cost;
          stats = kstats;
          registry = Spinlock.new_registry ();
        };
      reaper = None;
      mode = User;
      user_kernel_crossings = 0;
      bytes_copied_user_to_kernel = 0;
      bytes_copied_kernel_to_user = 0;
      irq_depth = 0;
      user_brk_vpn = user_heap_base_vpn;
    }
  in
  ignore (Scheduler.spawn sched ~name:"init");
  Kalloc.set_pid_source alloc
    (Some (fun () -> (Scheduler.current sched).Kproc.pid));
  k

let clock t = t.clock
let cost t = t.config.cost
let page_size t = t.config.page_size
let kspace t = t.kspace
let uspace t = t.uspace
let alloc t = t.alloc
let sched t = t.sched
let stats t = t.kstats
let perf t = t.perf
let fault t = t.fault
let now t = Sim_clock.now t.clock
let current t = Scheduler.current t.sched
let mode t = t.mode

(* Wiring for contention-aware spinlocks (see Spinlock.ctx).  One shared
   ctx, so every lock created through it enrols in the same registry and
   crash containment can find them all. *)
let lock_ctx t = t.lockctx

(* Every contention-aware lock in the machine, in creation order. *)
let locks t = Spinlock.registered t.lockctx.Spinlock.registry

(* --- oops containment -------------------------------------------------- *)

(* A kernel fault that was contained: only [pid] died.  Raised to the
   caller of the syscall in place of the fault itself, so harnesses can
   count it as a clean kill rather than an escape. *)
exception Oops of { pid : int; reason : string }

(* Cosy's watchdog expiry, declared below cosy so the syscall layer's
   unwind can treat it as a kill. *)
exception Watchdog_expired of { used : int; budget : int }

let set_reaper t f = t.reaper <- f
let has_reaper t = t.reaper <> None

(* Kill [p], reaping what it held if a reaper (kcrash) is installed;
   without one this is exactly the legacy [Scheduler.kill]. *)
let reap t p ~reason =
  match t.reaper with
  | Some f -> f p ~reason
  | None -> Scheduler.kill t.sched p

(* --- user/kernel boundary -------------------------------------------- *)

exception Kernel_mode_violation of string

let enter_kernel t =
  if t.mode = Kernel_mode then
    raise (Kernel_mode_violation "enter_kernel: already in kernel mode");
  t.user_kernel_crossings <- t.user_kernel_crossings + 1;
  Kstats.incr t.kstats t.st_crossings;
  t.mode <- Kernel_mode;
  let p = current t in
  (* the trap itself is system time: record entry before charging it *)
  p.Kproc.kernel_entry <- Some (Sim_clock.now t.clock);
  p.Kproc.io_wait_at_entry <- p.Kproc.io_wait;
  Sim_clock.advance t.clock t.config.cost.Cost_model.syscall_entry

let exit_kernel t =
  if t.mode = User then
    raise (Kernel_mode_violation "exit_kernel: not in kernel mode");
  Sim_clock.advance t.clock t.config.cost.Cost_model.syscall_exit;
  t.mode <- User;
  let p = current t in
  (match p.Kproc.kernel_entry with
  | Some entry ->
      (* system time is kernel CPU time: blocking on the disk counts
         toward elapsed but not stime, like time(1) reports *)
      let io = p.Kproc.io_wait - p.Kproc.io_wait_at_entry in
      p.Kproc.stime <- p.Kproc.stime + (Sim_clock.now t.clock - entry) - io;
      p.Kproc.kernel_entry <- None
  | None -> ())

(* Charge disk-wait time: advances the wall clock, counted out of stime. *)
let charge_io t cycles =
  Sim_clock.advance t.clock cycles;
  let p = current t in
  p.Kproc.io_wait <- p.Kproc.io_wait + cycles

(* Charge user-mode CPU work to the current process. *)
let charge_user t cycles =
  Sim_clock.advance t.clock cycles;
  let p = current t in
  p.Kproc.utime <- p.Kproc.utime + cycles

(* Charge kernel-mode CPU work (stime is accumulated at exit_kernel from
   the wall clock, so this only advances the clock). *)
let charge_kernel t cycles = Sim_clock.advance t.clock cycles

let copy_from_user t ~uaddr ~len =
  if t.mode <> Kernel_mode then
    raise (Kernel_mode_violation "copy_from_user in user mode");
  Sim_clock.advance t.clock (Cost_model.copy_cost t.config.cost len);
  t.bytes_copied_user_to_kernel <- t.bytes_copied_user_to_kernel + len;
  Kstats.add t.kstats t.st_bytes_in len;
  Address_space.read_bytes t.uspace ~addr:uaddr ~len

let copy_to_user t ~uaddr src =
  if t.mode <> Kernel_mode then
    raise (Kernel_mode_violation "copy_to_user in user mode");
  let len = Bytes.length src in
  Sim_clock.advance t.clock (Cost_model.copy_cost t.config.cost len);
  t.bytes_copied_kernel_to_user <- t.bytes_copied_kernel_to_user + len;
  Kstats.add t.kstats t.st_bytes_out len;
  Address_space.write_bytes t.uspace ~addr:uaddr src

(* Charge-only copy accounting: used by the syscall layer, whose data
   path carries host bytes.  The cycle cost and byte counters are the
   same as for the address-based copies above. *)
let charge_copy_from_user t len =
  if t.mode <> Kernel_mode then
    raise (Kernel_mode_violation "copy_from_user in user mode");
  Sim_clock.advance t.clock (Cost_model.copy_cost t.config.cost len);
  t.bytes_copied_user_to_kernel <- t.bytes_copied_user_to_kernel + len

let charge_copy_to_user t len =
  if t.mode <> Kernel_mode then
    raise (Kernel_mode_violation "copy_to_user in user mode");
  Sim_clock.advance t.clock (Cost_model.copy_cost t.config.cost len);
  t.bytes_copied_kernel_to_user <- t.bytes_copied_kernel_to_user + len

let crossings t = t.user_kernel_crossings
let bytes_from_user t = t.bytes_copied_user_to_kernel
let bytes_to_user t = t.bytes_copied_kernel_to_user

(* --- interrupts ------------------------------------------------------- *)

let irq_disable ?(file = "<unknown>") ?(line = 0) t =
  t.irq_depth <- t.irq_depth + 1;
  Instrument.emit ~obj:0 ~value:t.irq_depth ~kind:Instrument.Irq_disable ~file
    ~line ()

exception Irq_unbalanced

let irq_enable ?(file = "<unknown>") ?(line = 0) t =
  if t.irq_depth = 0 then raise Irq_unbalanced;
  t.irq_depth <- t.irq_depth - 1;
  Instrument.emit ~obj:0 ~value:t.irq_depth ~kind:Instrument.Irq_enable ~file
    ~line ()

let irq_depth t = t.irq_depth

(* --- user heap -------------------------------------------------------- *)

(* Allocate user-space memory for workload buffers; user pages, like the
   kernel's, live in the shared physical pool. *)
let user_alloc t size =
  if size <= 0 then invalid_arg "user_alloc";
  let npages = (size + t.config.page_size - 1) / t.config.page_size in
  let vpn = t.user_brk_vpn in
  t.user_brk_vpn <- t.user_brk_vpn + npages + 1;
  Address_space.map_fresh t.uspace ~vpn ~npages ~writable:true;
  vpn * t.config.page_size

(* --- process statistics ----------------------------------------------- *)

type times = { elapsed : int; utime : int; stime : int }

(* Run [f] as the current process and report elapsed/user/system cycles
   attributable to it, like time(1) does for the paper's benchmarks. *)
let timed t f =
  let p = current t in
  let t0 = Sim_clock.now t.clock in
  let u0 = p.Kproc.utime and s0 = p.Kproc.stime in
  let v = f () in
  let times =
    {
      elapsed = Sim_clock.now t.clock - t0;
      utime = p.Kproc.utime - u0;
      stime = p.Kproc.stime - s0;
    }
  in
  (v, times)
