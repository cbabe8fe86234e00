(* Kcrash: dying well.

   Two fronts, one subsystem.

   Front 1 — oops containment.  The substrate's kills (the syscall-flow
   gate, the Cosy/kring watchdogs, a kernel-mode memory fault)
   historically just marked the offender dead, leaking whatever it held.
   All of them unwind through the one kernel-stay unwind in Usyscall, on
   every entry path.  With kcrash installed, [Kernel.reap] routes here
   and the oops path reaps everything the dying process owned: fd-table
   entries (closed through the normal VFS/socket paths), kmalloc/vmalloc
   heap objects (freed through the normal allocator paths, guardian PTEs
   and TLB shootdowns included), held spinlocks (poisoned, then
   force-released with a Contended-style instrument event), and
   registered in-flight subsystem state (ring queues).  Other processes
   keep running bit-for-bit unaffected.

   Front 2 — power-loss recovery.  The [blockdev.crash_point] kfault
   site models power failing at a durable-write boundary; everything
   volatile dies with the run, and [note_recovery] records what the next
   boot's journal replay salvaged from the persistent image.

   Every counter here is created lazily on the first oops/recovery —
   exactly the kfault idiom — so an installed-but-quiet kcrash leaves
   the kstats dump byte-identical to a kernel without it. *)

type config = {
  contain : bool;  (* install the oops reaper at kill sites *)
  durable : bool;  (* journalfs write-ahead logging + replay-on-mount *)
}

let default_config = { contain = true; durable = true }

(* Re-exports, so harnesses can match without reaching into ksim/kvfs. *)
exception Oops = Ksim.Kernel.Oops
exception Power_loss = Kvfs.Block_dev.Power_loss

type oops_report = {
  o_pid : int;
  o_reason : string;
  o_time : int;        (* cycles at containment *)
  o_fds : int;         (* fd-table entries closed *)
  o_kmallocs : int;    (* slab objects freed *)
  o_vmallocs : int;    (* vmalloc areas freed (guardian PTEs included) *)
  o_locks : int;       (* spinlocks force-released *)
  o_ring : int;        (* in-flight ring/cosy entries discarded *)
}

type counters = {
  st_oops : Kstats.counter;
  st_reaped_fds : Kstats.counter;
  st_reaped_heap : Kstats.counter;
  st_reaped_locks : Kstats.counter;
  st_reaped_ring : Kstats.counter;
  st_recoveries : Kstats.counter;
  st_torn : Kstats.counter;
  st_replayed : Kstats.counter;
}

type t = {
  kernel : Ksim.Kernel.t;
  sys : Ksyscall.Systable.t;
  kstats : Kstats.t;
  mutable counters : counters option;    (* lazy: first event registers *)
  mutable reapers : (pid:int -> int) list; (* subsystem state, e.g. rings *)
  mutable vm_observers : (int -> unit) list; (* freed vmalloc addresses *)
  mutable reports : oops_report list;    (* newest first *)
}

let create kernel sys =
  {
    kernel;
    sys;
    kstats = Ksim.Kernel.stats kernel;
    counters = None;
    reapers = [];
    vm_observers = [];
    reports = [];
  }

let counters t =
  match t.counters with
  | Some c -> c
  | None ->
      let counter name = Kstats.counter t.kstats ("kcrash." ^ name) in
      let c =
        {
          st_oops = counter "oops";
          st_reaped_fds = counter "reaped_fds";
          st_reaped_heap = counter "reaped_heap";
          st_reaped_locks = counter "reaped_locks";
          st_reaped_ring = counter "reaped_ring";
          st_recoveries = counter "recoveries";
          st_torn = counter "torn_discarded";
          st_replayed = counter "replayed_records";
        }
      in
      t.counters <- Some c;
      c

(* Instrument kinds, declared once; see DESIGN.md's event-kind table. *)
let oops_event = Ksim.Instrument.custom "kcrash-oops"
let power_loss_event = Ksim.Instrument.custom "kcrash-power-loss"
let recovery_event = Ksim.Instrument.custom "kcrash-recovery"

let emit ?(pid = 0) kind ~value ~reason =
  Ksim.Instrument.emit ~pid ~obj:0 ~value ~kind ~file:("kcrash:" ^ reason)
    ~line:0 ()

(* Subsystems with per-kernel in-flight state (kring) register a reaper
   returning how many entries it discarded. *)
let add_reaper t f = t.reapers <- t.reapers @ [ f ]

(* Kefence tracks vmalloc'd buffers by address; when the oops path frees
   one underneath it, the observer drops the stale guardian/buffer
   bookkeeping. *)
let attach_kefence t kf =
  t.vm_observers <-
    t.vm_observers @ [ (fun addr -> ignore (Kefence.forget kf addr)) ]

(* --- Front 1: the oops path ------------------------------------------- *)

(* Close every fd the process still holds, through the same dispatch
   service_close uses: sockets above [Knet.handle_base], VFS files
   below.  Ascending fd order, for determinism. *)
let reap_fds t (p : Ksim.Kproc.t) =
  let fds =
    Hashtbl.fold (fun fd handle acc -> (fd, handle) :: acc) p.Ksim.Kproc.fd_table []
    |> List.sort compare
  in
  List.iter
    (fun (fd, handle) ->
      ignore (Ksim.Kproc.release_fd p fd);
      if handle >= Knet.handle_base then
        Knet.close (Ksyscall.Systable.net t.sys)
          ~sock:(handle - Knet.handle_base)
      else ignore (Kvfs.Vfs.close (Ksyscall.Systable.vfs t.sys) handle))
    fds;
  List.length fds

(* Force-release every lock the process still holds.  Poisoning emits
   the Contended-style event; see Spinlock.force_release. *)
let reap_locks t pid =
  List.fold_left
    (fun n l ->
      if Ksim.Spinlock.is_locked l && Ksim.Spinlock.holder l = pid then begin
        ignore (Ksim.Spinlock.force_release ~file:"kcrash.ml" l);
        n + 1
      end
      else n)
    0 (Ksim.Kernel.locks t.kernel)

(* The kernel panic path that does not panic: kill [p] and reap
   everything it held, leaving every other process untouched.  Installed
   as the [Kernel.reap] hook by {!install}. *)
let oops t (p : Ksim.Kproc.t) ~reason =
  let pid = p.Ksim.Kproc.pid in
  let c = counters t in
  let fds = reap_fds t p in
  let heap = Ksim.Kalloc.reap_pid (Ksim.Kernel.alloc t.kernel) pid in
  List.iter
    (fun addr -> List.iter (fun f -> f addr) t.vm_observers)
    heap.Ksim.Kalloc.reaped_vm_addrs;
  let locks = reap_locks t pid in
  let ring = List.fold_left (fun n f -> n + f ~pid) 0 t.reapers in
  Ksim.Scheduler.kill (Ksim.Kernel.sched t.kernel) p;
  Kstats.incr t.kstats c.st_oops;
  Kstats.add t.kstats c.st_reaped_fds fds;
  Kstats.add t.kstats c.st_reaped_heap
    (heap.Ksim.Kalloc.reaped_kmallocs + heap.Ksim.Kalloc.reaped_vmallocs);
  Kstats.add t.kstats c.st_reaped_locks locks;
  Kstats.add t.kstats c.st_reaped_ring ring;
  let report =
    {
      o_pid = pid;
      o_reason = reason;
      o_time = Ksim.Kernel.now t.kernel;
      o_fds = fds;
      o_kmallocs = heap.Ksim.Kalloc.reaped_kmallocs;
      o_vmallocs = heap.Ksim.Kalloc.reaped_vmallocs;
      o_locks = locks;
      o_ring = ring;
    }
  in
  t.reports <- report :: t.reports;
  emit ~pid oops_event ~reason
    ~value:
      (fds + heap.Ksim.Kalloc.reaped_kmallocs + heap.Ksim.Kalloc.reaped_vmallocs
     + locks + ring)

let install t =
  Ksim.Kernel.set_reaper t.kernel (Some (fun p ~reason -> oops t p ~reason))

let uninstall t = Ksim.Kernel.set_reaper t.kernel None

let reports t = List.rev t.reports
let oops_count t = List.length t.reports

(* --- Front 2: recovery accounting ------------------------------------- *)

(* Called by the reboot path after journalfs replay, with what the
   replay salvaged.  Bumps the recovery counters and emits the
   power-loss + recovery event pair. *)
let note_recovery t (info : Kvfs.Journalfs.recover_info) =
  let c = counters t in
  Kstats.incr t.kstats c.st_recoveries;
  Kstats.add t.kstats c.st_torn info.Kvfs.Journalfs.rec_torn;
  Kstats.add t.kstats c.st_replayed info.Kvfs.Journalfs.rec_replayed;
  emit power_loss_event ~value:info.Kvfs.Journalfs.rec_torn
    ~reason:"power-loss";
  emit recovery_event ~value:info.Kvfs.Journalfs.rec_replayed
    ~reason:"recovery"

let pp_oops_report ppf r =
  Fmt.pf ppf
    "oops pid=%d (%s) at cycle %d: reaped %d fds, %d kmallocs, %d vmallocs, \
     %d locks, %d ring entries"
    r.o_pid r.o_reason r.o_time r.o_fds r.o_kmallocs r.o_vmallocs r.o_locks
    r.o_ring
