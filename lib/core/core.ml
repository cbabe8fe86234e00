(* Public facade: boot a simulated kernel with a chosen filesystem stack
   and the paper's subsystems attached.  Examples and downstream users
   start here; the individual libraries (Ksim, Kvfs, Ksyscall, Ktrace,
   Minic, Cosy, Kefence, Kgcc, Kmonitor) remain usable directly for
   anything this facade does not cover.

   Typical use:

     let t = Core.boot_with Core.Config.default in
     let fd = Core.ok (Core.Syscall.sys_open (Core.sys t) ~path:"/x"
                         ~flags:Core.o_create) in
     ...
*)

(* Re-exported aliases so downstream code can reach every subsystem
   through one module. *)
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

type fs_choice =
  | Memfs                          (* plain in-memory Ext2 stand-in *)
  | Wrapfs_kmalloc                 (* stackable wrapfs, slab allocations *)
  | Wrapfs_kefence of Kefence.mode (* wrapfs with guarded vmalloc (E5) *)
  | Journalfs                      (* journaling Reiserfs stand-in *)
  | Journalfs_kgcc                 (* ... compiled with KGCC (E7) *)

(* One record holding everything [boot] can vary, replacing the pile of
   optional labels the facade accreted.  [Config.default] is a bootable
   baseline; callers override fields with record-update syntax:

     Core.boot_with { Core.Config.default with fs = Journalfs; ncpus = Some 4 }
*)
module Config = struct
  type t = {
    kernel : Ksim.Kernel.config;   (* simulated-hardware shape *)
    ncpus : int option;            (* overrides [kernel.ncpus] when set *)
    dcache_shards : int option;    (* dentry-cache locking mode *)
    trace : bool option;           (* force kperf on/off for this system *)
    fs : fs_choice;
    verify : Kverify.policy option;
        (* [Some p] boots with a kverify instance installed as the
           dispatch gate under policy [p]; [None] (default) keeps
           kverify entirely off the path — zero cost, bit-for-bit
           identical execution *)
    optimize : bool;
        (* [true] boots with a kopt optimizer that {!cosy} and {!ring}
           attach instead of the plain kverify admission: admitted
           programs compile into cached specialized plans.  Implies a
           kverify instance (created with policy [Log] and no gate
           installed when [verify] is [None] — armed-empty admission is
           cycle-identical to plain admission).  [false] (default)
           keeps kopt entirely off the path. *)
    crash : Kcrash.config option;
        (* [Some c] boots with a kcrash instance: [c.contain] installs
           the oops reaper at the kill sites, [c.durable] puts
           journalfs (when [fs] is a Journalfs flavor) in write-ahead
           mode with replay-on-mount.  [None] (default) keeps kcrash
           entirely absent — the kill sites fall back to plain
           [Scheduler.kill] and the journal stays headers-only,
           bit-for-bit the previous behavior. *)
  }

  let default =
    {
      kernel = Ksim.Kernel.default_config;
      ncpus = None;
      dcache_shards = None;
      trace = None;
      fs = Memfs;
      verify = None;
      optimize = false;
      crash = None;
    }
end

(* The admission stage every {!cosy} and {!ring} instance gets. *)
type admission = {
  admit_compound :
    Cosy.Cosy_exec.t -> Cosy.Compound.t -> Cosy.Cosy_exec.admission;
  admit_ring : Ksyscall.Syscall.req list -> Kring.plan option;
}

type t = {
  cfg : Config.t;
  kernel : Ksim.Kernel.t;
  sys : Ksyscall.Systable.t;
  kefence : Kefence.t option;
  wrapfs : Kvfs.Wrapfs.t option;
  journalfs : Kvfs.Journalfs.t option;
  kgcc_runtime : Kgcc.Kgcc_runtime.t option;
  kverify : Kverify.t option;
  kopt : Kopt.t option;
  kcrash : Kcrash.t option;
  admission : admission option;
  mutable dispatcher : Kmonitor.Dispatcher.t option;
}

let kernel t = t.kernel
let sys t = t.sys
let stats t = Ksim.Kernel.stats t.kernel
let perf t = Ksim.Kernel.perf t.kernel
let fault t = Ksim.Kernel.fault t.kernel
let net t = Ksyscall.Systable.net t.sys
let kefence t = t.kefence
let wrapfs t = t.wrapfs
let journalfs t = t.journalfs
let kgcc_runtime t = t.kgcc_runtime
let kverify t = t.kverify
let kopt t = t.kopt
let kcrash t = t.kcrash
let dispatcher t = t.dispatcher
let config t = t.cfg

(* Common flag sets *)
let o_rdonly = [ Kvfs.Vfs.O_RDONLY ]
let o_create = [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT; Kvfs.Vfs.O_TRUNC ]
let o_rdwr = [ Kvfs.Vfs.O_RDWR ]
let o_append = [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_APPEND ]

exception Sys_error of Kvfs.Vtypes.errno

let ok = function Ok v -> v | Error e -> raise (Sys_error e)

(* Observed by harnesses (e.g. the bench driver) that need a handle on
   every system booted during a run to aggregate their kstats. *)
let on_boot : (t -> unit) ref = ref (fun _ -> ())

let boot_with ?image (cfg : Config.t) =
  let config =
    match cfg.ncpus with
    | None -> cfg.kernel
    | Some n -> { cfg.kernel with Ksim.Kernel.ncpus = n }
  in
  let kernel = Ksim.Kernel.create ~config () in
  (* ?trace overrides the boot-time default for this system only *)
  (match cfg.trace with
  | Some on -> Kperf.set_enabled (Ksim.Kernel.perf kernel) on
  | None -> ());
  let kefence_ref = ref None in
  let wrapfs_ref = ref None in
  let journalfs_ref = ref None in
  let kgcc_ref = ref None in
  (* durable journalling is kcrash's call: without a crash config the
     journal stays headers-only, byte-identical to previous revisions *)
  let durable =
    match cfg.crash with Some c -> c.Kcrash.durable | None -> false
  in
  let root_fs =
    match cfg.fs with
    | Memfs -> Kvfs.Memfs.ops (Kvfs.Memfs.create kernel)
    | Wrapfs_kmalloc ->
        let lower = Kvfs.Memfs.ops (Kvfs.Memfs.create kernel) in
        let w =
          Kvfs.Wrapfs.create ~allocator:(Kvfs.Wrapfs.kmalloc_allocator kernel)
            lower
        in
        wrapfs_ref := Some w;
        Kvfs.Wrapfs.ops w
    | Wrapfs_kefence mode ->
        let kf = Kefence.create ~mode kernel in
        kefence_ref := Some kf;
        let allocator =
          {
            Kvfs.Wrapfs.alloc_name = "kefence-vmalloc";
            space = Ksim.Kernel.kspace kernel;
            alloc = (fun size -> Kefence.alloc kf size);
            free = (fun addr -> Kefence.free kf addr);
          }
        in
        let lower = Kvfs.Memfs.ops (Kvfs.Memfs.create kernel) in
        let w = Kvfs.Wrapfs.create ~allocator lower in
        wrapfs_ref := Some w;
        Kvfs.Wrapfs.ops w
    | Journalfs ->
        let j = Kvfs.Journalfs.create ~durable ?image kernel in
        journalfs_ref := Some j;
        Kvfs.Journalfs.ops j
    | Journalfs_kgcc ->
        (* the KGCC runtime tracks the module's objects and serves its
           check calls; it must attach before the module loads so it sees
           every allocation from the first one *)
        let runtime =
          Kgcc.Kgcc_runtime.create
            ~clock:(Ksim.Kernel.clock kernel)
            ~cost:(Ksim.Kernel.cost kernel)
            ()
        in
        kgcc_ref := Some runtime;
        let j =
          Kvfs.Journalfs.create ~transform:Kgcc.Compile.transform
            ~attach:(Kgcc.Kgcc_runtime.attach runtime)
            ~durable ?image kernel
        in
        journalfs_ref := Some j;
        Kvfs.Journalfs.ops j
  in
  let sys =
    Ksyscall.Systable.create ~root_fs ?dcache_shards:cfg.dcache_shards kernel
  in
  (* kverify gate last, so it sees dispatches from the first user op; an
     automaton still has to be set ([Kverify.set_automaton]) before the
     gate enforces anything *)
  let kv =
    match cfg.verify with
    | None -> None
    | Some policy ->
        let kv = Kverify.create ~policy kernel in
        Kverify.install kv sys;
        Some kv
  in
  (* kopt needs a kverify instance to run admission through; when the
     config asks for optimization without verification, create one under
     the observe-only policy and leave the gate uninstalled — admission
     charges are identical either way *)
  let kopt =
    if not cfg.optimize then None
    else
      let kv =
        match kv with
        | Some kv -> kv
        | None -> Kverify.create ~policy:Kverify.Log kernel
      in
      Some (Kopt.create kv sys)
  in
  (* the one place kopt is chosen over kverify: the optimizer subsumes
     plain admission (it runs kverify itself with identical charges), so
     installing both would charge admission twice per program *)
  let admission =
    match (kopt, kv) with
    | Some ko, _ ->
        Some
          { admit_compound = Kopt.admit_compound ko;
            admit_ring = Kopt.ring_plan ko }
    | None, Some kv ->
        Some
          { admit_compound = Kverify.admit_compound kv;
            admit_ring = Kverify.admit_ring kv }
    | None, None -> None
  in
  (* kcrash: oops containment at the kill sites, plus Kefence
     bookkeeping teardown so no guardian PTE outlives its owner *)
  let kc =
    match cfg.crash with
    | None -> None
    | Some c ->
        let kc = Kcrash.create kernel sys in
        if c.Kcrash.contain then begin
          Kcrash.install kc;
          match !kefence_ref with
          | Some kf -> Kcrash.attach_kefence kc kf
          | None -> ()
        end;
        Some kc
  in
  let t =
    {
      cfg;
      kernel;
      sys;
      kefence = !kefence_ref;
      wrapfs = !wrapfs_ref;
      journalfs = !journalfs_ref;
      kgcc_runtime = !kgcc_ref;
      kverify = kv;
      kopt;
      kcrash = kc;
      admission;
      dispatcher = None;
    }
  in
  (* account the replay a durable mount just ran — but only when
     rebuilding from a survivor image: a fresh mount's empty replay is
     not a recovery *)
  (match (image, kc, !journalfs_ref) with
  | Some _, Some kc, Some j -> (
      match Kvfs.Journalfs.last_recover j with
      | Some info -> Kcrash.note_recovery kc info
      | None -> ())
  | _ -> ());
  !on_boot t;
  t

(* The persistent payload store behind this system's journalfs — what a
   power-loss survivor gets to rebuild from.  [None] unless the system
   booted a Journalfs flavor. *)
let image t =
  Option.map
    (fun j -> Kvfs.Block_dev.image (Kvfs.Journalfs.dev j))
    t.journalfs

(* Crash-consistent reboot: boot a fresh system from this one's config
   and persistent image alone.  Everything volatile (processes, page
   cache, heap, in-flight state) is gone, exactly as after power loss;
   a durable journalfs replays its WAL on mount and the new system's
   kcrash accounts for the recovery. *)
let reboot t = boot_with ?image:(image t) t.cfg

(* Attach the event-monitoring stack (dispatcher installed into the
   kernel's log_event indirection). *)
let enable_monitoring ?(ring = true) t =
  let d = Kmonitor.Dispatcher.create t.kernel in
  if ring then Kmonitor.Dispatcher.enable_ring d;
  Kmonitor.Dispatcher.install d;
  t.dispatcher <- Some d;
  d

let disable_monitoring t =
  match t.dispatcher with
  | Some d ->
      Kmonitor.Dispatcher.uninstall d;
      t.dispatcher <- None
  | None -> ()

(* A Cosy kernel extension bound to this system.  On a verifying or
   optimizing system the admission stage attaches automatically, so
   admitted compounds run watchdog-elided (or compiled). *)
let cosy ?shared_size ?policy ?user_program t =
  let cx = Cosy.Cosy_exec.create ?shared_size ?policy ?user_program t.sys in
  Cosy.Cosy_exec.set_admission cx
    (Option.map (fun a -> a.admit_compound cx) t.admission);
  cx

(* A batched submission/completion ring bound to this system; same
   automatic admission wiring as {!cosy}. *)
let ring ?sq_entries ?cq_entries ?shared_size ?policy t =
  let r = Kring.create ?sq_entries ?cq_entries ?shared_size ?policy t.sys in
  Kring.set_admission r (Option.map (fun a -> a.admit_ring) t.admission);
  (* a contained oops discards the dying process's in-flight batches *)
  (match t.kcrash with
  | Some kc -> Kcrash.add_reaper kc (fun ~pid:_ -> Kring.discard_pending r)
  | None -> ());
  r

(* Attach an strace-style recorder. *)
let trace t =
  let r = Ktrace.Recorder.create () in
  Ktrace.Recorder.attach r t.sys;
  r

(* A periodic kstats snapshot feed into the monitoring event stream. *)
let stats_feed ?interval t = Kmonitor.Stats_feed.create ?interval t.kernel

let span_begin = Ksim.Instrument.custom "kperf-span-begin"
let span_end = Ksim.Instrument.custom "kperf-span-end"

(* Mirror kperf span begin/end into the monitoring event stream through
   the tracer's sink.  Instants stay out: they would double every
   context switch in the stream. *)
let perf_feed t =
  Kperf.set_sink (perf t)
    (Some
       (fun (ev : Kperf.event) ->
         let emit kind =
           Ksim.Instrument.emit ~pid:ev.Kperf.ev_pid ~obj:ev.Kperf.ev_id
             ~value:ev.Kperf.ev_arg ~kind
             ~file:(ev.Kperf.ev_cat ^ ":" ^ ev.Kperf.ev_name)
             ~line:ev.Kperf.ev_cpu ()
         in
         match ev.Kperf.ev_kind with
         | Kperf.Begin | Kperf.Async_begin -> emit span_begin
         | Kperf.End | Kperf.Async_end -> emit span_end
         | Kperf.Instant -> ()))

(* The /proc-style metrics report for this system. *)
let pp_stats ppf t = Kstats.pp_report ppf (stats t)

(* Human-readable time report matching what time(1) prints. *)
let pp_times ppf (times : Ksim.Kernel.times) =
  Fmt.pf ppf "elapsed %.4fs user %.4fs system %.4fs"
    (Ksim.Sim_clock.cycles_to_seconds times.Ksim.Kernel.elapsed)
    (Ksim.Sim_clock.cycles_to_seconds times.Ksim.Kernel.utime)
    (Ksim.Sim_clock.cycles_to_seconds times.Ksim.Kernel.stime)
