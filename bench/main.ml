(* Reproduction harness: one section per evaluation result in the paper
   (E1..E7) plus the ablations DESIGN.md calls out (E8..E10).  Each
   section prints the paper's reported numbers next to ours.

   Usage:
     dune exec bench/main.exe             # all experiments
     dune exec bench/main.exe -- E1 E6    # a subset
     dune exec bench/main.exe -- smoke    # everything at tiny scale
     dune exec bench/main.exe -- micro    # Bechamel host-time microbenches
     dune exec bench/main.exe -- all micro

   Absolute numbers come from the simulator's calibrated cost model
   (lib/ksim/cost_model.ml); the claims under reproduction are the
   *shapes*: who wins, by what rough factor, and the orderings. *)

let pf = Printf.printf

let sec cycles = Ksim.Sim_clock.cycles_to_seconds cycles

let header id title paper =
  pf "\n=== %s: %s ===\n    paper: %s\n" id title paper

let pct_faster base new_ = 100. *. (1. -. (float_of_int new_ /. float_of_int base))
let pct_over base new_ = 100. *. ((float_of_int new_ /. float_of_int base) -. 1.)
let ratio base new_ = float_of_int new_ /. float_of_int (max 1 base)

(* "smoke" runs every experiment at ~1/20 scale so `make check` exercises
   the whole harness in seconds.  [sc] shrinks iteration counts; sweeps
   over lists pick a short list explicitly. *)
let smoke = ref false
let sc n = if !smoke then max 1 (n / 20) else n

(* Experiments can attach structured result rows (e.g. E13's per-ncpus
   sweep) that land in BENCH_kstats.json under their "rows" key. *)
let extra_rows : (string, string list ref) Hashtbl.t = Hashtbl.create 4

let add_row xid json =
  match Hashtbl.find_opt extra_rows xid with
  | Some r -> r := json :: !r
  | None -> Hashtbl.add extra_rows xid (ref [ json ])

let find_counter stats name =
  match Kstats.find stats name with Some (Kstats.Counter_v v) -> v | _ -> 0

(* ----------------------------------------------------------------- E1 *)

let e1 () =
  header "E1" "readdirplus vs readdir+stat (system-call consolidation)"
    "elapsed -60.6..63.8%, system -55.7..59.3%, user -82.8..84.0%, \
     consistent from 10 to 100,000 files";
  pf "%8s %12s %12s %10s %10s %10s\n" "files" "plain(s)" "rdplus(s)"
    "elapsed%" "system%" "user%";
  List.iter
    (fun n ->
      let plain =
        let t = Core.boot_with Core.Config.default in
        Workloads.Lsdir.setup (Core.sys t) ~dir:"/big" ~n;
        Workloads.Lsdir.run_plain (Core.sys t) ~dir:"/big"
      in
      let merged =
        let t = Core.boot_with Core.Config.default in
        Workloads.Lsdir.setup (Core.sys t) ~dir:"/big" ~n;
        Workloads.Lsdir.run_readdirplus (Core.sys t) ~dir:"/big"
      in
      let p = plain.Workloads.Lsdir.times and m = merged.Workloads.Lsdir.times in
      pf "%8d %12.6f %12.6f %9.1f%% %9.1f%% %9.1f%%\n" n
        (sec p.Ksim.Kernel.elapsed) (sec m.Ksim.Kernel.elapsed)
        (pct_faster p.Ksim.Kernel.elapsed m.Ksim.Kernel.elapsed)
        (pct_faster p.Ksim.Kernel.stime m.Ksim.Kernel.stime)
        (pct_faster p.Ksim.Kernel.utime m.Ksim.Kernel.utime))
    (if !smoke then [ 10; 100 ] else [ 10; 100; 1_000; 10_000; 100_000 ])

(* ----------------------------------------------------------------- E2 *)

let e2 () =
  header "E2" "interactive-workload savings estimate"
    "171,975 -> 17,251 syscalls; 51,807,520 -> 32,250,041 bytes; ~28.15 s/hour";
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  Workloads.Interactive.setup sys;
  let rec_ = Core.trace t in
  (* a longer session than the smoke tests: the paper logged ~15 min *)
  let cfg = { Workloads.Interactive.default_config with duration_events = sc 3_000 } in
  let s = Workloads.Interactive.run ~config:cfg sys in
  let est =
    Ktrace.Savings.estimate
      ~trace_duration_cycles:s.Workloads.Interactive.duration_cycles rec_
  in
  pf "  trace duration     : %.2f simulated seconds (%d user actions)\n"
    (sec s.Workloads.Interactive.duration_cycles) s.Workloads.Interactive.actions;
  pf "  syscalls           : %d -> %d (%.1f%% fewer)\n"
    est.Ktrace.Savings.syscalls_before est.Ktrace.Savings.syscalls_after
    (pct_faster est.Ktrace.Savings.syscalls_before est.Ktrace.Savings.syscalls_after);
  pf "  bytes user<->kernel: %d -> %d (%.1f%% fewer)\n"
    est.Ktrace.Savings.bytes_before est.Ktrace.Savings.bytes_after
    (pct_faster est.Ktrace.Savings.bytes_before est.Ktrace.Savings.bytes_after);
  pf "  estimated saving   : %.2f s/hour\n" est.Ktrace.Savings.seconds_saved_per_hour;
  (* show the mined patterns that justify the new syscalls *)
  let g = Ktrace.Syscall_graph.of_recorder rec_ in
  pf "  heaviest syscall-graph edges:\n";
  List.iteri
    (fun i (s, d, w) ->
      if i < 5 then
        pf "    %-10s -> %-10s %d\n" (Ksyscall.Sysno.to_string s)
          (Ksyscall.Sysno.to_string d) w)
    (Ktrace.Syscall_graph.edges g)

(* ----------------------------------------------------------------- E3 *)

let e3 () =
  header "E3" "Cosy micro-benchmarks (syscall sequences in one compound)"
    "individual system calls sped up by 40-90% for common CPU-bound \
     user applications";
  let iterations = sc 2_000 in
  let nsmall = if !smoke then 10 else 100 in
  pf "%-24s %12s %12s %10s\n" "sequence" "plain(s)" "cosy(s)" "speedup";
  let bench name ?(setup = fun _ -> ()) ~plain ~compound () =
    let t1 = Core.boot_with Core.Config.default in
    setup t1;
    let (), p = Ksim.Kernel.timed (Core.kernel t1) (fun () -> plain t1) in
    let t2 = Core.boot_with Core.Config.default in
    setup t2;
    let exec = Core.cosy t2 in
    let (), c =
      Ksim.Kernel.timed (Core.kernel t2) (fun () ->
          ignore (Cosy.Cosy_exec.submit exec (compound t2)))
    in
    pf "%-24s %12.6f %12.6f %9.1f%%\n" name
      (sec p.Ksim.Kernel.elapsed) (sec c.Ksim.Kernel.elapsed)
      (pct_faster p.Ksim.Kernel.elapsed c.Ksim.Kernel.elapsed)
  in
  (* getpid in a loop: pure boundary-crossing cost *)
  bench "getpid xN"
    ~plain:(fun t ->
      for _ = 1 to iterations do
        ignore (Core.Syscall.sys_getpid (Core.sys t))
      done)
    ~compound:(fun _t ->
      let c = Cosy.Cosy_lib.create () in
      let i = Cosy.Cosy_lib.set_fresh c (Cosy.Cosy_op.Const 0) in
      let top = Cosy.Cosy_lib.next_index c in
      let cond =
        Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Alt (Cosy.Cosy_op.Slot i)
          (Cosy.Cosy_op.Const iterations)
      in
      let jz = Cosy.Cosy_lib.next_index c in
      Cosy.Cosy_lib.jz c (Cosy.Cosy_op.Slot cond) 0;
      ignore (Cosy.Cosy_lib.syscall c "getpid" []);
      Cosy.Cosy_lib.arith c ~dst:i Cosy.Cosy_op.Aadd (Cosy.Cosy_op.Slot i)
        (Cosy.Cosy_op.Const 1);
      Cosy.Cosy_lib.jmp c top;
      Cosy.Cosy_lib.patch_jump c ~at:jz ~target:(Cosy.Cosy_lib.next_index c);
      Cosy.Cosy_lib.finish c)
    ();
  (* lseek+read loop over a file *)
  let file_setup t =
    ignore
      (Core.ok
         (Core.Syscall.sys_open_write_close (Core.sys t) ~path:"/seq"
            ~data:(Bytes.make 65536 's') ~flags:Core.o_create))
  in
  bench "lseek+read xN" ~setup:file_setup
    ~plain:(fun t ->
      let fd = Core.ok (Core.Syscall.sys_open (Core.sys t) ~path:"/seq" ~flags:Core.o_rdonly) in
      for k = 0 to (iterations / 2) - 1 do
        ignore
          (Core.ok
             (Core.Syscall.sys_lseek (Core.sys t) ~fd
                ~off:(k * 64 mod 65536) ~whence:Kvfs.Vfs.SEEK_SET));
        ignore (Core.ok (Core.Syscall.sys_read (Core.sys t) ~fd ~len:64))
      done;
      ignore (Core.ok (Core.Syscall.sys_close (Core.sys t) ~fd)))
    ~compound:(fun _t ->
      let c = Cosy.Cosy_lib.create () in
      let buf = Cosy.Cosy_lib.alloc_shared c 64 in
      let fd = Cosy.Cosy_lib.syscall c "open" [ Cosy.Cosy_op.Str "/seq"; Cosy.Cosy_op.Const 0 ] in
      let i = Cosy.Cosy_lib.set_fresh c (Cosy.Cosy_op.Const 0) in
      let top = Cosy.Cosy_lib.next_index c in
      let cond =
        Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Alt (Cosy.Cosy_op.Slot i)
          (Cosy.Cosy_op.Const (iterations / 2))
      in
      let jz = Cosy.Cosy_lib.next_index c in
      Cosy.Cosy_lib.jz c (Cosy.Cosy_op.Slot cond) 0;
      let o1 = Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Amul (Cosy.Cosy_op.Slot i) (Cosy.Cosy_op.Const 64) in
      let off = Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Amod (Cosy.Cosy_op.Slot o1) (Cosy.Cosy_op.Const 65536) in
      ignore
        (Cosy.Cosy_lib.syscall c "lseek"
           [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Slot off; Cosy.Cosy_op.Const 0 ]);
      ignore
        (Cosy.Cosy_lib.syscall c "read"
           [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Shared buf; Cosy.Cosy_op.Const 64 ]);
      Cosy.Cosy_lib.arith c ~dst:i Cosy.Cosy_op.Aadd (Cosy.Cosy_op.Slot i) (Cosy.Cosy_op.Const 1);
      Cosy.Cosy_lib.jmp c top;
      Cosy.Cosy_lib.patch_jump c ~at:jz ~target:(Cosy.Cosy_lib.next_index c);
      ignore (Cosy.Cosy_lib.syscall c "close" [ Cosy.Cosy_op.Slot fd ]);
      Cosy.Cosy_lib.finish c)
    ();
  (* open-read-close of many small files *)
  let many_setup t =
    ignore (Core.Syscall.sys_mkdir (Core.sys t) ~path:"/m");
    for i = 0 to nsmall - 1 do
      ignore
        (Core.ok
           (Core.Syscall.sys_open_write_close (Core.sys t)
              ~path:(Printf.sprintf "/m/f%02d" i)
              ~data:(Bytes.make 256 'x') ~flags:Core.o_create))
    done
  in
  bench (Printf.sprintf "open-read-close x%d" nsmall) ~setup:many_setup
    ~plain:(fun t ->
      for i = 0 to nsmall - 1 do
        let path = Printf.sprintf "/m/f%02d" i in
        let fd = Core.ok (Core.Syscall.sys_open (Core.sys t) ~path ~flags:Core.o_rdonly) in
        ignore (Core.ok (Core.Syscall.sys_read (Core.sys t) ~fd ~len:256));
        ignore (Core.ok (Core.Syscall.sys_close (Core.sys t) ~fd))
      done)
    ~compound:(fun _t ->
      let c = Cosy.Cosy_lib.create () in
      let buf = Cosy.Cosy_lib.alloc_shared c 256 in
      for i = 0 to nsmall - 1 do
        let path = Printf.sprintf "/m/f%02d" i in
        let fd = Cosy.Cosy_lib.syscall c "open" [ Cosy.Cosy_op.Str path; Cosy.Cosy_op.Const 0 ] in
        ignore
          (Cosy.Cosy_lib.syscall c "read"
             [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Shared buf; Cosy.Cosy_op.Const 256 ]);
        ignore (Cosy.Cosy_lib.syscall c "close" [ Cosy.Cosy_op.Slot fd ])
      done;
      Cosy.Cosy_lib.finish c)
    ()

(* ----------------------------------------------------------------- E4 *)

let e4 () =
  header "E4" "Cosy applications (database patterns, static web server)"
    "20-80% speedup for CPU-bound applications with minimal code changes \
     (the sendfile precedent the paper cites reports 92-116%)";
  pf "%-24s %12s %12s %10s\n" "application" "plain(s)" "cosy(s)" "speedup";
  let db_cfg =
    { Workloads.Database.default_config with records = sc 1_000; lookups = sc 2_000 }
  in
  let ws_cfg = { Workloads.Webserver.default_config with requests = sc 500 } in
  let db () =
    let t1 = Core.boot_with Core.Config.default in
    Workloads.Database.setup ~config:db_cfg (Core.sys t1);
    let p = Workloads.Database.run_plain ~config:db_cfg (Core.sys t1) in
    let t2 = Core.boot_with Core.Config.default in
    Workloads.Database.setup ~config:db_cfg (Core.sys t2);
    let c, _ = Workloads.Database.run_cosy ~config:db_cfg (Core.sys t2) in
    pf "%-24s %12.6f %12.6f %9.1f%%\n" "database (rand+seq)"
      (sec p.Workloads.Database.times.Ksim.Kernel.elapsed)
      (sec c.Workloads.Database.times.Ksim.Kernel.elapsed)
      (pct_faster p.Workloads.Database.times.Ksim.Kernel.elapsed
         c.Workloads.Database.times.Ksim.Kernel.elapsed)
  in
  let ws () =
    let t1 = Core.boot_with Core.Config.default in
    Workloads.Webserver.setup ~config:ws_cfg (Core.sys t1);
    let p = Workloads.Webserver.run_plain ~config:ws_cfg (Core.sys t1) in
    let t2 = Core.boot_with Core.Config.default in
    Workloads.Webserver.setup ~config:ws_cfg (Core.sys t2);
    let c, _ = Workloads.Webserver.run_cosy ~config:ws_cfg (Core.sys t2) in
    let t3 = Core.boot_with Core.Config.default in
    Workloads.Webserver.setup ~config:ws_cfg (Core.sys t3);
    let sf = Workloads.Webserver.run_sendfile ~config:ws_cfg (Core.sys t3) in
    pf "%-24s %12.6f %12.6f %9.1f%%\n" "web server (cosy)"
      (sec p.Workloads.Webserver.times.Ksim.Kernel.elapsed)
      (sec c.Workloads.Webserver.times.Ksim.Kernel.elapsed)
      (pct_faster p.Workloads.Webserver.times.Ksim.Kernel.elapsed
         c.Workloads.Webserver.times.Ksim.Kernel.elapsed);
    pf "%-24s %12.6f %12.6f %9.1f%%\n" "web server (sendfile)"
      (sec p.Workloads.Webserver.times.Ksim.Kernel.elapsed)
      (sec sf.Workloads.Webserver.times.Ksim.Kernel.elapsed)
      (pct_faster p.Workloads.Webserver.times.Ksim.Kernel.elapsed
         sf.Workloads.Webserver.times.Ksim.Kernel.elapsed)
  in
  db ();
  ws ();
  (* sensitivity: the win shrinks as records grow (copies amortize) *)
  pf "  record-size sensitivity (database):\n";
  List.iter
    (fun record_size ->
      let cfg = { Workloads.Database.default_config with record_size; lookups = sc 1_000 } in
      let t1 = Core.boot_with Core.Config.default in
      Workloads.Database.setup ~config:cfg (Core.sys t1);
      let p = Workloads.Database.run_plain ~config:cfg (Core.sys t1) in
      let t2 = Core.boot_with Core.Config.default in
      Workloads.Database.setup ~config:cfg (Core.sys t2);
      let c, _ = Workloads.Database.run_cosy ~config:cfg (Core.sys t2) in
      pf "    %6d B records: %5.1f%% faster\n" record_size
        (pct_faster p.Workloads.Database.times.Ksim.Kernel.elapsed
           c.Workloads.Database.times.Ksim.Kernel.elapsed))
    [ 64; 256; 1024; 4096 ]

(* ----------------------------------------------------------------- E5 *)

let e5 () =
  header "E5" "Kefence on Wrapfs (Am-utils build)"
    "+1.4% elapsed; max 2,085 outstanding pages; mean allocation 80 bytes";
  let cfg = { Workloads.Amutils.default_config with source_files = sc 1_000; prime_objects = false } in
  let t1 = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kmalloc } in
  Workloads.Amutils.setup ~config:cfg (Core.sys t1);
  let a = Workloads.Amutils.run ~config:cfg (Core.sys t1) in
  let t2 = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kefence Kefence.Crash } in
  Workloads.Amutils.setup ~config:cfg (Core.sys t2);
  let b = Workloads.Amutils.run ~config:cfg (Core.sys t2) in
  pf "  vanilla wrapfs (kmalloc) : %.4f s elapsed\n" (sec a.Workloads.Amutils.times.Ksim.Kernel.elapsed);
  pf "  kefence wrapfs (vmalloc) : %.4f s elapsed\n" (sec b.Workloads.Amutils.times.Ksim.Kernel.elapsed);
  pf "  overhead                 : %.2f%% elapsed (paper: 1.4%%)\n"
    (pct_over a.Workloads.Amutils.times.Ksim.Kernel.elapsed
       b.Workloads.Amutils.times.Ksim.Kernel.elapsed);
  let stats = Ksim.Kalloc.stats (Ksim.Kernel.alloc (Core.kernel t2)) in
  pf "  max outstanding pages    : %d (paper: 2,085)\n" stats.Ksim.Kalloc.pages_high_water;
  pf "  mean allocation size     : %.0f B (paper: 80 B)\n" stats.Ksim.Kalloc.mean_alloc_bytes;
  (match Core.kefence t2 with
  | Some kf -> pf "  overflows detected       : %d (expected: 0)\n" (Kefence.overflows_detected kf)
  | None -> ());
  let tlb = Ksim.Address_space.tlb (Ksim.Kernel.kspace (Core.kernel t2)) in
  let tlb1 = Ksim.Address_space.tlb (Ksim.Kernel.kspace (Core.kernel t1)) in
  pf "  kernel TLB misses        : %d (kmalloc) vs %d (kefence)\n"
    (Ksim.Tlb.misses tlb1) (Ksim.Tlb.misses tlb)

(* ----------------------------------------------------------------- E6 *)

let e6 () =
  header "E6" "event monitoring under PostMark (dcache_lock)"
    "+3.9% dispatcher+ring; +61% polling user logger (no disk); +103% \
     logger writing to disk; system time effectively constant";
  let cfg = { Workloads.Postmark.default_config with files = sc 200; transactions = sc 1_000 } in
  let run ?(mon = `None) () =
    let t = Core.boot_with Core.Config.default in
    let sys = Core.sys t in
    match mon with
    | `None ->
        let s = Workloads.Postmark.run ~config:cfg sys in
        (t, s.Workloads.Postmark.times, 0, 0)
    | `Ring ->
        let d = Core.enable_monitoring t in
        let s = Workloads.Postmark.run ~config:cfg sys in
        Core.disable_monitoring t;
        (t, s.Workloads.Postmark.times, Kmonitor.Dispatcher.events d, 0)
    | `Logger write_to_disk ->
        let d = Core.enable_monitoring t in
        let cd = Kmonitor.Chardev.create (Core.kernel t) d in
        let lib = Kmonitor.Libkernevents.create ~strategy:Kmonitor.Libkernevents.Polling cd in
        let lg = Kmonitor.Disk_logger.create ~write_to_disk (Core.kernel t) lib in
        let cfg = { cfg with Workloads.Postmark.pump = (fun () -> Kmonitor.Disk_logger.pump lg) } in
        let s = Workloads.Postmark.run ~config:cfg sys in
        Kmonitor.Disk_logger.drain lg;
        Core.disable_monitoring t;
        (t, s.Workloads.Postmark.times, Kmonitor.Dispatcher.events d,
         Kmonitor.Disk_logger.records_written lg)
  in
  let tb, base, _, _ = run () in
  let _, ring, ev_ring, _ = run ~mon:`Ring () in
  let _, nolog, _, _ = run ~mon:(`Logger false) () in
  let _, wlog, _, logged = run ~mon:(`Logger true) () in
  let line name (t : Ksim.Kernel.times) extra =
    pf "  %-28s elapsed %9.4f s (%+6.1f%%)  system %9.4f s%s\n" name
      (sec t.Ksim.Kernel.elapsed)
      (pct_over base.Ksim.Kernel.elapsed t.Ksim.Kernel.elapsed)
      (sec t.Ksim.Kernel.stime) extra
  in
  line "vanilla" base "";
  line "dispatcher + ring" ring (Printf.sprintf "  (%d events)" ev_ring);
  line "+ polling logger (no disk)" nolog "";
  line "+ logger writing to disk" wlog (Printf.sprintf "  (%d records)" logged);
  let rate =
    float_of_int ev_ring /. 2. /. sec ring.Ksim.Kernel.elapsed
  in
  pf "  dcache_lock rate: %.0f acquisitions/s of simulated time (paper: 8,805/s)\n" rate;
  let st = Core.stats tb in
  let hits = find_counter st "blockdev.cache_hits" in
  let misses = find_counter st "blockdev.cache_misses" in
  pf "  block cache: %d hits / %d misses (%.1f%% hit rate), %d evictions \
      (second-chance)\n"
    hits misses
    (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)))
    (find_counter st "blockdev.evictions")

(* ----------------------------------------------------------------- E7 *)

let e7 () =
  header "E7" "KGCC-compiled journalfs (Reiserfs stand-in)"
    "Am-utils compile: system +33%, elapsed +20%.  PostMark: system x14, \
     elapsed x3";
  let am fs =
    let t = Core.boot_with { Core.Config.default with fs } in
    let cfg = { Workloads.Amutils.default_config with source_files = sc 200 } in
    Workloads.Amutils.setup ~config:cfg (Core.sys t);
    (Workloads.Amutils.run ~config:cfg (Core.sys t)).Workloads.Amutils.times
  in
  let pm fs =
    let t = Core.boot_with { Core.Config.default with fs } in
    let cfg = { Workloads.Postmark.default_config with files = sc 200; transactions = sc 800 } in
    (Workloads.Postmark.run ~config:cfg (Core.sys t)).Workloads.Postmark.times
  in
  let show name (g : Ksim.Kernel.times) (k : Ksim.Kernel.times) =
    pf "  %-18s system %8.4f -> %8.4f s (x%.1f / %+.0f%%)   elapsed %8.4f -> %8.4f s (x%.1f / %+.0f%%)\n"
      name (sec g.Ksim.Kernel.stime) (sec k.Ksim.Kernel.stime)
      (ratio g.Ksim.Kernel.stime k.Ksim.Kernel.stime)
      (pct_over g.Ksim.Kernel.stime k.Ksim.Kernel.stime)
      (sec g.Ksim.Kernel.elapsed) (sec k.Ksim.Kernel.elapsed)
      (ratio g.Ksim.Kernel.elapsed k.Ksim.Kernel.elapsed)
      (pct_over g.Ksim.Kernel.elapsed k.Ksim.Kernel.elapsed)
  in
  show "am-utils compile" (am Core.Journalfs) (am Core.Journalfs_kgcc);
  show "postmark" (pm Core.Journalfs) (pm Core.Journalfs_kgcc);
  (* block-cache eviction policy, at a cache small enough to thrash (the
     memfs default of ~150k blocks never evicts at bench scale): a hot
     set re-read every iteration interleaved with a one-touch scan.
     FIFO ages the hot blocks out; second-chance spares them. *)
  let evict_probe policy =
    let t = Core.boot_with Core.Config.default in
    let bd = Kvfs.Block_dev.create ~cache_blocks:64 ~policy (Core.kernel t) in
    for i = 0 to sc 4_000 - 1 do
      for h = 0 to 7 do Kvfs.Block_dev.read_block bd h done;
      Kvfs.Block_dev.read_block bd (1_000 + i)
    done;
    Kvfs.Block_dev.stats bd
  in
  let hit_rate (st : Kvfs.Block_dev.stats) =
    100. *. float_of_int st.Kvfs.Block_dev.hits
    /. float_of_int (max 1 (st.Kvfs.Block_dev.hits + st.Kvfs.Block_dev.misses))
  in
  let f = evict_probe Kvfs.Block_dev.Fifo in
  let s = evict_probe Kvfs.Block_dev.Second_chance in
  pf "  block-cache eviction (64-block cache, hot set + scan): FIFO %.1f%% \
      hit rate, second-chance %.1f%% (%+.1f pts), evictions %d -> %d\n"
    (hit_rate f) (hit_rate s)
    (hit_rate s -. hit_rate f)
    f.Kvfs.Block_dev.evictions s.Kvfs.Block_dev.evictions

(* ----------------------------------------------------------------- E8 *)

(* a small corpus of kernel-flavoured mini-C for compile-time statistics *)
let corpus =
  [
    ("journalfs", Kvfs.Journalfs.source);
    ( "string-utils",
      {|
int kstrlen(char *s) { int n = 0; while (s[n] != 0) n++; return n; }
int kstrcmp(char *a, char *b) {
  int i = 0;
  while (a[i] != 0 && b[i] != 0 && a[i] == b[i]) i++;
  return a[i] - b[i];
}
int khash(char *s, int len) {
  int h = 5381;
  int i;
  for (i = 0; i < len; i++) h = h * 33 + s[i];
  return h;
}
|} );
    ( "inode-ops",
      {|
int inode_update(int *inode, int now) {
  /* repeated field access through the same pointer: the common kernel
     idiom check-CSE exists for */
  int dirty = 0;
  if (inode[2] < now) { inode[2] = now; dirty = dirty + inode[2]; }
  if (inode[3] < inode[2]) { inode[3] = inode[2]; dirty = dirty + inode[3]; }
  inode[4] = inode[4] + 1;
  inode[5] = inode[4] + inode[2] + inode[3];
  return dirty + inode[5] + inode[5] + inode[4];
}
int quota_charge(int *q, int blocks) {
  q[0] = q[0] + blocks;
  q[1] = q[1] + blocks;
  if (q[0] > q[2]) return 0 - (q[0] - q[2]);
  if (q[1] > q[3]) return 0 - (q[1] - q[3]);
  return q[0] + q[1];
}
|} );
    ( "list-walk",
      {|
int sum_table(int *table, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    s = s + table[i] + table[i];    /* repeated access: CSE fodder */
    if (table[i] > 100) s = s - table[i];
  }
  return s;
}
int copy_table(int *dst, int *src, int n) {
  int i;
  for (i = 0; i < n; i++) dst[i] = src[i];
  return n;
}
|} );
  ]

let e8 () =
  header "E8" "KGCC compile-time statistics (ablation)"
    "BCC-instrumented code 15-20x larger; check-CSE removes more than \
     half the checks for typical kernel code; splay map nearly optimal \
     under locality";
  pf "%-14s %10s %10s %10s %12s\n" "module" "checks" "CSE-cut" "remaining" "size growth";
  List.iter
    (fun (name, src) ->
      let p = Minic.Parser.parse_program ~file:(name ^ ".c") src in
      let r = Kgcc.Compile.compile ~optimize:true p in
      pf "%-14s %10d %10d %10d %11.1fx\n" name r.Kgcc.Compile.checks_inserted
        r.Kgcc.Compile.checks_removed
        (Kgcc.Compile.checks_remaining r)
        (float_of_int r.Kgcc.Compile.size_after
        /. float_of_int (max 1 r.Kgcc.Compile.size_before)))
    corpus;
  (* splay locality: rotations per lookup, local vs scattered pattern *)
  let splay_probe pattern =
    let t = Kgcc.Splay.create () in
    for i = 0 to 255 do
      Kgcc.Splay.insert t ~base:(i * 64) ~size:64 ~meta:i
    done;
    Kgcc.Splay.reset_stats t;
    for i = 0 to 9_999 do
      let addr = match pattern with
        | `Local -> 4_096 + (i mod 3)
        | `Scattered -> i * 2_654_435 mod (256 * 64)
      in
      ignore (Kgcc.Splay.find_containing t addr)
    done;
    float_of_int (Kgcc.Splay.rotations t) /. 10_000.
  in
  pf "  splay rotations/lookup: %.2f under locality, %.2f scattered\n"
    (splay_probe `Local) (splay_probe `Scattered)

(* ----------------------------------------------------------------- E9 *)

let e9 () =
  header "E9" "dynamic deinstrumentation (ablation of the §3.5 plan)"
    "checks deactivate after executing a sufficient number of times, \
     reclaiming performance for hot paths";
  let hot =
    Printf.sprintf
      {|
int main(void) {
  int a[16];
  int i;
  int s = 0;
  for (i = 0; i < 16; i++) a[i] = i;
  for (i = 0; i < %d; i++) s = s + a[i %% 16];
  return s;
}
|}
      (sc 20_000)
  in
  let run threshold =
    let clock = Ksim.Sim_clock.create () in
    let mem = Ksim.Phys_mem.create ~page_size:4096 in
    let space =
      Ksim.Address_space.create ~name:"e9" ~mem ~clock ~cost:Ksim.Cost_model.default ()
    in
    let interp =
      Minic.Interp.create ~space ~clock ~cost:Ksim.Cost_model.default
        ~base_vpn:16 ~pages:64
    in
    let instrumented = threshold <> Some (-1) in
    let stats = ref None in
    (if instrumented then begin
       let rt =
         Kgcc.Kgcc_runtime.create ?deinstrument_after:threshold ~clock
           ~cost:Ksim.Cost_model.default ()
       in
       Kgcc.Kgcc_runtime.attach rt interp;
       let p = Minic.Parser.parse_program hot in
       let r = Kgcc.Compile.compile p in
       ignore (Minic.Interp.load_program interp r.Kgcc.Compile.program);
       stats := Some rt
     end
     else ignore (Minic.Interp.parse_and_load interp hot));
    let t0 = Ksim.Sim_clock.now clock in
    ignore (Minic.Interp.run interp "main");
    let cycles = Ksim.Sim_clock.now clock - t0 in
    (cycles, Option.map Kgcc.Kgcc_runtime.stats !stats)
  in
  let baseline, _ = run (Some (-1)) in
  pf "  %-22s %12s %10s %10s %10s\n" "configuration" "cycles" "overhead"
    "executed" "skipped";
  pf "  %-22s %12d %10s %10s %10s\n" "uninstrumented" baseline "-" "-" "-";
  List.iter
    (fun threshold ->
      let cycles, stats = run threshold in
      let executed, skipped =
        match stats with
        | Some s -> (s.Kgcc.Kgcc_runtime.checks_executed, s.Kgcc.Kgcc_runtime.checks_skipped)
        | None -> (0, 0)
      in
      let name =
        match threshold with
        | None -> "checks always on"
        | Some n -> Printf.sprintf "deinstrument after %d" n

      in
      pf "  %-22s %12d %9.0f%% %10d %10d\n" name cycles
        (pct_over baseline cycles) executed skipped)
    [ None; Some 10_000; Some 1_000; Some 100; Some 10 ]

(* ---------------------------------------------------------------- E10 *)

let e10 () =
  header "E10" "Cosy user-function protection modes (ablation)"
    "isolated segment: maximum security but per-call overhead; data-only \
     segment: no additional runtime overhead; heuristic authentication \
     turns checks off after enough safe runs (§2.3-2.4)";
  let user_program = "int work(int x) { int i; int s = 0; for (i = 0; i < 50; i++) s += x; return s; }" in
  let calls = sc 500 in
  let run ~mode ~trust_after =
    let t = Core.boot_with Core.Config.default in
    let exec =
      Core.cosy
        ~policy:{ Cosy.Cosy_safety.mode; watchdog_budget = max_int; trust_after }
        ~user_program t
    in
    let c = Cosy.Cosy_lib.create () in
    let i = Cosy.Cosy_lib.set_fresh c (Cosy.Cosy_op.Const 0) in
    let top = Cosy.Cosy_lib.next_index c in
    let cond =
      Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Alt (Cosy.Cosy_op.Slot i)
        (Cosy.Cosy_op.Const calls)
    in
    let jz = Cosy.Cosy_lib.next_index c in
    Cosy.Cosy_lib.jz c (Cosy.Cosy_op.Slot cond) 0;
    ignore (Cosy.Cosy_lib.call_user c "work" [ Cosy.Cosy_op.Slot i ]);
    Cosy.Cosy_lib.arith c ~dst:i Cosy.Cosy_op.Aadd (Cosy.Cosy_op.Slot i) (Cosy.Cosy_op.Const 1);
    Cosy.Cosy_lib.jmp c top;
    Cosy.Cosy_lib.patch_jump c ~at:jz ~target:(Cosy.Cosy_lib.next_index c);
    let (), times =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          ignore (Cosy.Cosy_exec.submit exec (Cosy.Cosy_lib.finish c)))
    in
    (times.Ksim.Kernel.elapsed, (Cosy.Cosy_exec.stats exec).Cosy.Cosy_exec.segment_loads)
  in
  let trusted, _ = run ~mode:Cosy.Cosy_safety.Trusted ~trust_after:None in
  pf "  %-34s %12s %10s %14s\n" "mode" "cycles" "overhead" "segment loads";
  List.iter
    (fun (name, mode, trust_after) ->
      let cycles, loads = run ~mode ~trust_after in
      pf "  %-34s %12d %9.1f%% %14d\n" name cycles (pct_over trusted cycles) loads)
    [
      ("trusted (no protection)", Cosy.Cosy_safety.Trusted, None);
      ("data-only segment", Cosy.Cosy_safety.Data_segment, None);
      ("isolated segment", Cosy.Cosy_safety.Isolated_segment, None);
      ( "isolated, authenticate after 50",
        Cosy.Cosy_safety.Isolated_segment,
        Some 50 );
    ]

(* ---------------------------------------------------------------- E11 *)

let e11 () =
  header "E11" "cost-model sensitivity (ablation)"
    "the paper's wins are ratios of boundary costs saved; DESIGN.md calls \
     for sweeping them.  Cosy's advantage should grow with the trap cost \
     and shrink toward zero as crossings become free";
  pf "  %14s %18s %18s\n" "trap cost" "database speedup" "lsdir rdplus gain";
  List.iter
    (fun scale ->
      let cost =
        {
          Ksim.Cost_model.default with
          Ksim.Cost_model.syscall_entry =
            Ksim.Cost_model.default.Ksim.Cost_model.syscall_entry * scale / 4;
          syscall_exit =
            Ksim.Cost_model.default.Ksim.Cost_model.syscall_exit * scale / 4;
          user_stub =
            Ksim.Cost_model.default.Ksim.Cost_model.user_stub * scale / 4;
        }
      in
      let config = { Ksim.Kernel.default_config with cost } in
      let dcfg =
        { Workloads.Database.default_config with records = sc 1_000; lookups = sc 2_000 }
      in
      let db =
        let t1 = Core.boot_with { Core.Config.default with kernel = config } in
        Workloads.Database.setup ~config:dcfg (Core.sys t1);
        let p = Workloads.Database.run_plain ~config:dcfg (Core.sys t1) in
        let t2 = Core.boot_with { Core.Config.default with kernel = config } in
        Workloads.Database.setup ~config:dcfg (Core.sys t2);
        let c, _ = Workloads.Database.run_cosy ~config:dcfg (Core.sys t2) in
        pct_faster p.Workloads.Database.times.Ksim.Kernel.elapsed
          c.Workloads.Database.times.Ksim.Kernel.elapsed
      in
      let ls =
        let t1 = Core.boot_with { Core.Config.default with kernel = config } in
        Workloads.Lsdir.setup (Core.sys t1) ~dir:"/d" ~n:(sc 1_000);
        let p = Workloads.Lsdir.run_plain (Core.sys t1) ~dir:"/d" in
        let t2 = Core.boot_with { Core.Config.default with kernel = config } in
        Workloads.Lsdir.setup (Core.sys t2) ~dir:"/d" ~n:(sc 1_000);
        let m = Workloads.Lsdir.run_readdirplus (Core.sys t2) ~dir:"/d" in
        pct_faster p.Workloads.Lsdir.times.Ksim.Kernel.elapsed
          m.Workloads.Lsdir.times.Ksim.Kernel.elapsed
      in
      pf "  %12.2fx %17.1f%% %17.1f%%\n" (float_of_int scale /. 4.) db ls)
    (if !smoke then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ])

(* ---------------------------------------------------------------- E12 *)

let e12 () =
  header "E12" "batched submission ring (kring): crossings vs batch size"
    "extends §2 consolidation: a batch of N calls costs 2 boundary \
     crossings (one submit trap, replies reaped from the completion \
     queue) instead of 2N trap halves — the io_uring shape";
  let total = sc 256 in
  let mk_reqs () =
    Ksyscall.Syscall.Mkdir { path = "/r" }
    :: List.init (total - 1) (fun i ->
           Ksyscall.Syscall.Open_write_close
             {
               path = Printf.sprintf "/r/f%03d" (i + 1);
               data = Bytes.make 32 (Char.chr (Char.code 'a' + (i mod 26)));
               flags = Core.o_create;
             })
  in
  (* synchronous baseline: one trap per call *)
  let t_sync = Core.boot_with Core.Config.default in
  let sync_times, sync_crossings =
    let k = Core.kernel t_sync in
    let c0 = Ksim.Kernel.crossings k in
    let (), tm =
      Ksim.Kernel.timed k (fun () ->
          List.iter
            (fun r -> ignore (Core.Syscall.invoke (Core.sys t_sync) r))
            (mk_reqs ()))
    in
    (tm, Ksim.Kernel.crossings k - c0)
  in
  pf "  %d file ops synchronously: %d crossings, %.6f s\n" total
    sync_crossings (sec sync_times.Ksim.Kernel.elapsed);
  pf "  %8s %10s %9s %12s %9s %14s\n" "batch" "crossings" "vs sync"
    "elapsed(s)" "faster" "saved(kstats)";
  List.iter
    (fun batch ->
      let t = Core.boot_with Core.Config.default in
      let k = Core.kernel t in
      let c0 = Ksim.Kernel.crossings k in
      let ring = Core.ring ~sq_entries:batch t in
      let (), tm =
        Ksim.Kernel.timed k (fun () ->
            ignore (Kring.run_batch ring (mk_reqs ())))
      in
      let crossings = Ksim.Kernel.crossings k - c0 in
      let saved =
        match Kstats.find (Core.stats t) "ring.crossings_saved" with
        | Some (Kstats.Counter_v v) -> v
        | _ -> 0
      in
      pf "  %8d %10d %8.1fx %12.6f %8.1f%% %14d\n" batch crossings
        (float_of_int sync_crossings /. float_of_int (max 1 crossings))
        (sec tm.Ksim.Kernel.elapsed)
        (pct_faster sync_times.Ksim.Kernel.elapsed tm.Ksim.Kernel.elapsed)
        saved)
    [ 1; 4; 8; 32; 128 ]

(* ---------------------------------------------------------------- E13 *)

let e13 () =
  header "E13" "SMP scalability: global dcache_lock vs sharded dcache"
    "no direct number — the paper's monitored dcache_lock (8,805 acq/s, \
     E6) is the canonical contended hot spot; claim under test is the \
     scaling shape once the global lock is split";
  (* a dcache-bound serving workload: small documents of heterogeneous
     size, so path lookups dominate and concurrent instances cannot
     phase-lock around the global dcache_lock (see Webserver.config) *)
  let cfg =
    { Workloads.Webserver.default_config with
      requests = max 50 (sc 300);
      doc_size = 8_192;
      doc_size_spread = 4_096 }
  in
  let sweep = [ 1; 2; 4; 8 ] in
  let modes = [ ("global", 1); ("sharded", 64) ] in
  pf "  %5s %-8s %8s %12s %11s %10s %10s %12s\n" "ncpus" "dcache" "steps"
    "makespan(s)" "steps/s" "lock acq" "contended" "spin cycles";
  let results = Hashtbl.create 8 in
  List.iter
    (fun ncpus ->
      List.iter
        (fun (mode, shards) ->
          let t = Core.boot_with { Core.Config.default with ncpus = Some ncpus; dcache_shards = Some shards } in
          let insts =
            Workloads.Smp.webserver_instances ~config:cfg (Core.sys t) ncpus
          in
          let r = Workloads.Smp.run (Core.sys t) insts in
          let tput =
            float_of_int r.Workloads.Smp.steps /. sec r.Workloads.Smp.makespan
          in
          Hashtbl.replace results (ncpus, mode) (r, tput);
          pf "  %5d %-8s %8d %12.4f %11.0f %10d %9.2f%% %12d\n" ncpus mode
            r.Workloads.Smp.steps
            (sec r.Workloads.Smp.makespan)
            tput r.Workloads.Smp.lock_acquisitions
            (100.
            *. float_of_int r.Workloads.Smp.contended
            /. float_of_int (max 1 r.Workloads.Smp.lock_acquisitions))
            r.Workloads.Smp.spin_cycles;
          add_row "E13"
            (Printf.sprintf
               "{\"ncpus\":%d,\"dcache\":\"%s\",\"steps\":%d,\
                \"makespan_cycles\":%d,\"lock_acquisitions\":%d,\
                \"contended\":%d,\"spin_cycles\":%d}"
               ncpus mode r.Workloads.Smp.steps r.Workloads.Smp.makespan
               r.Workloads.Smp.lock_acquisitions r.Workloads.Smp.contended
               r.Workloads.Smp.spin_cycles))
        modes)
    sweep;
  let tput n m = snd (Hashtbl.find results (n, m)) in
  pf "  speedup vs 1 cpu: ";
  List.iter
    (fun (mode, _) ->
      pf " %s" mode;
      List.iter (fun n -> pf " %d:%.2fx" n (tput n mode /. tput 1 mode)) sweep)
    modes;
  pf "\n";
  pf "  sharded vs global at 8 cpus: %.2fx throughput\n"
    (tput 8 "sharded" /. tput 8 "global");
  let r1, _ = Hashtbl.find results (1, "global") in
  pf "  contended acquisitions at 1 cpu: %d (expect 0: no remote holder \
      can exist)\n"
    r1.Workloads.Smp.contended;
  (* the monitoring story: E6's contention monitor pointed at this
     workload sees the global dcache_lock as the hottest lock *)
  let t = Core.boot_with { Core.Config.default with ncpus = Some 4; dcache_shards = Some 1 } in
  let d = Core.enable_monitoring t in
  let mons = Kmonitor.Monitors.register_standard d in
  let insts = Workloads.Smp.webserver_instances ~config:cfg (Core.sys t) 4 in
  ignore (Workloads.Smp.run (Core.sys t) insts);
  Core.disable_monitoring t;
  let cn = mons.Kmonitor.Monitors.contention in
  pf "  monitored run (4 cpus, global lock): %d contended events seen, %d \
      spin cycles attributed\n"
    cn.Kmonitor.Monitors.cn_events cn.Kmonitor.Monitors.cn_spin_cycles;
  (match Kmonitor.Monitors.hottest_locks cn with
  | (obj, hits, spin) :: _ ->
      pf "  hottest lock: obj=%d with %d contended acquisitions, %d spin \
          cycles\n"
        obj hits spin
  | [] -> pf "  hottest lock: none (no contention observed)\n")

(* ----------------------------------------------------------------- E14 *)

(* The four C10K serving variants E14–E18 sweep, in print order. *)
let net_variants =
  [ Workloads.Webserver.Net_naive; Workloads.Webserver.Net_consolidated;
    Workloads.Webserver.Net_sendfile; Workloads.Webserver.Net_ring ]

(* One single-CPU webserver cell: boot [cfg], run [prepare] on the fresh
   system, set up variant [v] for [conns] connections, run [arm], then
   serve.  [core_ring] routes Net_ring's submission ring through
   [Core.ring] so the booted admission stage attaches to it. *)
let net_cell ?(prepare = ignore) ?(arm = ignore) ?(core_ring = false)
    ?(shed = false) cfg v ~conns =
  let t = Core.boot_with cfg in
  prepare t;
  let sys = Core.sys t in
  let config =
    { Workloads.Webserver.net_default_config with
      variant = v;
      conns;
      shed;
      make_ring = (if core_ring then Some (fun _ -> Core.ring t) else None) }
  in
  Workloads.Webserver.net_setup ~config sys;
  arm t;
  (t, Workloads.Webserver.run_net ~config sys)

let e14 () =
  header "E14" "C10K serving over knet: crossings and copies per data path"
    "no direct number — §2.2 (consolidation) and §2.3 (shared buffers / \
     zero-copy) applied to a socket workload; claim under test is that \
     sendfile and ring batching beat naive read+send on both boundary \
     crossings and copied bytes, at byte-identical response streams";
  let conn_counts = if !smoke then [ sc 200; sc 2_000 ] else [ 100; 1_000; 10_000 ] in
  let cpu_counts = [ 1; 4 ] in
  pf "  %5s %6s %-13s %7s %6s %10s %12s %9s %9s %9s\n" "ncpus" "conns"
    "variant" "served" "drops" "crossings" "copied(B)" "sent(KB)" "p50(us)"
    "p99(us)";
  (* (ncpus, conns, variant) -> (crossings, copied, digest) *)
  let results = Hashtbl.create 32 in
  List.iter
    (fun ncpus ->
      List.iter
        (fun conns ->
          List.iter
            (fun v ->
              let t = Core.boot_with { Core.Config.default with ncpus = Some ncpus } in
              let sys = Core.sys t in
              let kernel = Core.kernel t in
              let config =
                { Workloads.Webserver.net_default_config with
                  variant = v;
                  conns = max 1 (conns / ncpus) }
              in
              let c0 = Ksim.Kernel.crossings kernel in
              let fu0 = Ksim.Kernel.bytes_from_user kernel in
              let tu0 = Ksim.Kernel.bytes_to_user kernel in
              let served, sent, completed, digest =
                if ncpus = 1 then begin
                  Workloads.Webserver.net_setup ~config sys;
                  let r = Workloads.Webserver.run_net ~config sys in
                  ( r.Workloads.Webserver.n_served,
                    r.Workloads.Webserver.n_sent,
                    r.Workloads.Webserver.n_completed,
                    r.Workloads.Webserver.n_digest )
                end
                else begin
                  (* one listener per CPU, same total client population *)
                  let insts =
                    Workloads.Smp.webserver_net_instances ~config sys ncpus
                  in
                  ignore (Workloads.Smp.run sys insts);
                  let knet = Core.net t in
                  let completed = ref 0 in
                  for i = 0 to ncpus - 1 do
                    completed :=
                      !completed
                      + Knet.Traffic.completed knet
                          ~port:(config.Workloads.Webserver.port + i)
                  done;
                  (0, 0, !completed, "-")
                end
              in
              let stats = Core.stats t in
              let crossings = Ksim.Kernel.crossings kernel - c0 in
              let copied =
                Ksim.Kernel.bytes_from_user kernel - fu0
                + (Ksim.Kernel.bytes_to_user kernel - tu0)
              in
              let sent =
                if ncpus = 1 then sent else find_counter stats "net.bytes_out"
              in
              let served =
                if ncpus = 1 then served
                else find_counter stats "net.accepts" (* proxy: conns served *)
              in
              let drops = find_counter stats "net.backlog_drops" in
              let p50, p99 =
                match Kstats.find stats "net.request.latency" with
                | Some (Kstats.Hist_v h) -> (h.Kstats.v_p50, h.Kstats.v_p99)
                | _ -> (0, 0)
              in
              Hashtbl.replace results
                (ncpus, conns, Workloads.Webserver.net_variant_name v)
                (crossings, copied, digest);
              pf "  %5d %6d %-13s %7d %6d %10d %12d %9.0f %9.1f %9.1f\n" ncpus
                conns
                (Workloads.Webserver.net_variant_name v)
                served drops crossings copied
                (float_of_int sent /. 1024.)
                (sec p50 *. 1e6) (sec p99 *. 1e6);
              add_row "E14"
                (Printf.sprintf
                   "{\"ncpus\":%d,\"conns\":%d,\"variant\":\"%s\",\
                    \"served\":%d,\"completed\":%d,\"drops\":%d,\
                    \"crossings\":%d,\"copied_bytes\":%d,\"sent_bytes\":%d,\
                    \"latency_p50_cycles\":%d,\"latency_p99_cycles\":%d,\
                    \"digest\":\"%s\"}"
                   ncpus conns
                   (Workloads.Webserver.net_variant_name v)
                   served completed drops crossings copied sent p50 p99 digest))
            net_variants)
        conn_counts)
    cpu_counts;
  (* the paper's claims, at the largest population on one CPU *)
  let top = List.fold_left max 0 conn_counts in
  let get name = Hashtbl.find results (1, top, name) in
  let nx, nb, nd = get "naive" in
  List.iter
    (fun name ->
      let x, b, d = get name in
      pf "  %-13s vs naive at %d conns: %.2fx crossings, %.2fx copied \
          bytes, digests %s\n"
        name top (ratio nx x) (ratio nb b)
        (if d = nd then "equal" else "DIFFER"))
    [ "consolidated"; "sendfile"; "ring" ]

(* --------------------------------------------------- E15: kperf tracing *)

(* Tracing overhead on the E14 webserver: the same (variant, conns) cell
   is run three times — twice with the tracer disabled (proving disabled
   tracing costs zero cycles: both runs are bit-for-bit identical) and
   once with it enabled, where every stored record charges
   [trace_emit] cycles.  The claim under test is the kstats contract
   extended to tracing: disabled = free, enabled = under 2% of cycles
   even at 10k connections.  The traced run's span profile is the
   "where did the cycles go" answer E15 exists to produce. *)
let e15 () =
  header "E15" "kperf tracing overhead on the C10K webserver"
    "no direct number — §3 argues kernel-resident monitoring must be \
     cheap enough to leave on; claim under test is that full span \
     tracing of the 10k-connection sweep costs <2% cycles enabled and \
     exactly 0 disabled";
  let conns = sc 10_000 in
  let run_cell v ~trace =
    let t, _ =
      net_cell { Core.Config.default with trace = Some trace } v ~conns
    in
    (Ksim.Kernel.now (Core.kernel t), Core.perf t)
  in
  pf "  %-13s %6s %14s %14s %9s %10s %8s\n" "variant" "conns" "cycles(off)"
    "cycles(on)" "overhead" "events" "drops";
  let kperf_rows = ref [] in
  let top_tables = ref [] in
  List.iter
    (fun v ->
      let name = Workloads.Webserver.net_variant_name v in
      let off1, _ = run_cell v ~trace:false in
      let off2, _ = run_cell v ~trace:false in
      if off1 <> off2 then
        pf "  !! %s: untraced runs differ (%d vs %d) — determinism broken\n"
          name off1 off2;
      let on, perf = run_cell v ~trace:true in
      let overhead = pct_over off1 on in
      let events = Core.Perf.emitted perf in
      let drops = Core.Perf.drops perf + Core.Perf.overwritten perf in
      pf "  %-13s %6d %14d %14d %8.3f%% %10d %8d\n" name conns off1 on
        overhead events drops;
      top_tables := (name, Core.Perf.top ~n:5 perf) :: !top_tables;
      let row =
        Printf.sprintf
          "{\"variant\":\"%s\",\"conns\":%d,\"cycles_off\":%d,\
           \"cycles_off_repeat\":%d,\"cycles_on\":%d,\"overhead_pct\":%.4f,\
           \"events\":%d,\"ring_lost\":%d}"
          name conns off1 off2 on overhead events drops
      in
      kperf_rows := row :: !kperf_rows;
      add_row "E15" row)
    net_variants;
  (* the self-profile of the naive variant: where its cycles went *)
  (match List.assoc_opt "naive" !top_tables with
  | Some rows ->
      pf "\n  naive variant, top spans by self cycles:\n";
      List.iter
        (fun r ->
          pf "    %-32s %8d calls %14d self-cy %5.1f%%\n" r.Core.Perf.p_label
            r.Core.Perf.p_count r.Core.Perf.p_self (100. *. r.Core.Perf.p_share))
        rows
  | None -> ());
  (* machine-readable tracing-overhead summary *)
  let oc = open_out "BENCH_kperf.json" in
  output_string oc "{\"experiment\":\"E15\",\"rows\":[";
  List.iteri
    (fun i row ->
      if i > 0 then output_string oc ",";
      output_string oc row)
    (List.rev !kperf_rows);
  output_string oc "]}\n";
  close_out oc;
  pf "\n  wrote BENCH_kperf.json\n"

(* a Cosy compound shaped like Cosy-GCC's counted loops: getpid in a
   provably bounded loop, the boundary-dominated case §2.3 targets;
   shared by E16 (verified admission) and E17 (kopt optimization) *)
let getpid_compound iters =
  let i = 0 and c = 1 and r = 2 and tmp = 3 in
  Cosy.Compound.encode ~slot_count:4
    [
      Cosy.Cosy_op.Set { dst = i; src = Cosy.Cosy_op.Const 0 };
      Cosy.Cosy_op.Arith
        {
          dst = c;
          op = Cosy.Cosy_op.Alt;
          a = Cosy.Cosy_op.Slot i;
          b = Cosy.Cosy_op.Const iters;
        };
      Cosy.Cosy_op.Jz { cond = Cosy.Cosy_op.Slot c; target = 7 };
      Cosy.Cosy_op.Syscall { dst = r; sysno = 14 (* getpid *); args = [] };
      Cosy.Cosy_op.Arith
        {
          dst = tmp;
          op = Cosy.Cosy_op.Aadd;
          a = Cosy.Cosy_op.Slot i;
          b = Cosy.Cosy_op.Const 1;
        };
      Cosy.Cosy_op.Set { dst = i; src = Cosy.Cosy_op.Slot tmp };
      Cosy.Cosy_op.Jmp 1;
      Cosy.Cosy_op.Halt;
    ]

(* ------------------------------------------ E16: kverify admission *)

(* Two claims, one per half of the kverify subsystem.
   (1) The syscall-flow-integrity gate — an automaton learned from a
   recorded run of the same workload, consulted at every dispatch — costs
   under 2% of cycles on the full E14 webserver sweep, and a booted-but-
   empty verifier (gate installed, no automaton) is cycle-identical to no
   verifier at all, extending the kstats/kperf "disabled = free"
   contract to admission control.
   (2) Static admission pays: a kring batch or Cosy compound that the
   checker proves well-formed runs with the per-entry decode + copy-in
   replaced by a parse-in-place probe and the watchdog elided, which
   beats the dynamic path by >=1.2x once per-entry boundary work (not
   filesystem service time) dominates. *)
let e16 () =
  header "E16" "kverify: SFI gate overhead and verified-admission speedup"
    "no direct number — §2.3 bounds untrusted kernel stays dynamically \
     (watchdog); claims under test: a statically checked flow automaton \
     costs <2% on the C10K sweep, disabled admission is cycle-identical, \
     and verified batches/compounds beat the watchdog path by >=1.2x";
  (* --- part 1: SFI gate overhead on the E14 webserver variants ------- *)
  let conns = sc 10_000 in
  let run_cell v ~verify ~automaton =
    let prepare t =
      match (automaton, Core.kverify t) with
      | Some a, Some kv -> Core.Verify.set_automaton kv (Some a)
      | _ -> ()
    in
    let t, _ = net_cell ~prepare { Core.Config.default with verify } v ~conns in
    (Ksim.Kernel.now (Core.kernel t), Core.kverify t)
  in
  pf "  %-13s %6s %14s %14s %9s %10s %6s\n" "variant" "conns" "cycles(off)"
    "cycles(sfi)" "overhead" "checked" "viol";
  List.iter
    (fun v ->
      let name = Workloads.Webserver.net_variant_name v in
      (* learn the automaton from a recorded run of the same workload *)
      let automaton =
        let rec_ = ref None in
        let prepare t = rec_ := Some (Core.trace t) in
        ignore (net_cell ~prepare Core.Config.default v ~conns);
        Core.Verify.learn (Option.get !rec_)
      in
      let off, _ = run_cell v ~verify:None ~automaton:None in
      (* gate installed but no automaton set: must be cycle-identical *)
      let off_armed, _ =
        run_cell v ~verify:(Some Core.Verify.Log) ~automaton:None
      in
      if off <> off_armed then
        pf "  !! %s: empty verifier not free (%d vs %d cycles)\n" name off
          off_armed;
      let on, kv =
        run_cell v ~verify:(Some Core.Verify.Log) ~automaton:(Some automaton)
      in
      let kv = Option.get kv in
      let checked = Core.Verify.checked kv in
      let viol = Core.Verify.violations kv in
      let overhead = pct_over off on in
      pf "  %-13s %6d %14d %14d %8.3f%% %10d %6d\n" name conns off on overhead
        checked viol;
      add_row "E16"
        (Printf.sprintf
           "{\"section\":\"sfi\",\"variant\":\"%s\",\"conns\":%d,\
            \"cycles_off\":%d,\"cycles_armed_empty\":%d,\"cycles_on\":%d,\
            \"overhead_pct\":%.4f,\"checked\":%d,\"violations\":%d}"
           name conns off off_armed on overhead checked viol))
    net_variants;
  (* --- part 2: verified admission vs the dynamic watchdog path ------- *)
  let file_reqs total =
    Ksyscall.Syscall.Mkdir { path = "/r" }
    :: List.init (total - 1) (fun i ->
           Ksyscall.Syscall.Open_write_close
             {
               path = Printf.sprintf "/r/f%03d" (i + 1);
               data = Bytes.make 32 'a';
               flags = Core.o_create;
             })
  in
  let getpid_reqs total = List.init total (fun _ -> Ksyscall.Syscall.Getpid) in
  let ring_cell reqs ~verify =
    let t = Core.boot_with { Core.Config.default with verify } in
    let ring = Core.ring ~sq_entries:128 t in
    let (), tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          ignore (Kring.run_batch ring reqs))
    in
    (tm.Ksim.Kernel.elapsed, Kring.watchdog_elisions ring)
  in
  let cosy_cell iters ~verify =
    let t = Core.boot_with { Core.Config.default with verify } in
    let cx = Core.cosy t in
    let compound = getpid_compound iters in
    let (), tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          ignore (Cosy.Cosy_exec.submit cx compound))
    in
    (tm.Ksim.Kernel.elapsed, Cosy.Cosy_exec.watchdog_elisions cx)
  in
  pf "\n  %-26s %14s %14s %9s %8s\n" "workload" "watchdog(cy)" "verified(cy)"
    "speedup" "admitted";
  let part2 name cell =
    let base, _ = cell ~verify:None in
    let fast, admitted = cell ~verify:(Some Core.Verify.Log) in
    pf "  %-26s %14d %14d %8.2fx %8d\n" name base fast
      (float_of_int base /. float_of_int (max 1 fast))
      admitted;
    add_row "E16"
      (Printf.sprintf
         "{\"section\":\"admission\",\"workload\":\"%s\",\
          \"cycles_watchdog\":%d,\"cycles_verified\":%d,\"speedup\":%.4f,\
          \"admitted\":%d}"
         name base fast
         (float_of_int base /. float_of_int (max 1 fast))
         admitted)
  in
  let nring = sc 256 in
  part2
    (Printf.sprintf "ring %d file ops" nring)
    (fun ~verify -> ring_cell (file_reqs nring) ~verify);
  part2
    (Printf.sprintf "ring %d getpid" nring)
    (fun ~verify -> ring_cell (getpid_reqs nring) ~verify);
  let iters = sc 2_000 in
  part2
    (Printf.sprintf "cosy getpid loop x%d" iters)
    (fun ~verify -> cosy_cell iters ~verify)

(* --------------------------------------------- E17: kopt optimization *)

(* The optimizer's claim, building on E16's verified admission: once
   kverify admits a program, compiling it — fd resolutions cached,
   contiguous copies coalesced, read->write pairs fused, counted-loop
   bodies hoisted — beats already-verified execution by >=1.3x on the
   boundary-dominated counted loop, and the per-process compiled-program
   cache makes repeat submissions cheaper still (decode + admission +
   compile all skipped).  Execution must stay observably identical:
   same result slots, same file bytes, same response digests — and a
   detached optimizer must be cycle-identical to no optimizer at all. *)
let e17 () =
  header "E17" "kopt: optimizing verified compounds + compiled-program cache"
    "no direct number — extends §2.3's statically checked execution; \
     claims under test: optimized counted loops beat verified execution \
     by >=1.3x, cache hits skip decode+admission+compile, the ring \
     webserver moves fewer copied bytes, and digests stay identical";
  let verify_cfg =
    { Core.Config.default with verify = Some Core.Verify.Log; optimize = false }
  in
  let opt_cfg = { verify_cfg with optimize = true } in
  (* --- part 1a: the counted getpid loop, verified vs optimized ------- *)
  let iters = sc 2_000 in
  let loop_cell ?(detach = false) cfg =
    let t = Core.boot_with cfg in
    let cx = Core.cosy t in
    if detach then Cosy.Cosy_exec.set_admission cx None;
    let compound = getpid_compound iters in
    let slots, tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          Cosy.Cosy_exec.submit cx compound)
    in
    (tm.Ksim.Kernel.elapsed, slots)
  in
  let base_cy, base_slots = loop_cell verify_cfg in
  let opt_cy, opt_slots = loop_cell opt_cfg in
  if base_slots <> opt_slots then
    pf "  !! optimized loop result slots differ from verified execution\n";
  let speedup = float_of_int base_cy /. float_of_int (max 1 opt_cy) in
  pf "  %-26s %14s %14s %9s\n" "workload" "verified(cy)" "optimized(cy)"
    "speedup";
  pf "  %-26s %14d %14d %8.2fx%s\n"
    (Printf.sprintf "cosy getpid loop x%d" iters)
    base_cy opt_cy speedup
    (if speedup < 1.3 then "  !! below 1.3x target" else "");
  add_row "E17"
    (Printf.sprintf
       "{\"section\":\"loop\",\"iters\":%d,\"cycles_verified\":%d,\
        \"cycles_optimized\":%d,\"speedup\":%.4f,\"slots_equal\":%b}"
       iters base_cy opt_cy speedup (base_slots = opt_slots));
  (* a detached optimizer must leave the dynamic watchdog path untouched:
     boot with kopt, unhook it, and demand cycle-identity with a system
     that never had it (the optimize:false regression guard) *)
  let dyn_cy, dyn_slots = loop_cell Core.Config.default in
  let det_cy, det_slots =
    loop_cell ~detach:true { Core.Config.default with optimize = true }
  in
  if dyn_cy <> det_cy || dyn_slots <> det_slots then
    pf "  !! detached optimizer not free (%d vs %d cycles)\n" dyn_cy det_cy
  else pf "  detached-optimizer identity: %d cycles both ways\n" dyn_cy;
  add_row "E17"
    (Printf.sprintf
       "{\"section\":\"identity\",\"cycles_dynamic\":%d,\
        \"cycles_detached\":%d,\"identical\":%b}"
       dyn_cy det_cy
       (dyn_cy = det_cy && dyn_slots = det_slots));
  (* --- part 1b: coalesce + fuse on a file splice compound ------------ *)
  (* open src+dst, two contiguous 1K reads (coalesce into one bulk
     read), a 512B read->write pair on the same range (fuse into a
     splice), closes: both rewrite families in one verified compound *)
  let splice_compound =
    let sysno name = Option.get (Cosy.Cosy_op.sysno_of_name name) in
    Cosy.Compound.encode ~slot_count:8
      [
        Cosy.Cosy_op.Syscall
          { dst = 0; sysno = sysno "open";
            args = [ Cosy.Cosy_op.Str "/src"; Cosy.Cosy_op.Const 0 ] };
        Cosy.Cosy_op.Syscall
          { dst = 1; sysno = sysno "open";
            args = [ Cosy.Cosy_op.Str "/dst"; Cosy.Cosy_op.Const 3 ] };
        Cosy.Cosy_op.Syscall
          { dst = 2; sysno = sysno "read";
            args =
              [ Cosy.Cosy_op.Slot 0; Cosy.Cosy_op.Shared 0;
                Cosy.Cosy_op.Const 1024 ] };
        Cosy.Cosy_op.Syscall
          { dst = 3; sysno = sysno "read";
            args =
              [ Cosy.Cosy_op.Slot 0; Cosy.Cosy_op.Shared 1024;
                Cosy.Cosy_op.Const 1024 ] };
        Cosy.Cosy_op.Syscall
          { dst = 4; sysno = sysno "read";
            args =
              [ Cosy.Cosy_op.Slot 0; Cosy.Cosy_op.Shared 2048;
                Cosy.Cosy_op.Const 512 ] };
        Cosy.Cosy_op.Syscall
          { dst = 5; sysno = sysno "write";
            args =
              [ Cosy.Cosy_op.Slot 1; Cosy.Cosy_op.Shared 2048;
                Cosy.Cosy_op.Const 512 ] };
        Cosy.Cosy_op.Syscall
          { dst = 6; sysno = sysno "close"; args = [ Cosy.Cosy_op.Slot 0 ] };
        Cosy.Cosy_op.Syscall
          { dst = 7; sysno = sysno "close"; args = [ Cosy.Cosy_op.Slot 1 ] };
        Cosy.Cosy_op.Halt;
      ]
  in
  let nsubmit = sc 200 in
  let splice_cell cfg =
    let t = Core.boot_with cfg in
    let sys = Core.sys t in
    let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/src" ~flags:Core.o_create) in
    ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.init 4096 (fun i -> Char.chr (i land 0xff)))));
    Core.ok (Core.Syscall.sys_close sys ~fd);
    let cx = Core.cosy t in
    let slots, tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          let last = ref [||] in
          for _ = 1 to nsubmit do
            last := Cosy.Cosy_exec.submit cx splice_compound
          done;
          !last)
    in
    let dst =
      Core.ok
        (Core.Syscall.sys_open_read_close sys ~path:"/dst" ~maxlen:8192)
    in
    (tm.Ksim.Kernel.elapsed, slots, Digest.to_hex (Digest.bytes dst), Core.kopt t)
  in
  let sbase_cy, sbase_slots, sbase_dig, _ = splice_cell verify_cfg in
  let sopt_cy, sopt_slots, sopt_dig, kopt = splice_cell opt_cfg in
  if sbase_slots <> sopt_slots || sbase_dig <> sopt_dig then
    pf "  !! splice compound diverged (slots or /dst bytes differ)\n";
  let sspeed = float_of_int sbase_cy /. float_of_int (max 1 sopt_cy) in
  pf "  %-26s %14d %14d %8.2fx\n"
    (Printf.sprintf "cosy splice x%d" nsubmit)
    sbase_cy sopt_cy sspeed;
  let ko = Option.get kopt in
  pf "  cache: %d hits %d misses %d compiles; fd cache: %d resolved %d reused\n"
    (Core.Opt.hits ko) (Core.Opt.misses ko) (Core.Opt.compiles ko)
    (Core.Opt.fd_resolved ko) (Core.Opt.fd_reused ko);
  add_row "E17"
    (Printf.sprintf
       "{\"section\":\"splice\",\"submissions\":%d,\"cycles_verified\":%d,\
        \"cycles_optimized\":%d,\"speedup\":%.4f,\"digest_equal\":%b,\
        \"cache_hits\":%d,\"cache_misses\":%d,\"compiles\":%d,\
        \"fd_resolved\":%d,\"fd_reused\":%d}"
       nsubmit sbase_cy sopt_cy sspeed
       (sbase_slots = sopt_slots && sbase_dig = sopt_dig)
       (Core.Opt.hits ko) (Core.Opt.misses ko) (Core.Opt.compiles ko)
       (Core.Opt.fd_resolved ko) (Core.Opt.fd_reused ko));
  (* --- part 1c: cache amortization on one compound ------------------- *)
  let t = Core.boot_with opt_cfg in
  let cx = Core.cosy t in
  let cache_compound = getpid_compound (sc 200) in
  let submit_cy () =
    let _, tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          ignore (Cosy.Cosy_exec.submit cx cache_compound))
    in
    tm.Ksim.Kernel.elapsed
  in
  let first = submit_cy () in
  let reps = 9 in
  let steady =
    let total = ref 0 in
    for _ = 1 to reps do total := !total + submit_cy () done;
    !total / reps
  in
  let ko = Option.get (Core.kopt t) in
  pf "  cache amortization: first submit %d cy, steady %d cy (%.2fx); \
      %d hits %d misses %d compiles\n"
    first steady
    (float_of_int first /. float_of_int (max 1 steady))
    (Core.Opt.hits ko) (Core.Opt.misses ko) (Core.Opt.compiles ko);
  if Core.Opt.compiles ko <> 1 || Core.Opt.hits ko <> reps then
    pf "  !! cache did not amortize (expected 1 compile, %d hits)\n" reps;
  add_row "E17"
    (Printf.sprintf
       "{\"section\":\"cache\",\"first_cycles\":%d,\"steady_cycles\":%d,\
        \"hits\":%d,\"misses\":%d,\"compiles\":%d}"
       first steady (Core.Opt.hits ko) (Core.Opt.misses ko)
       (Core.Opt.compiles ko));
  (* --- part 2: the E14 webserver sweep, optimizer off vs on ---------- *)
  let conns = sc 10_000 in
  let opt_cell v cfg =
    let t, r = net_cell ~core_ring:true cfg v ~conns in
    let kernel = Core.kernel t in
    ( Ksim.Kernel.now kernel,
      Ksim.Kernel.bytes_from_user kernel + Ksim.Kernel.bytes_to_user kernel,
      r.Workloads.Webserver.n_digest,
      Core.stats t )
  in
  pf "\n  %-13s %6s %13s %13s %7s %11s %11s %6s\n" "variant" "conns"
    "cycles(off)" "cycles(opt)" "ratio" "copied(off)" "copied(opt)" "dig";
  List.iter
    (fun v ->
      let name = Workloads.Webserver.net_variant_name v in
      let off_cy, off_copied, off_dig, _ = opt_cell v verify_cfg in
      let on_cy, on_copied, on_dig, stats = opt_cell v opt_cfg in
      let fused = find_counter stats "ring.opt.fused_pairs" in
      let cq_saved = find_counter stats "ring.opt.cq_bytes_saved" in
      let r = float_of_int off_cy /. float_of_int (max 1 on_cy) in
      pf "  %-13s %6d %13d %13d %6.2fx %11d %11d %6s%s\n" name conns off_cy
        on_cy r off_copied on_copied
        (if off_dig = on_dig then "ok" else "FAIL")
        (if cq_saved > 0 || fused > 0 then
           Printf.sprintf "  (%d fused, %d B cq-coalesced)" fused cq_saved
         else "");
      if off_dig <> on_dig then
        pf "  !! %s: optimized responses diverge from baseline\n" name;
      add_row "E17"
        (Printf.sprintf
           "{\"section\":\"net\",\"variant\":\"%s\",\"conns\":%d,\
            \"cycles_off\":%d,\"cycles_opt\":%d,\"ratio\":%.4f,\
            \"copied_off\":%d,\"copied_opt\":%d,\"digest_equal\":%b,\
            \"fused_pairs\":%d,\"cq_bytes_saved\":%d}"
           name conns off_cy on_cy r off_copied on_copied (off_dig = on_dig)
           fused cq_saved))
    net_variants

(* -------------------------------------- E18: resilience under injected faults *)

(* The E14 webserver sweep re-run under kfault's wire-drop site at
   increasing fault rates.  Two claims:
   (1) the retransmit/backoff path is *correct*: at every fault rate each
   data-path variant still completes every connection and the client-side
   response digest stays byte-identical to the fault-free run — faults
   cost latency cycles, never bytes; and
   (2) the disarmed engine is *free*: the disarmed cell is cycle-identical
   to a build that never heard of kfault (checked bit-for-bit against a
   second disarmed boot).
   With [shed] the server trades fidelity for throughput under the same
   drop rate: load-shedding answers with header-only responses once the
   NIC reports drops, so digests legitimately diverge and the row records
   how many responses were shed instead. *)
let e18 () =
  header "E18" "kfault: webserver resilience under injected wire faults"
    "no direct number — §4 (isolation and recovery) applied to injected \
     failures; claim under test is that retry/backoff keeps every \
     data-path variant byte-identical under fault rates up to 1-in-4, \
     and that the disarmed fault engine costs zero cycles";
  let conns = sc 1_000 in
  let rates = [ 0; 64; 16; 4 ] in  (* 0 = disarmed; else Every_nth n *)
  let run_cell v ~rate ~shed =
    let arm t =
      if rate > 0 then
        Kfault.arm (Core.fault t)
          [ { Kfault.site = "net.wire_drop"; trigger = Kfault.Every_nth rate } ]
    in
    net_cell ~arm ~shed Core.Config.default v ~conns
  in
  pf "  %-13s %5s %5s %6s %9s %7s %6s %11s %14s %7s\n" "variant" "nth" "shed"
    "compl" "retrans" "backoff" "shed#" "cycles" "vs clean" "digest";
  let kfault_rows = ref [] in
  List.iter
    (fun v ->
      let name = Workloads.Webserver.net_variant_name v in
      (* the disarmed engine is free: two disarmed boots, bit-for-bit *)
      let t0, clean = run_cell v ~rate:0 ~shed:false in
      let t0', clean' = run_cell v ~rate:0 ~shed:false in
      let clean_cy = Ksim.Kernel.now (Core.kernel t0) in
      if
        clean_cy <> Ksim.Kernel.now (Core.kernel t0')
        || clean.Workloads.Webserver.n_digest
           <> clean'.Workloads.Webserver.n_digest
      then pf "  !! %s: disarmed runs differ — determinism broken\n" name;
      List.iter
        (fun rate ->
          List.iter
            (fun shed ->
              (* rate 0 + shed covers the shed-enabled fault-free baseline;
                 skip only the duplicate of the clean cell itself *)
              if not (rate = 0 && not shed) then begin
                let t, r = run_cell v ~rate ~shed in
                let stats = Core.stats t in
                let cy = Ksim.Kernel.now (Core.kernel t) in
                let retrans = find_counter stats "retry.net_retransmits" in
                let backoff = find_counter stats "retry.net_backoff_cycles" in
                let nshed = r.Workloads.Webserver.n_shed in
                let dig_eq =
                  r.Workloads.Webserver.n_digest
                  = clean.Workloads.Webserver.n_digest
                in
                pf "  %-13s %5d %5b %6d %9d %7d %6d %11d %13.2f%% %7s\n" name
                  rate shed r.Workloads.Webserver.n_completed retrans backoff
                  nshed cy (pct_over clean_cy cy)
                  (if dig_eq then "equal"
                   else if shed then "shed"
                   else "DIFFER");
                if (not dig_eq) && not shed then
                  pf "  !! %s nth:%d: responses diverged without shedding\n"
                    name rate;
                let row =
                  Printf.sprintf
                    "{\"variant\":\"%s\",\"nth\":%d,\"shed\":%b,\"conns\":%d,\
                     \"completed\":%d,\"served\":%d,\"retransmits\":%d,\
                     \"backoff_cycles\":%d,\"shed_responses\":%d,\
                     \"cycles\":%d,\"cycles_clean\":%d,\"overhead_pct\":%.4f,\
                     \"digest_equal\":%b}"
                    name rate shed conns r.Workloads.Webserver.n_completed
                    r.Workloads.Webserver.n_served retrans backoff nshed cy
                    clean_cy (pct_over clean_cy cy) dig_eq
                in
                kfault_rows := row :: !kfault_rows;
                add_row "E18" row
              end)
            [ false; true ])
        rates;
      (* the disarmed row itself, for the record *)
      let row =
        Printf.sprintf
          "{\"variant\":\"%s\",\"nth\":0,\"shed\":false,\"conns\":%d,\
           \"completed\":%d,\"served\":%d,\"retransmits\":0,\
           \"backoff_cycles\":0,\"shed_responses\":0,\"cycles\":%d,\
           \"cycles_clean\":%d,\"overhead_pct\":0.0,\"digest_equal\":true}"
          name conns clean.Workloads.Webserver.n_completed
          clean.Workloads.Webserver.n_served clean_cy clean_cy
      in
      kfault_rows := row :: !kfault_rows;
      add_row "E18" row)
    net_variants;
  let oc = open_out "BENCH_kfault.json" in
  output_string oc "{\"experiment\":\"E18\",\"rows\":[";
  List.iteri
    (fun i row ->
      if i > 0 then output_string oc ",";
      output_string oc row)
    (List.rev !kfault_rows);
  output_string oc "]}\n";
  close_out oc;
  pf "\n  wrote BENCH_kfault.json\n"

(* ----------------------------------------------------------------- E19 *)

let e19 () =
  header "E19" "kcrash: crash-consistent recovery + oops-containment overhead"
    "no direct number — §4 (isolation and recovery) taken to its end \
     state: a crashing extension must not take the kernel with it, and \
     a power loss at any durable-write boundary must recover to a \
     consistent filesystem; claims under test are zero-corruption \
     across the crash-point sweep, recovery time linear in journal \
     length, and containment machinery under a 2% cycle budget \
     (measured: disarmed it is cycle-identical)";
  let kcrash_rows = ref [] in
  let row xid json =
    kcrash_rows := json :: !kcrash_rows;
    add_row xid json
  in

  (* --- recovery time vs. journal length: N create+write ops, power
     loss, reboot from the image alone.  The whole history replays on
     mount, so recovery cost should scale linearly with the WAL. *)
  let crash_cfg =
    {
      Core.Config.default with
      Core.Config.fs = Core.Journalfs;
      crash = Some Core.Crash.default_config;
    }
  in
  (* mount cost of an empty system, to isolate the replay itself *)
  let fresh = Core.boot_with crash_cfg in
  let mount_cy = Ksim.Kernel.now (Core.kernel fresh) in
  pf "  %8s %12s %12s %14s %12s\n" "ops" "wal-records" "replayed"
    "recovery(cyc)" "cyc/record";
  List.iter
    (fun n ->
      let t = Core.boot_with crash_cfg in
      let sys = Core.sys t in
      ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/r"));
      for i = 0 to n - 1 do
        ignore
          (Core.ok
             (Core.Syscall.sys_open_write_close sys
                ~path:(Printf.sprintf "/r/f%04d" i)
                ~data:(Bytes.make (64 + (i mod 191)) 'r')
                ~flags:Core.o_create))
      done;
      let t2 = Core.reboot t in
      let recovery_cy = Ksim.Kernel.now (Core.kernel t2) - mount_cy in
      let info =
        match Core.journalfs t2 with
        | Some j -> Kvfs.Journalfs.last_recover j
        | None -> None
      in
      let scanned, replayed =
        match info with
        | Some i ->
            (i.Kvfs.Journalfs.rec_scanned, i.Kvfs.Journalfs.rec_replayed)
        | None -> (0, 0)
      in
      let fsck_errs =
        match Core.journalfs t2 with
        | Some j -> List.length (Kvfs.Journalfs.fsck j)
        | None -> 1
      in
      if fsck_errs > 0 then pf "  !! %d ops: fsck errors after recovery\n" n;
      pf "  %8d %12d %12d %14d %12.1f\n" n scanned replayed recovery_cy
        (float_of_int recovery_cy /. float_of_int (max 1 scanned));
      row "E19"
        (Printf.sprintf
           "{\"cell\":\"recovery\",\"ops\":%d,\"wal_records\":%d,\
            \"replayed\":%d,\"recovery_cycles\":%d,\"fsck_errors\":%d}"
           n scanned replayed recovery_cy fsck_errs))
    (if !smoke then [ 10; 40 ] else [ 25; 100; 400; 1_600 ]);

  (* --- containment overhead: the full resilience workload on a plain
     system vs. one with the oops reaper installed (journal kept
     non-durable so only the containment machinery differs).  Quiet,
     the reaper is a never-taken hook: the budget is <2%, the
     expectation is cycle-identical, kstats dump included. *)
  let plain_cfg =
    { Core.Config.default with Core.Config.fs = Core.Journalfs; optimize = true }
  in
  let contained_cfg =
    {
      plain_cfg with
      Core.Config.crash =
        Some { Core.Crash.contain = true; durable = false };
    }
  in
  let r_plain, _ = Resilience.run_with ~config:plain_cfg () in
  let r_cont, _ = Resilience.run_with ~config:contained_cfg () in
  let overhead =
    pct_over r_plain.Resilience.r_cycles r_cont.Resilience.r_cycles
  in
  let identical =
    r_plain.Resilience.r_cycles = r_cont.Resilience.r_cycles
    && r_plain.Resilience.r_digest = r_cont.Resilience.r_digest
    && r_plain.Resilience.r_stats = r_cont.Resilience.r_stats
  in
  pf "  containment: plain %d cyc, contained %d cyc — %+.4f%% (%s)\n"
    r_plain.Resilience.r_cycles r_cont.Resilience.r_cycles overhead
    (if identical then "cycle-identical, kstats equal"
     else "NOT identical");
  if (not identical) || abs_float overhead >= 2.0 then
    pf "  !! containment broke the disarmed-identity / 2%% budget\n";
  row "E19"
    (Printf.sprintf
       "{\"cell\":\"containment\",\"plain_cycles\":%d,\
        \"contained_cycles\":%d,\"overhead_pct\":%.4f,\"identical\":%b}"
       r_plain.Resilience.r_cycles r_cont.Resilience.r_cycles overhead
       identical);

  (* --- durable-journal cost, for the record: the same workload with
     write-ahead logging on (this one is allowed to cost cycles). *)
  let r_wal, _ = Resilience.run_with ~config:Resilience.crash_config () in
  pf "  durable WAL: %d cyc — %+.2f%% over plain\n"
    r_wal.Resilience.r_cycles
    (pct_over r_plain.Resilience.r_cycles r_wal.Resilience.r_cycles);
  row "E19"
    (Printf.sprintf
       "{\"cell\":\"wal_cost\",\"plain_cycles\":%d,\"wal_cycles\":%d,\
        \"overhead_pct\":%.4f}"
       r_plain.Resilience.r_cycles r_wal.Resilience.r_cycles
       (pct_over r_plain.Resilience.r_cycles r_wal.Resilience.r_cycles));

  (* --- the crash-point sweep, sampled: power loss at evenly spaced
     durable writes, reboot, classify.  Zero corrupt is the claim. *)
  let s = Resilience.crash_sweep ~max_per_site:(sc 40) () in
  let consistent, recovered =
    List.fold_left
      (fun (c, r) (cr : Resilience.crash_row) ->
        match cr.Resilience.cr_class with
        | Resilience.Consistent -> (c + 1, r)
        | Resilience.Recovered -> (c, r + 1)
        | Resilience.Corrupt -> (c, r))
      (0, 0) s.Resilience.cs_rows
  in
  pf
    "  crash sweep: %d/%d durable writes probed — %d consistent, %d \
     recovered, %d corrupt\n"
    (List.length s.Resilience.cs_rows)
    s.Resilience.cs_points consistent recovered s.Resilience.cs_corrupt;
  if s.Resilience.cs_corrupt > 0 then
    pf "  !! corruption survived the journal\n";
  row "E19"
    (Printf.sprintf
       "{\"cell\":\"crash_sweep\",\"reachable_points\":%d,\"probed\":%d,\
        \"consistent\":%d,\"recovered\":%d,\"corrupt\":%d}"
       s.Resilience.cs_points
       (List.length s.Resilience.cs_rows)
       consistent recovered s.Resilience.cs_corrupt);

  let oc = open_out "BENCH_kcrash.json" in
  output_string oc "{\"experiment\":\"E19\",\"rows\":[";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      output_string oc r)
    (List.rev !kcrash_rows);
  output_string oc "]}\n";
  close_out oc;
  pf "\n  wrote BENCH_kcrash.json\n"

(* ------------------------------------------------- Bechamel microbench *)

let micro () =
  pf "\n=== host-time microbenchmarks (Bechamel) ===\n";
  let open Bechamel in
  let ring = Kmonitor.Ring.create 1024 in
  let splay =
    let t = Kgcc.Splay.create () in
    for i = 0 to 511 do
      Kgcc.Splay.insert t ~base:(i * 64) ~size:64 ~meta:i
    done;
    t
  in
  let compound =
    let c = Cosy.Cosy_lib.create () in
    for _ = 1 to 16 do
      ignore (Cosy.Cosy_lib.syscall c "getpid" [])
    done;
    Cosy.Cosy_lib.finish c
  in
  let interp =
    let clock = Ksim.Sim_clock.create () in
    let mem = Ksim.Phys_mem.create ~page_size:4096 in
    let space =
      Ksim.Address_space.create ~name:"b" ~mem ~clock ~cost:Ksim.Cost_model.zero ()
    in
    let i =
      Minic.Interp.create ~space ~clock ~cost:Ksim.Cost_model.zero ~base_vpn:8
        ~pages:32
    in
    ignore
      (Minic.Interp.parse_and_load i
         "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }");
    i
  in
  let test =
    Test.make_grouped ~name:"primitives"
      [
        Test.make ~name:"ring-push-pop"
          (Staged.stage (fun () ->
               ignore (Kmonitor.Ring.push ring 1);
               ignore (Kmonitor.Ring.pop ring)));
        Test.make ~name:"splay-find-hot"
          (Staged.stage (fun () -> ignore (Kgcc.Splay.find_containing splay 4096)));
        Test.make ~name:"compound-decode-16ops"
          (Staged.stage (fun () -> ignore (Cosy.Compound.decode compound)));
        Test.make ~name:"minic-100-iter-loop"
          (Staged.stage (fun () -> ignore (Minic.Interp.run interp ~args:[ 100 ] "f")));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols (List.hd instances) raw in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> pf "  %-36s %12.1f ns/op\n" name est
      | Some _ | None -> pf "  %-36s (no estimate)\n" name)
    results

(* ------------------------------------------------------------- driver *)

let all_experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19) ]

(* --- machine-readable kstats output (BENCH_kstats.json) --------------- *)

(* Every system booted while an experiment runs is captured through the
   Core.on_boot hook, so its metrics registry can be merged into the
   experiment's aggregate afterwards. *)
let booted : Core.t list ref = ref []

type exp_summary = {
  xid : string;
  boots : int;
  elapsed : int;        (* simulated cycles, summed over boots *)
  utime : int;
  stime : int;
  agg : Kstats.t;       (* merged registries of every boot *)
}

let summarize xid boots =
  let agg = Kstats.create ~enabled:true () in
  let elapsed = ref 0 and utime = ref 0 and stime = ref 0 in
  List.iter
    (fun t ->
      let k = Core.kernel t in
      elapsed := !elapsed + Ksim.Kernel.now k;
      let p = Ksim.Kernel.current k in
      utime := !utime + p.Ksim.Kproc.utime;
      stime := !stime + p.Ksim.Kproc.stime;
      Kstats.merge_into ~into:agg (Core.stats t))
    boots;
  {
    xid;
    boots = List.length boots;
    elapsed = !elapsed;
    utime = !utime;
    stime = !stime;
    agg;
  }

(* Per-syscall [(name, count, p50, p99)], from the merged registry. *)
let syscall_latencies stats =
  List.filter_map
    (fun metric ->
      match String.index_opt metric '.' with
      | Some 7 when String.length metric > 8
                    && String.sub metric 0 8 = "syscall."
                    && Filename.check_suffix metric ".latency" -> (
          let name = String.sub metric 8 (String.length metric - 16) in
          match Kstats.find stats metric with
          | Some (Kstats.Hist_v h) ->
              Some
                ( name,
                  find_counter stats ("syscall." ^ name ^ ".count"),
                  h.Kstats.v_p50,
                  h.Kstats.v_p99 )
          | _ -> None)
      | _ -> None)
    (Kstats.names stats)

let json_of_summary b s =
  Buffer.add_string b
    (Printf.sprintf
       "{\"id\":\"%s\",\"boots\":%d,\"elapsed_cycles\":%d,\"utime_cycles\":%d,\
        \"stime_cycles\":%d,\"crossings\":%d,\"syscalls\":{"
       s.xid s.boots s.elapsed s.utime s.stime
       (find_counter s.agg "kernel.crossings"));
  List.iteri
    (fun i (name, count, p50, p99) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"count\":%d,\"p50\":%d,\"p99\":%d}" name
           count p50 p99))
    (syscall_latencies s.agg);
  Buffer.add_string b "},\"metrics\":";
  Buffer.add_string b (Kstats.to_json s.agg);
  (match Hashtbl.find_opt extra_rows s.xid with
  | Some rows ->
      Buffer.add_string b ",\"rows\":[";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b r)
        (List.rev !rows);
      Buffer.add_char b ']'
  | None -> ());
  Buffer.add_char b '}'

let write_kstats_json path summaries =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"experiments\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      json_of_summary b s)
    summaries;
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let want_micro = List.mem "micro" args in
  if List.mem "smoke" args then smoke := true;
  let selected =
    List.filter_map
      (function
        | "micro" | "all" | "smoke" -> None
        | "ring_batch" -> Some "E12"
        | a -> Some a)
      args
  in
  let to_run =
    if selected = [] then all_experiments
    else
      List.filter (fun (id, _) -> List.mem id selected) all_experiments
  in
  (* every kernel booted by the harness carries an enabled metrics
     registry; recording is cycle-neutral so reproduced numbers are
     unchanged (asserted by test_kstats) *)
  Kstats.default_enabled := true;
  Core.on_boot := (fun t -> booted := t :: !booted);
  pf "Reproduction of \"Efficient and Safe Execution of User-Level Code in \
      the Kernel\" (Zadok et al., 2005)\n";
  pf "Simulated substrate; see DESIGN.md for the substitution table and \
      EXPERIMENTS.md for analysis.\n";
  let summaries =
    List.map
      (fun (id, f) ->
        booted := [];
        f ();
        summarize id (List.rev !booted))
      to_run
  in
  if want_micro then micro ();
  if summaries <> [] then begin
    write_kstats_json "BENCH_kstats.json" summaries;
    pf "\nwrote BENCH_kstats.json (%d experiments: per-boot aggregated \
        kstats, syscall latency percentiles)\n"
      (List.length summaries)
  end
