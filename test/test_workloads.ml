(* Workload-level tests: determinism, plain/Cosy equivalence, and the
   directional claims behind each experiment (small configurations so
   the suite stays fast; the full-size runs live in bench/). *)

let pm_small =
  { Workloads.Postmark.default_config with files = 40; transactions = 120 }

let am_small =
  { Workloads.Amutils.default_config with source_files = 30 }

(* full clean build (creates files while timed): the Kefence testbed *)
let am_small_full = { am_small with Workloads.Amutils.prime_objects = false }

let db_small =
  { Workloads.Database.default_config with records = 100; lookups = 200; scans = 1 }

let ws_small =
  { Workloads.Webserver.default_config with documents = 10; requests = 50; doc_size = 4096 }

let test_postmark_runs_and_balances () =
  let t = Core.boot_with Core.Config.default in
  let s = Workloads.Postmark.run ~config:pm_small (Core.sys t) in
  Alcotest.(check bool) "created >= files" true
    (s.Workloads.Postmark.created >= pm_small.Workloads.Postmark.files);
  (* every created file was eventually deleted *)
  Alcotest.(check int) "created = deleted" s.Workloads.Postmark.created
    s.Workloads.Postmark.deleted;
  Alcotest.(check bool) "did transactions" true
    (s.Workloads.Postmark.read + s.Workloads.Postmark.appended > 0);
  Alcotest.(check bool) "time advanced" true
    (s.Workloads.Postmark.times.Ksim.Kernel.elapsed > 0)

(* File names are built by hand on the hot path; they must be exactly
   what the "%s/pm%06d" format gave. *)
let test_postmark_file_names () =
  let cfg = Workloads.Postmark.default_config in
  List.iter
    (fun (dir, i) ->
      let cfg = { cfg with Workloads.Postmark.dir } in
      Alcotest.(check string) (Printf.sprintf "%s #%d" dir i)
        (Printf.sprintf "%s/pm%06d" dir i)
        (Workloads.Postmark.file_name cfg i))
    [ ("/postmark", 0); ("/postmark3", 7); ("/p", 42); ("", 999_999);
      ("/postmark0", 1_000_000); ("/x", 123_456_789); ("/pm", max_int) ]

let test_postmark_deterministic () =
  let run () =
    let t = Core.boot_with Core.Config.default in
    let s = Workloads.Postmark.run ~config:pm_small (Core.sys t) in
    (s.Workloads.Postmark.created, s.Workloads.Postmark.data_written,
     s.Workloads.Postmark.times.Ksim.Kernel.elapsed)
  in
  Alcotest.(check bool) "bit-for-bit repeatable" true (run () = run ())

(* The live set against the [(int, unit) Hashtbl.t] it replaced:
   random adds (fresh ids, and now and then a live one, which replace
   leaves in place), removes (live ids, and now and then an absent one)
   and bursts of picks from an initial size of 1 to 2,000, until the
   live count passes four times the first bucket count, so every size
   sees two resizes (a walk that has not got there after [64 * nb + 64]
   steps fails).  [nth k] must be the [k]-th id of [Hashtbl.iter] at every
   pick, the lengths must agree at every step, and the whole order and
   the sorted cleanup list at every 512th step and at the end. *)
let qcheck_postmark_live_order =
  let module L = Workloads.Postmark.Live in
  QCheck.Test.make ~name:"live set = Hashtbl iteration order" ~count:25
    QCheck.(pair (int_range 1 2000) int)
    (fun (n0, seed) ->
      let rng = Random.State.make [| seed |] in
      let live = L.create n0 and model = Hashtbl.create n0 in
      (* the live ids in no particular order, for picking one in O(1) *)
      let ids = ref (Array.make 64 0) and n = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let order () = Hashtbl.fold (fun id () acc -> id :: acc) model [] |> List.rev in
      let check_all step =
        if List.init !n (L.nth live) <> order () then
          fail "step %d: iteration order differs" step;
        if L.sorted live <> List.sort Int.compare (order ()) then
          fail "step %d: cleanup list differs" step
      in
      let nb = ref 16 in
      while !nb < n0 do nb := 2 * !nb done;
      let next = ref 0 and step = ref 0 in
      (* about 0.5 net adds a step: the walk passes [4 * nb] near step
         [8 * nb]; the cap is far past any seed's need *)
      while !n <= 4 * !nb do
        incr step;
        if !step > (64 * !nb) + 64 then
          fail "only %d live for %d first buckets after %d steps" !n !nb (!step - 1);
        let step = !step in
        (match Random.State.int rng 40 with
        | r when r < 30 || !n = 0 ->
            let id =
              if r = 0 && !n > 0 then !ids.(Random.State.int rng !n)
              else begin
                incr next;
                if !n = Array.length !ids then
                  ids := Array.append !ids (Array.make !n 0);
                !ids.(!n) <- !next;
                incr n;
                !next
              end
            in
            L.add live id;
            Hashtbl.replace model id ()
        | r when r < 39 ->
            let id =
              if r = 30 then - step
              else begin
                let i = Random.State.int rng !n in
                let id = !ids.(i) in
                decr n;
                !ids.(i) <- !ids.(!n);
                id
              end
            in
            L.remove live id;
            Hashtbl.remove model id
        | _ ->
            (* picks at the first and last position and two anywhere *)
            let want = Array.of_list (order ()) in
            List.iter
              (fun k ->
                if L.nth live k <> want.(k) then fail "step %d: nth %d differs" step k)
              [ 0; !n - 1; Random.State.int rng !n; Random.State.int rng !n ]);
        if L.length live <> Hashtbl.length model then
          fail "step %d: length %d, model %d" step (L.length live) (Hashtbl.length model);
        if step mod 512 = 0 then check_all step
      done;
      check_all 0;
      true)

(* Memory guard for the shared same-filled blocks: PostMark's files are
   constant-filled, so a run on memfs holds in private pages only its
   files' partial last pages and the pages appends completed.  Sampled
   between transactions, the most the run holds must stay under a bound
   set from the measured peak (142,503 bytes) with 40% margin; storing
   every block privately (294,055 bytes) fails it. *)
let test_postmark_private_pages () =
  let kernel = Ksim.Kernel.create () in
  let fs = Kvfs.Memfs.create kernel in
  let sys = Ksyscall.Systable.create ~root_fs:(Kvfs.Memfs.ops fs) kernel in
  let peak = ref 0 in
  let pump () = peak := max !peak (Kvfs.Memfs.private_page_bytes fs) in
  ignore (Workloads.Postmark.run ~config:{ pm_small with Workloads.Postmark.pump } sys);
  Alcotest.(check bool) (Printf.sprintf "peak private page bytes %d" !peak) true
    (!peak < 200_000);
  Alcotest.(check int) "one shared block" 1 (Kvfs.Memfs.shared_blocks fs);
  Alcotest.(check (list string)) "fsck clean" [] (Kvfs.Memfs.fsck fs)

let test_amutils_user_dominated () =
  let t = Core.boot_with Core.Config.default in
  Workloads.Amutils.setup ~config:am_small (Core.sys t);
  let s = Workloads.Amutils.run ~config:am_small (Core.sys t) in
  Alcotest.(check int) "all compiled" 30 s.Workloads.Amutils.compiled;
  (* a compile workload burns more user time than system time *)
  Alcotest.(check bool) "user > system" true
    (s.Workloads.Amutils.times.Ksim.Kernel.utime
     > s.Workloads.Amutils.times.Ksim.Kernel.stime)

let test_database_plain_vs_cosy_same_io () =
  let t1 = Core.boot_with Core.Config.default in
  Workloads.Database.setup ~config:db_small (Core.sys t1);
  let p = Workloads.Database.run_plain ~config:db_small (Core.sys t1) in
  let t2 = Core.boot_with Core.Config.default in
  Workloads.Database.setup ~config:db_small (Core.sys t2);
  let c, cosy_stats = Workloads.Database.run_cosy ~config:db_small (Core.sys t2) in
  Alcotest.(check int) "same reads" p.Workloads.Database.reads c.Workloads.Database.reads;
  Alcotest.(check int) "same writes" p.Workloads.Database.writes c.Workloads.Database.writes;
  Alcotest.(check int) "one compound submitted" 1 cosy_stats.Cosy.Cosy_exec.submits;
  (* E4's direction: Cosy is faster *)
  Alcotest.(check bool) "cosy faster" true
    (c.Workloads.Database.times.Ksim.Kernel.elapsed
     < p.Workloads.Database.times.Ksim.Kernel.elapsed)

let test_webserver_plain_vs_cosy () =
  let t1 = Core.boot_with Core.Config.default in
  Workloads.Webserver.setup ~config:ws_small (Core.sys t1);
  let p = Workloads.Webserver.run_plain ~config:ws_small (Core.sys t1) in
  let t2 = Core.boot_with Core.Config.default in
  Workloads.Webserver.setup ~config:ws_small (Core.sys t2);
  let c, _ = Workloads.Webserver.run_cosy ~config:ws_small (Core.sys t2) in
  Alcotest.(check int) "same bytes served" p.Workloads.Webserver.bytes_served
    c.Workloads.Webserver.bytes_served;
  Alcotest.(check bool) "cosy faster" true
    (c.Workloads.Webserver.times.Ksim.Kernel.elapsed
     < p.Workloads.Webserver.times.Ksim.Kernel.elapsed)

let test_webserver_sendfile () =
  let t1 = Core.boot_with Core.Config.default in
  Workloads.Webserver.setup ~config:ws_small (Core.sys t1);
  let p = Workloads.Webserver.run_plain ~config:ws_small (Core.sys t1) in
  let t2 = Core.boot_with Core.Config.default in
  Workloads.Webserver.setup ~config:ws_small (Core.sys t2);
  let sf = Workloads.Webserver.run_sendfile ~config:ws_small (Core.sys t2) in
  Alcotest.(check int) "same bytes" p.Workloads.Webserver.bytes_served
    sf.Workloads.Webserver.bytes_served;
  Alcotest.(check bool) "sendfile faster" true
    (sf.Workloads.Webserver.times.Ksim.Kernel.elapsed
     < p.Workloads.Webserver.times.Ksim.Kernel.elapsed)

let test_lsdir_equivalence_and_direction () =
  let t1 = Core.boot_with Core.Config.default in
  Workloads.Lsdir.setup (Core.sys t1) ~dir:"/d" ~n:100;
  let p = Workloads.Lsdir.run_plain (Core.sys t1) ~dir:"/d" in
  let t2 = Core.boot_with Core.Config.default in
  Workloads.Lsdir.setup (Core.sys t2) ~dir:"/d" ~n:100;
  let r = Workloads.Lsdir.run_readdirplus (Core.sys t2) ~dir:"/d" in
  Alcotest.(check int) "same entries" p.Workloads.Lsdir.entries r.Workloads.Lsdir.entries;
  Alcotest.(check int) "plain: 1 + n syscalls" 101 p.Workloads.Lsdir.syscalls;
  Alcotest.(check int) "merged: 1 syscall" 1 r.Workloads.Lsdir.syscalls;
  Alcotest.(check bool) "E1 direction" true
    (r.Workloads.Lsdir.times.Ksim.Kernel.elapsed
     < p.Workloads.Lsdir.times.Ksim.Kernel.elapsed)

let test_interactive_trace_mines_patterns () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  Workloads.Interactive.setup sys;
  let rec_ = Core.trace t in
  let cfg = { Workloads.Interactive.default_config with duration_events = 60 } in
  let s = Workloads.Interactive.run ~config:cfg sys in
  Alcotest.(check bool) "syscalls happened" true (s.Workloads.Interactive.syscalls > 50);
  (* the trace contains readdirplus opportunities *)
  let runs = Ktrace.Patterns.readdir_stat_runs rec_ ~min_stats:2 in
  Alcotest.(check bool) "readdir-stat runs found" true (List.length runs > 0);
  let est = Ktrace.Savings.estimate ~trace_duration_cycles:s.Workloads.Interactive.duration_cycles rec_ in
  Alcotest.(check bool) "E2 direction: fewer syscalls" true
    (est.Ktrace.Savings.syscalls_after < est.Ktrace.Savings.syscalls_before);
  Alcotest.(check bool) "E2 direction: fewer bytes" true
    (est.Ktrace.Savings.bytes_after < est.Ktrace.Savings.bytes_before)

let test_kefence_overhead_small () =
  (* E5's direction: instrumented wrapfs is slower, but only slightly *)
  let t1 = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kmalloc } in
  Workloads.Amutils.setup ~config:am_small_full (Core.sys t1);
  let a = Workloads.Amutils.run ~config:am_small_full (Core.sys t1) in
  let t2 = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kefence Kefence.Crash } in
  Workloads.Amutils.setup ~config:am_small_full (Core.sys t2);
  let b = Workloads.Amutils.run ~config:am_small_full (Core.sys t2) in
  let ratio =
    float_of_int b.Workloads.Amutils.times.Ksim.Kernel.elapsed
    /. float_of_int a.Workloads.Amutils.times.Ksim.Kernel.elapsed
  in
  Alcotest.(check bool) "kefence costs something" true (ratio > 1.0);
  Alcotest.(check bool) "kefence under 10%" true (ratio < 1.10);
  match Core.kefence t2 with
  | Some kf -> Alcotest.(check int) "no overflow reports" 0 (Kefence.overflows_detected kf)
  | None -> Alcotest.fail "kefence missing"

let test_kgcc_journalfs_overhead_direction () =
  (* E7's direction at test scale: KGCC costs system time, and PostMark
     suffers far more than the compile workload *)
  let pm fs =
    let t = Core.boot_with { Core.Config.default with fs } in
    (Workloads.Postmark.run ~config:pm_small (Core.sys t)).Workloads.Postmark.times
  in
  let am fs =
    let t = Core.boot_with { Core.Config.default with fs } in
    Workloads.Amutils.setup ~config:am_small (Core.sys t);
    (Workloads.Amutils.run ~config:am_small (Core.sys t)).Workloads.Amutils.times
  in
  let pm_gcc = pm Core.Journalfs and pm_kgcc = pm Core.Journalfs_kgcc in
  let am_gcc = am Core.Journalfs and am_kgcc = am Core.Journalfs_kgcc in
  let ratio a b = float_of_int b /. float_of_int (max 1 a) in
  let pm_ratio = ratio pm_gcc.Ksim.Kernel.stime pm_kgcc.Ksim.Kernel.stime in
  let am_ratio = ratio am_gcc.Ksim.Kernel.stime am_kgcc.Ksim.Kernel.stime in
  Alcotest.(check bool) "postmark blows up" true (pm_ratio > 3.0);
  Alcotest.(check bool) "amutils modest" true (am_ratio < 2.0);
  Alcotest.(check bool) "contrast" true (pm_ratio > am_ratio)

let test_monitoring_overhead_ordering () =
  (* E6's ordering: plain < dispatcher+ring < polling logger < disk logger *)
  let cfg = { pm_small with transactions = 150 } in
  let base =
    let t = Core.boot_with Core.Config.default in
    (Workloads.Postmark.run ~config:cfg (Core.sys t)).Workloads.Postmark.times.Ksim.Kernel.elapsed
  in
  let ring =
    let t = Core.boot_with Core.Config.default in
    ignore (Core.enable_monitoring t);
    let e = (Workloads.Postmark.run ~config:cfg (Core.sys t)).Workloads.Postmark.times.Ksim.Kernel.elapsed in
    Core.disable_monitoring t;
    e
  in
  let logger write_to_disk =
    let t = Core.boot_with Core.Config.default in
    let d = Core.enable_monitoring t in
    let cd = Kmonitor.Chardev.create (Core.kernel t) d in
    let lib = Kmonitor.Libkernevents.create cd in
    let lg = Kmonitor.Disk_logger.create ~write_to_disk (Core.kernel t) lib in
    let cfg = { cfg with Workloads.Postmark.pump = (fun () -> Kmonitor.Disk_logger.pump lg) } in
    let e = (Workloads.Postmark.run ~config:cfg (Core.sys t)).Workloads.Postmark.times.Ksim.Kernel.elapsed in
    Core.disable_monitoring t;
    e
  in
  let nodisk = logger false in
  let disk = logger true in
  Alcotest.(check bool) "ring adds overhead" true (ring > base);
  Alcotest.(check bool) "polling logger adds more" true (nodisk > ring);
  Alcotest.(check bool) "disk logger most" true (disk > nodisk)

let test_watchdog_protects_runaway_compound () =
  (* a hostile compound cannot hang the simulated kernel *)
  let t = Core.boot_with Core.Config.default in
  let exec =
    Core.cosy
      ~policy:
        {
          Cosy.Cosy_safety.mode = Cosy.Cosy_safety.Data_segment;
          watchdog_budget = 2_000_000;
          trust_after = None;
        }
      t
  in
  let c = Cosy.Cosy_lib.create () in
  let top = Cosy.Cosy_lib.next_index c in
  ignore (Cosy.Cosy_lib.syscall c "getpid" []);
  Cosy.Cosy_lib.jmp c top;
  try
    ignore (Cosy.Cosy_exec.submit exec (Cosy.Cosy_lib.finish c));
    Alcotest.fail "expected watchdog"
  with Cosy.Cosy_safety.Watchdog_expired _ ->
    Alcotest.(check bool) "kernel usable afterwards" true
      (Core.Syscall.sys_getpid (Core.sys t) >= 0)

(* --- knet serving (E14) ------------------------------------------------- *)

let net_small variant =
  { Workloads.Webserver.net_default_config with
    Workloads.Webserver.variant; conns = 24; requests_per_conn = 2 }

let net_run variant =
  let t = Core.boot_with Core.Config.default in
  let config = net_small variant in
  Workloads.Webserver.net_setup ~config (Core.sys t);
  let k = Core.kernel t in
  let x0 = Ksim.Kernel.crossings k in
  let c0 = Ksim.Kernel.bytes_to_user k + Ksim.Kernel.bytes_from_user k in
  let s = Workloads.Webserver.run_net ~config (Core.sys t) in
  ( s,
    Ksim.Kernel.crossings k - x0,
    Ksim.Kernel.bytes_to_user k + Ksim.Kernel.bytes_from_user k - c0 )

let test_net_variants_equivalent () =
  (* E14's core claim: all four serving loops deliver byte-identical
     response streams, and the consolidated/sendfile/ring variants pay
     for them with fewer crossings or fewer copied bytes *)
  let naive, nx, ncopy = net_run Workloads.Webserver.Net_naive in
  let cons, cx, _ = net_run Workloads.Webserver.Net_consolidated in
  let sf, _, sfcopy = net_run Workloads.Webserver.Net_sendfile in
  let ring, rx, rcopy = net_run Workloads.Webserver.Net_ring in
  Alcotest.(check int) "all conns completed" 24 naive.Workloads.Webserver.n_completed;
  List.iter
    (fun (name, s) ->
      Alcotest.(check string) (name ^ ": same bytes on the wire")
        naive.Workloads.Webserver.n_digest s.Workloads.Webserver.n_digest;
      Alcotest.(check int) (name ^ ": same completions")
        naive.Workloads.Webserver.n_completed s.Workloads.Webserver.n_completed)
    [ ("consolidated", cons); ("sendfile", sf); ("ring", ring) ];
  Alcotest.(check bool) "consolidated crosses less" true (cx < nx);
  Alcotest.(check bool) "ring crosses least" true (rx < cx);
  Alcotest.(check bool) "sendfile copies less" true (sfcopy < ncopy);
  Alcotest.(check bool) "ring copies less" true (rcopy < ncopy)

(* The precomputed request lines are the per-request format's strings. *)
let test_net_request_lines () =
  let config = net_small Workloads.Webserver.Net_naive in
  let lines = Workloads.Webserver.net_request_lines config in
  Alcotest.(check int) "one line per document"
    config.Workloads.Webserver.docs.Workloads.Webserver.documents
    (Array.length lines);
  Array.iteri
    (fun i line ->
      Alcotest.(check string) "GET line" (Printf.sprintf "GET %d\n" i) line)
    lines

let test_net_smp_completes () =
  let t = Core.boot_with { Core.Config.default with ncpus = Some 2 } in
  let config =
    { (net_small Workloads.Webserver.Net_sendfile) with
      Workloads.Webserver.conns = 12 }
  in
  let insts = Workloads.Smp.webserver_net_instances ~config (Core.sys t) 2 in
  let r = Workloads.Smp.run (Core.sys t) insts in
  Alcotest.(check int) "two instances" 2 r.Workloads.Smp.instances;
  Array.iter
    (fun c -> Alcotest.(check bool) "every cpu worked" true (c > 0))
    r.Workloads.Smp.cpu_cycles;
  let knet = Core.net t in
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "port %d clients all served" (80 + i))
      12
      (Knet.Traffic.completed knet ~port:(80 + i))
  done

let smp_cfg =
  { Workloads.Webserver.default_config with
    documents = 20;
    requests = 40;
    doc_size = 4_096;
    doc_size_spread = 2_048 }

let smp_run ~ncpus ~shards =
  let t = Core.boot_with { Core.Config.default with ncpus = Some ncpus; dcache_shards = Some shards } in
  let insts = Workloads.Smp.webserver_instances ~config:smp_cfg (Core.sys t) ncpus in
  Workloads.Smp.run (Core.sys t) insts

let test_smp_driver_completes () =
  let r = smp_run ~ncpus:4 ~shards:1 in
  Alcotest.(check int) "all requests served" (4 * 40) r.Workloads.Smp.steps;
  Alcotest.(check int) "one instance per cpu" 4 r.Workloads.Smp.instances;
  Array.iter
    (fun c -> Alcotest.(check bool) "every cpu worked" true (c > 0))
    r.Workloads.Smp.cpu_cycles;
  Alcotest.(check bool) "makespan is busiest cpu" true
    (r.Workloads.Smp.makespan = Array.fold_left max 0 r.Workloads.Smp.cpu_cycles)

let test_smp_contention_profile () =
  (* global lock under SMP contends; one CPU or sharding does not *)
  let multi = smp_run ~ncpus:4 ~shards:1 in
  Alcotest.(check bool) "global lock contended" true (multi.Workloads.Smp.contended > 0);
  Alcotest.(check bool) "spin cycles charged" true (multi.Workloads.Smp.spin_cycles > 0);
  let single = smp_run ~ncpus:1 ~shards:1 in
  Alcotest.(check int) "no remote holder at 1 cpu" 0 single.Workloads.Smp.contended;
  let sharded = smp_run ~ncpus:4 ~shards:64 in
  Alcotest.(check int) "sharded reads lockless" 0 sharded.Workloads.Smp.contended;
  Alcotest.(check bool) "sharding beats the global lock" true
    (sharded.Workloads.Smp.makespan < multi.Workloads.Smp.makespan)

let test_smp_postmark_contends () =
  let cfg = { pm_small with Workloads.Postmark.transactions = 200 } in
  let t = Core.boot_with { Core.Config.default with ncpus = Some 4; dcache_shards = Some 1 } in
  let insts = Workloads.Smp.postmark_instances ~config:cfg (Core.sys t) 4 in
  let r = Workloads.Smp.run (Core.sys t) insts in
  Alcotest.(check bool) "postmark contends the global dcache_lock" true
    (r.Workloads.Smp.contended > 0)

let test_smp_deterministic () =
  let a = smp_run ~ncpus:4 ~shards:1 in
  let b = smp_run ~ncpus:4 ~shards:1 in
  Alcotest.(check int) "same makespan" a.Workloads.Smp.makespan b.Workloads.Smp.makespan;
  Alcotest.(check int) "same contention" a.Workloads.Smp.contended b.Workloads.Smp.contended

let () =
  Alcotest.run "workloads"
    [
      ( "postmark",
        [
          Alcotest.test_case "runs+balances" `Quick test_postmark_runs_and_balances;
          Alcotest.test_case "deterministic" `Quick test_postmark_deterministic;
          Alcotest.test_case "file names" `Quick test_postmark_file_names;
          QCheck_alcotest.to_alcotest qcheck_postmark_live_order;
          Alcotest.test_case "private pages" `Quick test_postmark_private_pages;
        ] );
      ("amutils", [ Alcotest.test_case "user dominated" `Quick test_amutils_user_dominated ]);
      ( "cosy-apps",
        [
          Alcotest.test_case "database equivalence" `Quick test_database_plain_vs_cosy_same_io;
          Alcotest.test_case "webserver" `Quick test_webserver_plain_vs_cosy;
          Alcotest.test_case "webserver sendfile" `Quick test_webserver_sendfile;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E1 lsdir" `Quick test_lsdir_equivalence_and_direction;
          Alcotest.test_case "E2 interactive" `Quick test_interactive_trace_mines_patterns;
          Alcotest.test_case "E5 kefence overhead" `Quick test_kefence_overhead_small;
          Alcotest.test_case "E7 kgcc contrast" `Quick test_kgcc_journalfs_overhead_direction;
          Alcotest.test_case "E6 monitoring order" `Quick test_monitoring_overhead_ordering;
          Alcotest.test_case "watchdog" `Quick test_watchdog_protects_runaway_compound;
        ] );
      ( "knet",
        [
          Alcotest.test_case "E14 variants equivalent" `Quick test_net_variants_equivalent;
          Alcotest.test_case "E14 smp completes" `Quick test_net_smp_completes;
          Alcotest.test_case "E14 request lines = GET format" `Quick test_net_request_lines;
        ] );
      ( "smp",
        [
          Alcotest.test_case "driver completes" `Quick test_smp_driver_completes;
          Alcotest.test_case "contention profile" `Quick test_smp_contention_profile;
          Alcotest.test_case "postmark contends" `Quick test_smp_postmark_contends;
          Alcotest.test_case "deterministic" `Quick test_smp_deterministic;
        ] );
    ]
