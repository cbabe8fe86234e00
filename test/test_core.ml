(* Tests for the Core facade: booting each filesystem stack and the
   attach/detach helpers. *)

let test_boot_memfs () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/hello" ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.of_string "world")));
  ignore (Core.ok (Core.Syscall.sys_close sys ~fd));
  Alcotest.(check string) "round trip" "world"
    (Bytes.to_string
       (Core.ok (Core.Syscall.sys_open_read_close sys ~path:"/hello" ~maxlen:100)));
  Alcotest.(check bool) "no optional subsystems" true
    (Core.kefence t = None && Core.wrapfs t = None && Core.journalfs t = None)

let test_boot_each_fs () =
  let stacks =
    [
      ("wrapfs-kmalloc", Core.Wrapfs_kmalloc);
      ("wrapfs-kefence", Core.Wrapfs_kefence Kefence.Crash);
      ("journalfs", Core.Journalfs);
      ("journalfs-kgcc", Core.Journalfs_kgcc);
    ]
  in
  List.iter
    (fun (name, fs) ->
      let t = Core.boot_with { Core.Config.default with fs } in
      let sys = Core.sys t in
      let fd =
        Core.ok (Core.Syscall.sys_open sys ~path:"/f" ~flags:Core.o_create)
      in
      ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.of_string name)));
      ignore (Core.ok (Core.Syscall.sys_close sys ~fd));
      let st = Core.ok (Core.Syscall.sys_stat sys ~path:"/f") in
      Alcotest.(check int) (name ^ " size") (String.length name)
        st.Kvfs.Vtypes.st_size)
    stacks

let test_boot_flags_expose_subsystems () =
  let t = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kefence Kefence.Log_only } in
  (match Core.kefence t with
  | Some kf -> Alcotest.(check bool) "mode respected" true (Kefence.mode kf = Kefence.Log_only)
  | None -> Alcotest.fail "kefence expected");
  Alcotest.(check bool) "wrapfs exposed" true (Core.wrapfs t <> None);
  let t2 = Core.boot_with { Core.Config.default with fs = Core.Journalfs_kgcc } in
  Alcotest.(check bool) "kgcc runtime exposed" true (Core.kgcc_runtime t2 <> None)

let test_monitoring_lifecycle () =
  let t = Core.boot_with Core.Config.default in
  Alcotest.(check bool) "off initially" true (Core.dispatcher t = None);
  let d = Core.enable_monitoring t in
  let l = Ksim.Spinlock.create "probe" in
  Ksim.Spinlock.lock l;
  Ksim.Spinlock.unlock l;
  Alcotest.(check int) "events flow" 2 (Kmonitor.Dispatcher.events d);
  Core.disable_monitoring t;
  Ksim.Spinlock.lock l;
  Ksim.Spinlock.unlock l;
  Alcotest.(check int) "events stop" 2 (Kmonitor.Dispatcher.events d)

let test_trace_helper () =
  let t = Core.boot_with Core.Config.default in
  let r = Core.trace t in
  ignore (Core.Syscall.sys_getpid (Core.sys t));
  Alcotest.(check int) "recorded" 1 (Ktrace.Recorder.count r)

let test_cosy_helper () =
  let t = Core.boot_with Core.Config.default in
  let exec = Core.cosy t in
  let c = Cosy.Cosy_lib.create () in
  let r = Cosy.Cosy_lib.syscall c "getpid" [] in
  let slots = Cosy.Cosy_exec.submit exec (Cosy.Cosy_lib.finish c) in
  Alcotest.(check int) "getpid via compound" 1 slots.(r)

let test_sys_error_exception () =
  let t = Core.boot_with Core.Config.default in
  try
    ignore (Core.ok (Core.Syscall.sys_stat (Core.sys t) ~path:"/absent"));
    Alcotest.fail "expected Sys_error"
  with Core.Sys_error e ->
    Alcotest.(check string) "errno" "ENOENT" (Kvfs.Vtypes.errno_to_string e)

let test_custom_cost_model () =
  let t = Core.boot_with { Core.Config.default with cost = Ksim.Cost_model.zero } in
  ignore (Core.Syscall.sys_getpid (Core.sys t));
  Alcotest.(check int) "free under zero model" 0 (Ksim.Kernel.now (Core.kernel t))

(* --- quiet extensions ----------------------------------------------------- *)

(* Five extensions that may sit on a system without moving a simulated
   number: the kstats registry recording, the fault engine armed with an
   empty plan (counting mode), a kverify dispatch gate with no
   automaton, kcrash containment that is never handed a kill, and the
   kperf tracer switched off.  Any subset of them, on any base stack,
   must leave the standard resilience workload's cycles, payload digest,
   errors and every metric the bare system registers exactly as the bare
   system has them, and register no metric of its own but the gate's
   kverify counters.  This one property stands in for each extension's
   own "absent is bit-for-bit identical" test. *)
type quiet = {
  q_stats : bool;
  q_fault : bool;
  q_gate : bool;
  q_crash : bool;
  q_perf_off : bool;
}

let quiet_of_mask m =
  {
    q_stats = m land 1 <> 0;
    q_fault = m land 2 <> 0;
    q_gate = m land 4 <> 0;
    q_crash = m land 8 <> 0;
    q_perf_off = m land 16 <> 0;
  }

let quiet_names q =
  List.filter_map
    (fun (on, name) -> if on then Some name else None)
    [
      (q.q_stats, "kstats on");
      (q.q_fault, "kfault armed, empty plan");
      (q.q_gate, "kverify gate, no automaton");
      (q.q_crash, "kcrash contain");
      (q.q_perf_off, "kperf off");
    ]

(* The stacks the per-extension tests ran on, with a weight: plain
   memfs, the sweep system (wrapfs over kmalloc with the optimizer), and
   the crash system's journalfs with the optimizer, drawn less often
   because its interpreted module makes a run over 100 times slower. *)
let quiet_bases =
  [ (4, (Core.Memfs, false)); (4, (Core.Wrapfs_kmalloc, true));
    (1, (Core.Journalfs, true)) ]

let quiet_run (fs, optimize) q =
  (* a recording registry goes on at boot, as the bench harnesses do it *)
  Kstats.default_enabled := q.q_stats;
  let t =
    Fun.protect ~finally:(fun () -> Kstats.default_enabled := false)
    @@ fun () ->
    Core.boot_with
      {
        Core.Config.default with
        fs;
        optimize;
        crash =
          (if q.q_crash then Some { Core.Crash.contain = true; durable = false }
           else None);
        trace = (if q.q_perf_off then Some false else None);
      }
  in
  if q.q_fault then Kfault.arm (Core.fault t) [];
  if q.q_gate then
    Core.Verify.install (Core.Verify.create (Core.kernel t)) (Core.sys t);
  let r = Resilience.exercise t in
  (r, Kstats.dump (Core.stats t))

(* The bare run of each base, with and without a recording registry. *)
let bare_runs = Hashtbl.create 8

let bare base ~stats =
  match Hashtbl.find_opt bare_runs (base, stats) with
  | Some r -> r
  | None ->
      let r = quiet_run base (quiet_of_mask (if stats then 1 else 0)) in
      Hashtbl.replace bare_runs (base, stats) r;
      r

let qcheck_quiet_extensions =
  QCheck.Test.make ~count:50
    ~name:"any quiet subset changes nothing"
    QCheck.(
      make
        ~print:(fun ((fs, optimize), m) ->
          Printf.sprintf "%s%s, [%s]"
            (match fs with
            | Core.Memfs -> "memfs"
            | Core.Wrapfs_kmalloc -> "wrapfs"
            | _ -> "journalfs")
            (if optimize then " + kopt" else "")
            (String.concat "; " (quiet_names (quiet_of_mask m))))
        Gen.(
          pair
            (frequency (List.map (fun (w, b) -> (w, return b)) quiet_bases))
            (int_bound 31)))
    (fun (base, mask) ->
      let q = quiet_of_mask mask in
      let r, metrics = quiet_run base q in
      let bare_r, _ = bare base ~stats:false in
      let _, bare_metrics = bare base ~stats:q.q_stats in
      if r.Resilience.r_cycles <> bare_r.Resilience.r_cycles then
        QCheck.Test.fail_reportf "cycles %d, bare %d" r.Resilience.r_cycles
          bare_r.Resilience.r_cycles;
      if r.Resilience.r_digest <> bare_r.Resilience.r_digest then
        QCheck.Test.fail_report "payload digest differs";
      if r.Resilience.r_errs <> bare_r.Resilience.r_errs then
        QCheck.Test.fail_report "errors differ";
      List.iter
        (fun (name, v) ->
          if List.assoc_opt name metrics <> Some v then
            QCheck.Test.fail_reportf "metric %s differs" name)
        bare_metrics;
      (* and adds none of its own, but for the gate's kverify counters *)
      List.iter
        (fun (name, _) ->
          if
            (not (List.mem_assoc name bare_metrics))
            && not (q.q_gate && String.starts_with ~prefix:"kverify." name)
          then QCheck.Test.fail_reportf "extra metric %s" name)
        metrics;
      true)

(* The property's metric check is only as good as what the bare runs
   record: with the registry on, the workload must have counted. *)
let test_quiet_reference_records () =
  List.iter
    (fun base ->
      let _, metrics = bare base ~stats:true in
      match List.assoc_opt "syscall.total" metrics with
      | Some (Kstats.Counter_v n) when n > 0 -> ()
      | _ -> Alcotest.fail "syscall.total not recorded")
    (List.map snd quiet_bases)

let () =
  Alcotest.run "core"
    [
      ( "boot",
        [
          Alcotest.test_case "memfs" `Quick test_boot_memfs;
          Alcotest.test_case "each fs" `Quick test_boot_each_fs;
          Alcotest.test_case "subsystems" `Quick test_boot_flags_expose_subsystems;
          Alcotest.test_case "cost model" `Quick test_custom_cost_model;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "monitoring" `Quick test_monitoring_lifecycle;
          Alcotest.test_case "trace" `Quick test_trace_helper;
          Alcotest.test_case "cosy" `Quick test_cosy_helper;
          Alcotest.test_case "sys error" `Quick test_sys_error_exception;
        ] );
      ( "quiet-extensions",
        [
          Alcotest.test_case "bare runs record" `Quick
            test_quiet_reference_records;
          QCheck_alcotest.to_alcotest qcheck_quiet_extensions;
        ] );
    ]
