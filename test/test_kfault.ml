(* kfault: the deterministic fault-injection engine, its zero-impact
   disarmed contract, the per-subsystem recovery paths, and the
   systematic resilience sweep. *)

(* --- the engine alone -------------------------------------------------- *)

let test_triggers () =
  let f = Kfault.create ~enabled:true () in
  let s = Kfault.register f "x" in
  Kfault.arm f [ { Kfault.site = "x"; trigger = Kfault.Every_nth 3 } ];
  let fires = ref 0 in
  for _ = 1 to 9 do
    if Kfault.fire f s then incr fires
  done;
  Alcotest.(check int) "nth:3 over 9 occurrences" 3 !fires;
  Alcotest.(check int) "occurrences counted" 9 (Kfault.occurrences f s);
  Kfault.arm f [ { Kfault.site = "x"; trigger = Kfault.One_shot 4 } ];
  Alcotest.(check int) "arm resets" 0 (Kfault.occurrences f s);
  let pattern = List.init 6 (fun _ -> Kfault.fire f s) in
  Alcotest.(check (list bool))
    "once:4 fires exactly at 4"
    [ false; false; false; true; false; false ]
    pattern

let test_prob_deterministic () =
  let stream seed =
    let f = Kfault.create ~enabled:true () in
    let s = Kfault.register f "p" in
    Kfault.arm f [ { Kfault.site = "p"; trigger = Kfault.Prob { seed; ppm = 250_000 } } ];
    List.init 200 (fun _ -> Kfault.fire f s)
  in
  Alcotest.(check (list bool)) "same seed, same stream" (stream 42) (stream 42);
  Alcotest.(check bool)
    "different seed, different stream" true
    (stream 42 <> stream 43);
  let hits = List.length (List.filter Fun.id (stream 42)) in
  Alcotest.(check bool)
    (Printf.sprintf "ppm respected roughly (got %d/200)" hits)
    true
    (hits > 20 && hits < 80)

let test_counting_mode_and_disarm () =
  let f = Kfault.create ~enabled:true () in
  let s = Kfault.register f "x" in
  Kfault.arm f [];
  for _ = 1 to 5 do
    ignore (Kfault.fire f s)
  done;
  Alcotest.(check int) "counting mode counts" 5 (Kfault.occurrences f s);
  Alcotest.(check int) "counting mode never fires" 0 (Kfault.fires f s);
  Kfault.disarm f;
  for _ = 1 to 5 do
    ignore (Kfault.fire f s)
  done;
  Alcotest.(check int) "disarmed stops counting" 5 (Kfault.occurrences f s)

let test_late_registration_binds_plan () =
  let f = Kfault.create ~enabled:true () in
  Kfault.arm ~strict:false f
    [ { Kfault.site = "late.site"; trigger = Kfault.One_shot 1 } ];
  let s = Kfault.register f "late.site" in
  Alcotest.(check bool) "fires on first occurrence" true (Kfault.fire f s);
  Alcotest.(check bool) "one-shot spent" false (Kfault.fire f s)

let test_plan_specs () =
  let ok spec expect =
    match Kfault.plan_of_spec spec with
    | Ok p -> Alcotest.(check string) spec expect (Fmt.str "%a" Kfault.pp_plan p)
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  ok "a.b=nth:4" "a.b=nth:4";
  ok "a.b=once:9" "a.b=once:9";
  ok "a.b=prob:500:7" "a.b=prob:500:7";
  ok "a.b=window:10:20" "a.b=window:10:20";
  List.iter
    (fun spec ->
      match Kfault.plan_of_spec spec with
      | Ok _ -> Alcotest.failf "%s should not parse" spec
      | Error _ -> ())
    [ "a.b"; "=nth:1"; "a.b=nth:0"; "a.b=prob:2000000:1"; "a.b=window:9:9"; "a.b=zap:1" ]

let test_sweep_points () =
  let counts = [ ("a", 10); ("b", 0); ("c", 2) ] in
  Alcotest.(check int)
    "uncapped: every occurrence" 12
    (List.length (Kfault.sweep_points counts));
  let capped = Kfault.sweep_points ~max_per_site:4 counts in
  Alcotest.(check int) "capped" 6 (List.length capped);
  Alcotest.(check bool)
    "cap includes first and last" true
    (List.mem ("a", 1) capped && List.mem ("a", 10) capped);
  Alcotest.(check (list (pair string int)))
    "cap of one" [ ("a", 1); ("c", 1) ]
    (Kfault.sweep_points ~max_per_site:1 counts)

(* --- zero-impact disarmed contract ------------------------------------- *)

(* The standard workload under a counting-mode engine must be
   bit-for-bit identical to the same workload with the engine disabled
   outright: same cycles, same payload digest, same kstats report. *)
let test_disarmed_bit_for_bit () =
  let counting = Resilience.run () in
  Kfault.default_enabled := false;
  let disabled =
    Fun.protect
      ~finally:(fun () -> Kfault.default_enabled := true)
      (fun () -> Resilience.run ())
  in
  Alcotest.(check (option string)) "counting escapes nothing" None
    counting.Resilience.r_escaped;
  Alcotest.(check (list string)) "counting errs nothing" []
    counting.Resilience.r_errs;
  Alcotest.(check int) "identical cycles" disabled.Resilience.r_cycles
    counting.Resilience.r_cycles;
  Alcotest.(check string) "identical digest" disabled.Resilience.r_digest
    counting.Resilience.r_digest;
  Alcotest.(check string) "identical kstats report"
    disabled.Resilience.r_stats counting.Resilience.r_stats;
  (* and the counting run actually watched every site *)
  let reached =
    List.filter (fun (_, occ, _) -> occ > 0) counting.Resilience.r_counts
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 sites reached (got %d)" (List.length reached))
    true
    (List.length reached >= 10)

(* --- recovery paths, site by site -------------------------------------- *)

let boot () =
  let t = Core.boot_with { Core.Config.default with fs = Core.Wrapfs_kmalloc } in
  Kstats.set_enabled (Core.stats t) true;
  t

let arm t plans =
  Kfault.arm ~strict:false (Core.fault t)
    (List.map
       (fun (site, trigger) -> { Kfault.site; trigger })
       plans)

let counter_value t name =
  match Kstats.find (Core.stats t) name with
  | Some (Kstats.Counter_v n) -> n
  | _ -> 0

let test_kmalloc_enomem_errno () =
  let t = boot () in
  ignore (Ksyscall.Usyscall.sys_mkdir (Core.sys t) ~path:"/d");
  arm t [ ("kalloc.kmalloc", Kfault.Every_nth 1) ];
  (match
     Ksyscall.Usyscall.sys_open (Core.sys t) ~path:"/d/f" ~flags:Core.o_create
   with
  | Error Kvfs.Vtypes.ENOMEM -> ()
  | Error e ->
      Alcotest.failf "expected ENOMEM, got %s" (Kvfs.Vtypes.errno_to_string e)
  | Ok _ -> Alcotest.fail "expected ENOMEM, got success");
  Kfault.disarm (Core.fault t);
  (* the kernel survives: the same create now succeeds *)
  match
    Ksyscall.Usyscall.sys_open (Core.sys t) ~path:"/d/f" ~flags:Core.o_create
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery open: %s" (Kvfs.Vtypes.errno_to_string e)

let test_eintr_transparent_restart () =
  let t = boot () in
  arm t [ ("syscall.eintr", Kfault.One_shot 1) ];
  (match Ksyscall.Usyscall.sys_mkdir (Core.sys t) ~path:"/d" with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "restart should hide EINTR, got %s"
        (Kvfs.Vtypes.errno_to_string e));
  Alcotest.(check int) "one restart counted" 1
    (counter_value t "retry.eintr_restarts")

let test_eintr_gives_up () =
  let t = boot () in
  arm t [ ("syscall.eintr", Kfault.Every_nth 1) ];
  match Ksyscall.Usyscall.sys_mkdir (Core.sys t) ~path:"/d" with
  | Error Kvfs.Vtypes.EINTR -> ()
  | Error e ->
      Alcotest.failf "expected EINTR, got %s" (Kvfs.Vtypes.errno_to_string e)
  | Ok _ -> Alcotest.fail "a permanent interrupt storm cannot succeed"

let test_ring_partial_progress () =
  let t = boot () in
  ignore (Ksyscall.Usyscall.sys_mkdir (Core.sys t) ~path:"/d");
  (match
     Ksyscall.Usyscall.sys_open_write_close (Core.sys t) ~path:"/d/a"
       ~data:(Bytes.make 64 'a') ~flags:Core.o_create
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup: %s" (Kvfs.Vtypes.errno_to_string e));
  let ring = Core.ring t in
  arm t [ ("ring.partial_enter", Kfault.Every_nth 1) ];
  let comps =
    Kring.run_batch ring
      [
        Ksyscall.Syscall.Open_read_close { path = "/d/a"; maxlen = 64 };
        Ksyscall.Syscall.Stat { path = "/d/a" };
        Ksyscall.Syscall.Getpid;
      ]
  in
  Alcotest.(check int) "every op completed" 3 (List.length comps);
  List.iter
    (fun (c : Kring.completion) ->
      match c.Kring.reply with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ring op: %s" (Kvfs.Vtypes.errno_to_string e))
    comps;
  Alcotest.(check bool) "ring.partial counted" true
    (counter_value t "ring.partial" >= 1)

let test_kopt_invalidation_recompiles () =
  let t =
    Core.boot_with
      { Core.Config.default with fs = Core.Wrapfs_kmalloc; optimize = true }
  in
  Kstats.set_enabled (Core.stats t) true;
  ignore (Ksyscall.Usyscall.sys_mkdir (Core.sys t) ~path:"/d");
  ignore
    (Ksyscall.Usyscall.sys_open_write_close (Core.sys t) ~path:"/d/a"
       ~data:(Bytes.make 100 'z') ~flags:Core.o_create);
  let exec = Core.cosy t in
  let build () =
    let c = Cosy.Cosy_lib.create () in
    let buf = Cosy.Cosy_lib.alloc_shared c 256 in
    let fd =
      Cosy.Cosy_lib.syscall c "open"
        [ Cosy.Cosy_op.Str "/d/a"; Cosy.Cosy_op.Const 0 ]
    in
    let n =
      Cosy.Cosy_lib.syscall c "read"
        [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Shared buf; Cosy.Cosy_op.Const 256 ]
    in
    ignore (Cosy.Cosy_lib.syscall c "close" [ Cosy.Cosy_op.Slot fd ]);
    (Cosy.Cosy_lib.finish c, n)
  in
  let compound, n = build () in
  let first = (Cosy.Cosy_exec.submit exec compound).(n) in
  arm t [ ("kopt.cache_invalidate", Kfault.Every_nth 1) ];
  let compound2, n2 = build () in
  let second = (Cosy.Cosy_exec.submit exec compound2).(n2) in
  Alcotest.(check int) "invalidated entry recompiles to the same result"
    first second;
  Alcotest.(check bool) "invalidation counted" true
    (counter_value t "kopt.cache.invalidations" >= 1)

let test_net_backoff_recovers () =
  let cfg =
    {
      Workloads.Webserver.net_default_config with
      conns = 8;
      requests_per_conn = 2;
    }
  in
  let clean =
    let t = boot () in
    Workloads.Webserver.net_setup ~config:cfg (Core.sys t);
    Workloads.Webserver.run_net ~config:cfg (Core.sys t)
  in
  let t = boot () in
  Workloads.Webserver.net_setup ~config:cfg (Core.sys t);
  (* A dense seeded drop rate: deterministic for a fixed seed, and heavy
     enough that some frame is dropped twice in a row, which is what
     grows a client's consecutive-failure streak past the base delay. *)
  arm t [ ("net.wire_drop", Kfault.Prob { seed = 7; ppm = 600_000 }) ];
  let faulty = Workloads.Webserver.run_net ~config:cfg (Core.sys t) in
  Alcotest.(check int) "every connection still completes"
    clean.Workloads.Webserver.n_completed faulty.Workloads.Webserver.n_completed;
  Alcotest.(check string) "byte-identical responses"
    clean.Workloads.Webserver.n_digest faulty.Workloads.Webserver.n_digest;
  Alcotest.(check bool) "retransmits counted" true
    (counter_value t "retry.net_retransmits" >= 1);
  Alcotest.(check bool) "backoff cycles charged" true
    (counter_value t "retry.net_backoff_cycles" >= 1)

(* Triggers that fire on every occurrence must still let a run finish:
   a frame dropped every time exhausts its retransmit budget and the
   client times out, and a spurious EAGAIN on every recv/accept lets one
   call through after the budget of consecutive injections. *)
let storm_cfg =
  { Workloads.Webserver.net_default_config with conns = 4; requests_per_conn = 2 }

let test_wire_drop_storm_times_out () =
  let t = boot () in
  Workloads.Webserver.net_setup ~config:storm_cfg (Core.sys t);
  arm t [ ("net.wire_drop", Kfault.Every_nth 1) ];
  let r = Workloads.Webserver.run_net ~config:storm_cfg (Core.sys t) in
  Alcotest.(check int) "no connection completes" 0
    r.Workloads.Webserver.n_completed;
  Alcotest.(check int) "every client timed out" storm_cfg.conns
    (counter_value t "retry.net_timeouts")

let test_eagain_storm_serves () =
  let clean =
    let t = boot () in
    Workloads.Webserver.net_setup ~config:storm_cfg (Core.sys t);
    Workloads.Webserver.run_net ~config:storm_cfg (Core.sys t)
  in
  let t = boot () in
  Workloads.Webserver.net_setup ~config:storm_cfg (Core.sys t);
  arm t [ ("syscall.eagain", Kfault.Every_nth 1) ];
  let r = Workloads.Webserver.run_net ~config:storm_cfg (Core.sys t) in
  Alcotest.(check string) "byte-identical responses"
    clean.Workloads.Webserver.n_digest r.Workloads.Webserver.n_digest;
  Alcotest.(check bool) "spurious EAGAINs injected" true
    (counter_value t "retry.eagain_injected" >= Ksyscall.Systable.restart_budget)

(* --- twin determinism (qcheck) ----------------------------------------- *)

let sites =
  [
    "kalloc.kmalloc"; "kalloc.vmalloc"; "blockdev.read_eio";
    "blockdev.read_short"; "net.wire_drop"; "net.recv_short";
    "syscall.eintr"; "syscall.eagain"; "cosy.watchdog_early";
    "ring.partial_enter"; "kopt.cache_invalidate";
  ]

let gen_plan =
  QCheck.Gen.(
    let* site = oneofl sites in
    let* trigger =
      oneof
        [
          map (fun n -> Kfault.Every_nth (1 + n)) (int_bound 30);
          map (fun k -> Kfault.One_shot (1 + k)) (int_bound 30);
          map2
            (fun seed ppm -> Kfault.Prob { seed; ppm = 1 + ppm })
            (int_bound 10_000) (int_bound 400_000);
        ]
    in
    return { Kfault.site; trigger })

let qcheck_twin_determinism =
  QCheck.Test.make ~name:"identical plan, identical twin systems" ~count:6
    (QCheck.make
       ~print:(fun ps ->
         String.concat " " (List.map (Fmt.str "%a" Kfault.pp_plan) ps))
       QCheck.Gen.(list_size (int_range 1 3) gen_plan))
    (fun plans ->
      let a = Resilience.run ~plans () in
      let b = Resilience.run ~plans () in
      a.Resilience.r_cycles = b.Resilience.r_cycles
      && a.Resilience.r_digest = b.Resilience.r_digest
      && a.Resilience.r_errs = b.Resilience.r_errs
      && a.Resilience.r_counts = b.Resilience.r_counts
      && a.Resilience.r_stats = b.Resilience.r_stats)

(* --- the systematic sweep ---------------------------------------------- *)

let test_sweep_no_violations () =
  let s = Resilience.sweep ~max_per_site:3 () in
  let reached =
    List.filter (fun (_, occ, _) -> occ > 0)
      s.Resilience.baseline.Resilience.r_counts
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 sites reached (got %d)" (List.length reached))
    true
    (List.length reached >= 10);
  Alcotest.(check bool) "sweep explored every reached site" true
    (List.for_all
       (fun (name, _, _) ->
         List.exists
           (fun (r : Resilience.sweep_row) -> r.Resilience.sw_site = name)
           s.Resilience.rows)
       reached);
  List.iter
    (fun (r : Resilience.sweep_row) ->
      if r.Resilience.sw_outcome = Resilience.Violation then
        Alcotest.failf "%s occ %d: %s %s" r.Resilience.sw_site
          r.Resilience.sw_occurrence
          (String.concat " " r.Resilience.sw_errs)
          r.Resilience.sw_detail)
    s.Resilience.rows;
  Alcotest.(check int) "zero violations" 0 s.Resilience.violations

let () =
  Alcotest.run "kfault"
    [
      ( "engine",
        [
          Alcotest.test_case "triggers" `Quick test_triggers;
          Alcotest.test_case "prob streams deterministic" `Quick
            test_prob_deterministic;
          Alcotest.test_case "counting mode and disarm" `Quick
            test_counting_mode_and_disarm;
          Alcotest.test_case "late registration binds plan" `Quick
            test_late_registration_binds_plan;
          Alcotest.test_case "plan specs" `Quick test_plan_specs;
          Alcotest.test_case "sweep points" `Quick test_sweep_points;
        ] );
      ( "zero-impact",
        [
          Alcotest.test_case "disarmed bit-for-bit" `Quick
            test_disarmed_bit_for_bit;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "kmalloc failure is ENOMEM" `Quick
            test_kmalloc_enomem_errno;
          Alcotest.test_case "EINTR restarts transparently" `Quick
            test_eintr_transparent_restart;
          Alcotest.test_case "EINTR storm gives up cleanly" `Quick
            test_eintr_gives_up;
          Alcotest.test_case "ring partial completion" `Quick
            test_ring_partial_progress;
          Alcotest.test_case "kopt invalidation recompiles" `Quick
            test_kopt_invalidation_recompiles;
          Alcotest.test_case "net backoff recovers" `Quick
            test_net_backoff_recovers;
          Alcotest.test_case "wire-drop storm times out" `Quick
            test_wire_drop_storm_times_out;
          Alcotest.test_case "EAGAIN storm still serves" `Quick
            test_eagain_storm_serves;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest qcheck_twin_determinism ] );
      ( "sweep",
        [
          Alcotest.test_case "no violations" `Quick test_sweep_no_violations;
        ] );
    ]
