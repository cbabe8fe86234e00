(* Tests for the kperf tracer: ring overflow in both modes, span
   nesting/parenting across a kring batch, byte-identical determinism of
   the exporters across two fixed-seed runs, round-trip parsing of the
   Chrome trace_event export — and the contract everything leans on:
   tracing disabled costs zero simulated cycles. *)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let clock = ref 0

let mk ?(mode = Kperf.Overwrite) ?(ring_capacity = 8) () =
  clock := 0;
  Kperf.create ~enabled:true ~mode ~ring_capacity
    ~now:(fun () -> !clock)
    ()

let tick () = incr clock

(* --- ring overflow ------------------------------------------------------ *)

let test_overflow_overwrite () =
  let t = mk ~mode:Kperf.Overwrite ~ring_capacity:4 () in
  for i = 1 to 10 do
    tick ();
    Kperf.instant t ~pid:0 ~arg:i ~cat:"t" ~name:"x"
  done;
  Alcotest.(check int) "emitted" 10 (Kperf.emitted t);
  Alcotest.(check int) "overwritten" 6 (Kperf.overwritten t);
  Alcotest.(check int) "drops" 0 (Kperf.drops t);
  let evs = Kperf.events t in
  Alcotest.(check int) "retained" 4 (List.length evs);
  (* overwrite keeps the newest *)
  Alcotest.(check (list int)) "newest survive" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Kperf.ev_arg) evs)

let test_overflow_drop () =
  let t = mk ~mode:Kperf.Drop ~ring_capacity:4 () in
  for i = 1 to 10 do
    tick ();
    Kperf.instant t ~pid:0 ~arg:i ~cat:"t" ~name:"x"
  done;
  Alcotest.(check int) "emitted" 10 (Kperf.emitted t);
  Alcotest.(check int) "drops" 6 (Kperf.drops t);
  Alcotest.(check int) "overwritten" 0 (Kperf.overwritten t);
  let evs = Kperf.events t in
  (* drop keeps the oldest *)
  Alcotest.(check (list int)) "oldest survive" [ 1; 2; 3; 4 ]
    (List.map (fun e -> e.Kperf.ev_arg) evs)

let test_overflow_kstats () =
  let stats = Kstats.create ~enabled:true () in
  let t =
    Kperf.create ~enabled:true ~mode:Kperf.Drop ~ring_capacity:2 ~stats ()
  in
  for _ = 1 to 5 do
    Kperf.instant t ~pid:0 ~arg:0 ~cat:"t" ~name:"x"
  done;
  let counter name =
    match Kstats.find stats name with
    | Some (Kstats.Counter_v n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "kperf.events" 5 (counter "kperf.events");
  Alcotest.(check int) "kperf.ring.drops" 3 (counter "kperf.ring.drops")

(* --- span structure ----------------------------------------------------- *)

let test_nesting () =
  let t = mk ~ring_capacity:64 () in
  tick ();
  let outer = Kperf.span_begin t ~pid:0 ~arg:0 ~cat:"a" ~name:"outer" in
  tick ();
  let inner = Kperf.span_begin t ~pid:0 ~arg:0 ~cat:"a" ~name:"inner" in
  Alcotest.(check int) "current is inner" inner (Kperf.current_span t);
  tick ();
  Kperf.span_end t ~pid:0 ~arg:0 inner;
  tick ();
  Kperf.span_end t ~pid:0 ~arg:0 outer;
  let evs = Kperf.events t in
  let begin_of name =
    List.find
      (fun e -> e.Kperf.ev_kind = Kperf.Begin && e.Kperf.ev_name = name)
      evs
  in
  Alcotest.(check int) "outer is root" 0 (begin_of "outer").Kperf.ev_parent;
  Alcotest.(check int) "inner child of outer" outer
    (begin_of "inner").Kperf.ev_parent;
  (* folded: the inner span's cycles are attributed to the full path *)
  let folded = Kperf.folded t in
  Alcotest.(check bool) "nested path present" true
    (contains folded "a:outer;a:inner 1")

(* Spans survive the syscall boundary: every syscall dispatched from a
   drained kring batch must be parented (directly or transitively) to
   the batch's one ring:enter span. *)
let test_kring_batch_parenting () =
  let t = Core.boot_with { Core.Config.default with trace = Some true } in
  let ring = Core.ring t in
  let reqs =
    [
      Core.Req.Mkdir { path = "/d" };
      Core.Req.Open { path = "/d/f"; flags = Core.o_create };
      Core.Req.Getpid;
    ]
  in
  let completions = Kring.run_batch ring reqs in
  Alcotest.(check int) "all completed" 3 (List.length completions);
  let evs = Kperf.events (Core.perf t) in
  let enters =
    List.filter
      (fun e ->
        e.Kperf.ev_kind = Kperf.Begin
        && e.Kperf.ev_cat = "ring" && e.Kperf.ev_name = "enter")
      evs
  in
  Alcotest.(check int) "one batch, one enter span" 1 (List.length enters);
  let enter_id = (List.hd enters).Kperf.ev_id in
  let syscall_begins =
    List.filter
      (fun e -> e.Kperf.ev_kind = Kperf.Begin && e.Kperf.ev_cat = "syscall")
      evs
  in
  Alcotest.(check bool) "batch dispatched syscalls" true
    (List.length syscall_begins >= 3);
  (* every syscall span reaches ring:enter through its parent chain *)
  let parent_of id =
    List.find_map
      (fun e ->
        if e.Kperf.ev_kind = Kperf.Begin && e.Kperf.ev_id = id then
          Some e.Kperf.ev_parent
        else None)
      evs
  in
  List.iter
    (fun e ->
      let rec reaches id =
        id = enter_id
        || (id <> 0 && match parent_of id with Some p -> reaches p | None -> false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "syscall %s under ring:enter" e.Kperf.ev_name)
        true
        (reaches e.Kperf.ev_parent))
    syscall_begins

(* --- determinism -------------------------------------------------------- *)

let traced_postmark () =
  let t = Core.boot_with { Core.Config.default with trace = Some true } in
  let cfg =
    { Workloads.Postmark.default_config with files = 20; transactions = 60 }
  in
  ignore (Workloads.Postmark.run ~config:cfg (Core.sys t));
  let perf = Core.perf t in
  (Ksim.Kernel.now (Core.kernel t), Kperf.folded perf, Kperf.chrome_json perf)

let test_determinism () =
  let cy1, folded1, chrome1 = traced_postmark () in
  let cy2, folded2, chrome2 = traced_postmark () in
  Alcotest.(check int) "cycles identical" cy1 cy2;
  Alcotest.(check string) "folded byte-identical" folded1 folded2;
  Alcotest.(check string) "chrome byte-identical" chrome1 chrome2;
  Alcotest.(check bool) "trace nonempty" true (String.length folded1 > 0)

(* Tracing disabled must not move the simulated clock by one cycle. *)
let test_disabled_is_free () =
  let run ~trace =
    let t = Core.boot_with { Core.Config.default with trace = Some trace } in
    let cfg =
      { Workloads.Postmark.default_config with files = 20; transactions = 60 }
    in
    ignore (Workloads.Postmark.run ~config:cfg (Core.sys t));
    (Ksim.Kernel.now (Core.kernel t), Kperf.emitted (Core.perf t))
  in
  let cy_off, emitted_off = run ~trace:false in
  let cy_off2, _ = run ~trace:false in
  let cy_on, emitted_on = run ~trace:true in
  Alcotest.(check int) "untraced runs bit-for-bit" cy_off cy_off2;
  Alcotest.(check int) "disabled emits nothing" 0 emitted_off;
  Alcotest.(check bool) "enabled emits" true (emitted_on > 0);
  Alcotest.(check bool) "enabled costs cycles (charged, not free)" true
    (cy_on > cy_off);
  (* ... but bounded: the emit hooks stay under 2% even on a metadata
     workload where syscalls are cheap *)
  Alcotest.(check bool) "enabled overhead under 2%" true
    (float_of_int (cy_on - cy_off) /. float_of_int cy_off < 0.02)

(* A tracer that records nothing holds no ring storage: a disabled
   4-CPU tracer at the default 65,536-slot capacity reaches under 1k
   words, however many hooks it is handed.  An enabled one allocates
   the ring of each CPU it stores on, and keeps every event; rings
   never used export and clear as empty. *)
let test_disabled_allocates_nothing () =
  let words t = Obj.reachable_words (Obj.repr t) in
  let stats = Kstats.create ~enabled:true () in
  let off = Kperf.create ~ncpus:4 ~stats () in
  ignore (Kperf.span_begin off ~pid:1 ~arg:0 ~cat:"t" ~name:"x");
  Kperf.instant off ~pid:1 ~arg:0 ~cat:"t" ~name:"y";
  let w_off = words off in
  if w_off >= 1000 then Alcotest.failf "disabled tracer reaches %d words" w_off;
  let cpu = ref 2 in
  let on = Kperf.create ~enabled:true ~ncpus:4 ~stats ~cpu:(fun () -> !cpu) () in
  Alcotest.(check string) "nothing to export" "" (Kperf.folded on);
  for i = 1 to 100 do
    tick ();
    let id = Kperf.span_begin on ~pid:1 ~arg:i ~cat:"t" ~name:"s" in
    Kperf.span_end on ~pid:1 ~arg:0 id
  done;
  Alcotest.(check int) "keeps what it stores" 200 (List.length (Kperf.events on));
  let w_on = words on in
  Alcotest.(check bool) "one ring allocated" true
    (w_on > 65536 && w_on < 2 * 65536);
  Alcotest.(check bool) "chrome export" true
    (contains (Kperf.chrome_json on) "\"traceEvents\"");
  Kperf.clear on;
  Alcotest.(check int) "cleared" 0 (List.length (Kperf.events on));
  cpu := 0;
  Kperf.instant on ~pid:1 ~arg:7 ~cat:"t" ~name:"after";
  Alcotest.(check (list int)) "a fresh ring after clear" [ 7 ]
    (List.map (fun e -> e.Kperf.ev_arg) (Kperf.events on))

(* --- Chrome export round-trip ------------------------------------------- *)

let test_chrome_roundtrip () =
  let t = mk ~ring_capacity:64 () in
  tick ();
  let s = Kperf.span_begin t ~pid:7 ~arg:42 ~cat:"c\"at" ~name:"sp\\an" in
  tick ();
  Kperf.instant t ~pid:0 ~arg:0 ~cat:"i" ~name:"mark";
  let a = Kperf.async_begin t ~pid:0 ~arg:0 ~cat:"net" ~name:"req" in
  tick ();
  Kperf.async_end t ~pid:0 ~arg:0 a;
  Kperf.span_end t ~pid:0 ~arg:43 s;
  let evs = Kperf.events t in
  let json = Kperf.chrome_of_events ~ncpus:1 evs in
  let back = Kperf.events_of_chrome json in
  Alcotest.(check int) "same event count" (List.length evs) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d survives" a.Kperf.ev_seq)
        true
        (a.Kperf.ev_kind = b.Kperf.ev_kind
        && a.Kperf.ev_id = b.Kperf.ev_id
        && a.Kperf.ev_parent = b.Kperf.ev_parent
        && a.Kperf.ev_cat = b.Kperf.ev_cat
        && a.Kperf.ev_name = b.Kperf.ev_name
        && a.Kperf.ev_ts = b.Kperf.ev_ts
        && a.Kperf.ev_pid = b.Kperf.ev_pid
        && a.Kperf.ev_arg = b.Kperf.ev_arg))
    evs back;
  (* and the derived views agree *)
  Alcotest.(check string) "folded identical through round-trip"
    (Kperf.fold_events evs) (Kperf.fold_events back)

let test_json_parser () =
  let open Kperf.Json in
  (match parse {| {"a": [1, -2.5, "xA\n", true, null], "b": {}} |} with
  | Obj [ ("a", Arr [ Num 1.; Num -2.5; Str "xA\n"; Bool true; Null ]);
          ("b", Obj []) ] -> ()
  | _ -> Alcotest.fail "unexpected parse");
  (match parse "[1, 2" with
  | exception Parse_error _ -> ()
  | _ -> Alcotest.fail "unterminated array should fail");
  match parse {| {"a":1} trailing |} with
  | exception Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage should fail"

(* --- kmonitor bridge ----------------------------------------------------- *)

let test_perf_bridge () =
  let t = Core.boot_with { Core.Config.default with trace = Some true } in
  let d = Core.enable_monitoring t in
  Fun.protect ~finally:(fun () -> Core.disable_monitoring t) @@ fun () ->
  Core.perf_feed t;
  let span_begin = Ksim.Instrument.custom "kperf-span-begin" in
  let span_end = Ksim.Instrument.custom "kperf-span-end" in
  let begins = ref 0 and ends = ref 0 in
  Kmonitor.Dispatcher.register d ~name:"count" (fun ev ->
      if ev.Ksim.Instrument.kind = span_begin then incr begins
      else if ev.Ksim.Instrument.kind = span_end then incr ends);
  let sys = Core.sys t in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/f" ~flags:Core.o_create) in
  Core.ok (Core.Syscall.sys_close sys ~fd);
  Alcotest.(check bool) "spans mirrored into the event stream" true
    (!begins > 0);
  Alcotest.(check int) "every begin has its end" !begins !ends;
  Kperf.set_sink (Core.perf t) None;
  let before = !begins + !ends in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/g" ~flags:Core.o_create) in
  Core.ok (Core.Syscall.sys_close sys ~fd);
  Alcotest.(check int) "detach stops the mirror" before (!begins + !ends)

let () =
  Alcotest.run "kperf"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow overwrite" `Quick test_overflow_overwrite;
          Alcotest.test_case "overflow drop" `Quick test_overflow_drop;
          Alcotest.test_case "overflow kstats" `Quick test_overflow_kstats;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "kring batch parenting" `Quick
            test_kring_batch_parenting;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical exports" `Quick test_determinism;
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_disabled_allocates_nothing;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome roundtrip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "kmonitor bridge" `Quick test_perf_bridge;
        ] );
    ]
