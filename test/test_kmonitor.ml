(* Tests for the event-monitoring framework: the lock-free ring buffer
   (including a cross-domain property test), the dispatcher, the
   character device, libkernevents, the invariant monitors, the rule
   language, every named event source, and the disk logger. *)

let kind_name k = Fmt.str "%a" Ksim.Instrument.pp_kind k

let ev ?(obj = 1) ?(value = 0) ?(kind = Ksim.Instrument.Lock) ?(file = "f")
    ?(line = 0) ?(pid = 0) () =
  { Ksim.Instrument.obj; value; kind; file; line; pid }

(* --- ring buffer ------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Kmonitor.Ring.create 8 in
  Alcotest.(check bool) "empty" true (Kmonitor.Ring.is_empty r);
  for i = 1 to 5 do
    Alcotest.(check bool) "push" true (Kmonitor.Ring.push r i)
  done;
  Alcotest.(check int) "length" 5 (Kmonitor.Ring.length r);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (Kmonitor.Ring.pop_batch r ~max:3);
  Alcotest.(check (list int)) "rest" [ 4; 5 ] (Kmonitor.Ring.pop_batch r ~max:10);
  Alcotest.(check (option int)) "drained" None (Kmonitor.Ring.pop r)

let test_ring_overflow_drops () =
  let r = Kmonitor.Ring.create 4 in
  for i = 1 to 6 do
    ignore (Kmonitor.Ring.push r i)
  done;
  Alcotest.(check int) "dropped" 2 (Kmonitor.Ring.dropped r);
  Alcotest.(check (list int)) "kept oldest" [ 1; 2; 3; 4 ]
    (Kmonitor.Ring.pop_batch r ~max:10)

let test_ring_wraparound () =
  let r = Kmonitor.Ring.create 4 in
  for round = 0 to 9 do
    Alcotest.(check bool) "push" true (Kmonitor.Ring.push r (round * 2));
    Alcotest.(check bool) "push" true (Kmonitor.Ring.push r ((round * 2) + 1));
    Alcotest.(check (list int)) "wrap round"
      [ round * 2; (round * 2) + 1 ]
      (Kmonitor.Ring.pop_batch r ~max:2)
  done

let test_ring_cross_domain () =
  (* genuine SPSC use: producer on another domain, consumer here; every
     pushed value must come out exactly once, in order *)
  let r = Kmonitor.Ring.create 64 in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        let pushed = ref 0 in
        let i = ref 0 in
        while !i < n do
          if Kmonitor.Ring.push r !i then begin
            incr pushed;
            incr i
          end
          (* on overflow, spin until the consumer catches up *)
        done;
        !pushed)
  in
  let received = ref [] in
  let count = ref 0 in
  while !count < n do
    match Kmonitor.Ring.pop r with
    | Some v ->
        received := v :: !received;
        incr count
    | None -> Domain.cpu_relax ()
  done;
  let pushed = Domain.join producer in
  Alcotest.(check int) "all pushed" n pushed;
  let got = List.rev !received in
  Alcotest.(check int) "all received" n (List.length got);
  Alcotest.(check bool) "in order" true
    (List.mapi (fun i v -> i = v) got |> List.for_all Fun.id)

let test_ring_cross_domain_batched () =
  (* same producer/consumer split, but the consumer drains in batches
     through pop_batch, which is how Chardev really reads the ring *)
  let r = Kmonitor.Ring.create 64 in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while !i < n do
          if Kmonitor.Ring.push r !i then incr i
        done)
  in
  let received = ref [] in
  let count = ref 0 in
  while !count < n do
    match Kmonitor.Ring.pop_batch r ~max:17 with
    | [] -> Domain.cpu_relax ()
    | batch ->
        List.iter (fun v -> received := v :: !received) batch;
        count := !count + List.length batch
  done;
  Domain.join producer;
  let got = List.rev !received in
  Alcotest.(check int) "all received" n (List.length got);
  Alcotest.(check bool) "in order" true
    (List.mapi (fun i v -> i = v) got |> List.for_all Fun.id)

let qcheck_ring_sequential =
  QCheck.Test.make ~name:"ring behaves like a bounded FIFO queue" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      (* Some n = push n, None = pop *)
      let r = Kmonitor.Ring.create 8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let fits = Queue.length model < 8 in
              let accepted = Kmonitor.Ring.push r v in
              if accepted then Queue.push v model;
              accepted = fits
          | None -> (
              match (Kmonitor.Ring.pop r, Queue.take_opt model) with
              | None, None -> true
              | Some a, Some b -> a = b
              | _ -> false))
        ops)

(* --- dispatcher --------------------------------------------------------- *)

let mk_dispatcher () =
  let kernel = Ksim.Kernel.create () in
  (kernel, Kmonitor.Dispatcher.create kernel)

let test_dispatcher_callbacks () =
  let _, d = mk_dispatcher () in
  let seen = ref 0 in
  Kmonitor.Dispatcher.register d ~name:"counter" (fun _ -> incr seen);
  Kmonitor.Dispatcher.log_event d (ev ());
  Kmonitor.Dispatcher.log_event d (ev ());
  Alcotest.(check int) "both delivered" 2 !seen;
  Kmonitor.Dispatcher.unregister d ~name:"counter";
  Kmonitor.Dispatcher.log_event d (ev ());
  Alcotest.(check int) "after unregister" 2 !seen;
  Alcotest.(check int) "events counted" 3 (Kmonitor.Dispatcher.events d)

let test_dispatcher_ring_feed () =
  let _, d = mk_dispatcher () in
  Kmonitor.Dispatcher.log_event d (ev ~obj:7 ());
  Alcotest.(check int) "ring off by default" 0
    (Kmonitor.Ring.length (Kmonitor.Dispatcher.ring d));
  Kmonitor.Dispatcher.enable_ring d;
  Kmonitor.Dispatcher.log_event d (ev ~obj:8 ());
  Alcotest.(check int) "ring fed" 1 (Kmonitor.Ring.length (Kmonitor.Dispatcher.ring d))

let test_dispatcher_install () =
  let kernel, d = mk_dispatcher () in
  Kmonitor.Dispatcher.install d;
  (* a spinlock acquire now reaches the dispatcher *)
  let l = Ksim.Spinlock.create "x" in
  Ksim.Spinlock.lock l;
  Ksim.Spinlock.unlock l;
  Kmonitor.Dispatcher.uninstall d;
  Ksim.Spinlock.lock l;
  Ksim.Spinlock.unlock l;
  ignore kernel;
  Alcotest.(check int) "only installed window seen" 2 (Kmonitor.Dispatcher.events d)

let test_dispatcher_charges () =
  let kernel, d = mk_dispatcher () in
  Kmonitor.Dispatcher.enable_ring d;
  let t0 = Ksim.Kernel.now kernel in
  Kmonitor.Dispatcher.log_event d (ev ());
  let cost = Ksim.Kernel.cost kernel in
  Alcotest.(check int) "dispatch + ring cost"
    (cost.Ksim.Cost_model.event_dispatch + cost.Ksim.Cost_model.ring_push)
    (Ksim.Kernel.now kernel - t0)

(* --- chardev + libkernevents -------------------------------------------- *)

let mk_stack () =
  let kernel, d = mk_dispatcher () in
  Kmonitor.Dispatcher.enable_ring d;
  let cd = Kmonitor.Chardev.create kernel d in
  (kernel, d, cd)

let test_chardev_batches () =
  let _, d, cd = mk_stack () in
  for i = 0 to 9 do
    Kmonitor.Dispatcher.log_event d (ev ~obj:i ())
  done;
  let batch = Kmonitor.Chardev.read cd ~max:4 in
  Alcotest.(check int) "batch size" 4 (List.length batch);
  Alcotest.(check int) "pending" 6 (Kmonitor.Chardev.pending cd);
  ignore (Kmonitor.Chardev.read cd ~max:100);
  Alcotest.(check int) "delivered" 10 (Kmonitor.Chardev.events_delivered cd);
  ignore (Kmonitor.Chardev.read cd ~max:100);
  Alcotest.(check int) "empty poll counted" 1 (Kmonitor.Chardev.empty_polls cd)

let test_libkernevents_polling_vs_blocking () =
  let kernel, d, cd = mk_stack () in
  let lib = Kmonitor.Libkernevents.create ~strategy:Kmonitor.Libkernevents.Polling cd in
  let polled = ref 0 in
  Kmonitor.Libkernevents.add_sink lib ~name:"n" (fun _ -> incr polled);
  Kmonitor.Dispatcher.log_event d (ev ());
  Kmonitor.Libkernevents.pump lib;
  Alcotest.(check int) "polling consumed" 1 !polled;
  (* polling pays for the trailing empty read *)
  Alcotest.(check bool) "empty polls happen" true (Kmonitor.Chardev.empty_polls cd >= 1);
  (* blocking with a high watermark doesn't touch the device when quiet *)
  let cd2 = Kmonitor.Chardev.create kernel d in
  let lib2 =
    Kmonitor.Libkernevents.create
      ~strategy:(Kmonitor.Libkernevents.Blocking { low_water = 5 }) cd2
  in
  Kmonitor.Libkernevents.pump lib2;
  Alcotest.(check int) "no reads while below watermark" 0 (Kmonitor.Chardev.reads cd2)

let test_libkernevents_drain () =
  let _, d, cd = mk_stack () in
  let lib = Kmonitor.Libkernevents.create cd in
  for _ = 1 to 100 do
    Kmonitor.Dispatcher.log_event d (ev ())
  done;
  Kmonitor.Libkernevents.drain lib;
  Alcotest.(check int) "all consumed" 100 (Kmonitor.Libkernevents.consumed lib);
  Alcotest.(check int) "ring empty" 0 (Kmonitor.Ring.length (Kmonitor.Dispatcher.ring d))

let test_chardev_reports_drops () =
  (* a tiny ring that overflows: the consumer must learn how many events
     it lost, per read and in total *)
  let kernel = Ksim.Kernel.create () in
  let d = Kmonitor.Dispatcher.create ~ring_capacity:4 kernel in
  Kmonitor.Dispatcher.enable_ring d;
  let cd = Kmonitor.Chardev.create kernel d in
  for i = 0 to 9 do
    Kmonitor.Dispatcher.log_event d (ev ~obj:i ())
  done;
  Alcotest.(check int) "ring dropped" 6 (Kmonitor.Chardev.dropped cd);
  let batch = Kmonitor.Chardev.read cd ~max:100 in
  Alcotest.(check int) "kept oldest" 4 (List.length batch);
  Alcotest.(check int) "drops reported by this read" 6
    (Kmonitor.Chardev.last_read_drops cd);
  ignore (Kmonitor.Chardev.read cd ~max:100);
  Alcotest.(check int) "no new drops" 0 (Kmonitor.Chardev.last_read_drops cd)

let test_libkernevents_drop_stats () =
  let kernel = Ksim.Kernel.create () in
  let d = Kmonitor.Dispatcher.create ~ring_capacity:4 kernel in
  Kmonitor.Dispatcher.enable_ring d;
  let cd = Kmonitor.Chardev.create kernel d in
  let lib = Kmonitor.Libkernevents.create cd in
  for i = 0 to 9 do
    Kmonitor.Dispatcher.log_event d (ev ~obj:i ())
  done;
  Kmonitor.Libkernevents.drain lib;
  let s = Kmonitor.Libkernevents.stats lib in
  Alcotest.(check int) "consumed" 4 s.Kmonitor.Libkernevents.consumed;
  Alcotest.(check int) "dropped" 6 s.Kmonitor.Libkernevents.dropped;
  Alcotest.(check int) "dropped accessor" 6 (Kmonitor.Libkernevents.dropped lib);
  Alcotest.(check bool) "reads issued" true (s.Kmonitor.Libkernevents.reads >= 1)

(* --- custom event names -------------------------------------------------- *)

let test_custom_event_names () =
  let k = Ksim.Instrument.custom "my-subsystem-event" in
  Alcotest.(check string) "printed by name" "my-subsystem-event" (kind_name k);
  Alcotest.(check bool) "idempotent" true
    (Ksim.Instrument.custom "my-subsystem-event" = k);
  Alcotest.(check bool) "declared" true (List.mem k (Ksim.Instrument.kinds ()))

(* --- stats feed ---------------------------------------------------------- *)

let test_stats_feed () =
  let kernel = Ksim.Kernel.create () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  let d = Kmonitor.Dispatcher.create kernel in
  Kmonitor.Dispatcher.enable_ring d;
  Kmonitor.Dispatcher.install d;
  let cd = Kmonitor.Chardev.create kernel d in
  (* one crossing recorded after enabling, so a reading is non-zero *)
  Ksim.Kernel.enter_kernel kernel;
  Ksim.Kernel.exit_kernel kernel;
  let feed = Kmonitor.Stats_feed.create kernel in
  Kmonitor.Stats_feed.emit feed;
  Kmonitor.Dispatcher.uninstall d;
  Alcotest.(check int) "one snapshot" 1 (Kmonitor.Stats_feed.snapshots feed);
  let events = Kmonitor.Chardev.read cd ~max:1000 in
  let metrics = List.filter_map Kmonitor.Stats_feed.decode events in
  (* one reading per registered metric, carrying the metric's name *)
  Alcotest.(check int) "one event per metric"
    (List.length (Kstats.names (Ksim.Kernel.stats kernel)))
    (List.length metrics);
  Alcotest.(check bool) "snapshot kind named" true
    (List.for_all
       (fun e ->
         Kmonitor.Stats_feed.decode e = None
         || kind_name e.Ksim.Instrument.kind = "kstats-snapshot")
       events);
  Alcotest.(check bool) "kernel.crossings captured" true
    (match List.assoc_opt "kernel.crossings" metrics with
    | Some v -> v >= 1
    | None -> false)

(* --- monitors ------------------------------------------------------------ *)

let test_refcount_monitor () =
  let m = Kmonitor.Monitors.refcount_monitor () in
  let cb = Kmonitor.Monitors.refcount_callback m in
  cb (ev ~obj:5 ~value:2 ~kind:Ksim.Instrument.Ref_inc ());
  cb (ev ~obj:5 ~value:1 ~kind:Ksim.Instrument.Ref_dec ());
  Alcotest.(check int) "no violations" 0 (List.length m.Kmonitor.Monitors.rc_violations);
  cb (ev ~obj:6 ~value:(-1) ~kind:Ksim.Instrument.Ref_dec ());
  Alcotest.(check int) "negative flagged" 1 (List.length m.Kmonitor.Monitors.rc_violations);
  (* leak report: object 5 rests at 1 > 0 *)
  let leaks = Kmonitor.Monitors.refcount_leaks m ~resting:0 in
  Alcotest.(check bool) "leak candidate" true (List.mem_assoc 5 leaks)

let test_spinlock_monitor () =
  let m = Kmonitor.Monitors.spinlock_monitor () in
  let cb = Kmonitor.Monitors.spinlock_callback m in
  cb (ev ~obj:1 ~kind:Ksim.Instrument.Lock ());
  cb (ev ~obj:1 ~kind:Ksim.Instrument.Unlock ());
  Alcotest.(check int) "balanced ok" 0 (List.length m.Kmonitor.Monitors.sl_violations);
  cb (ev ~obj:1 ~kind:Ksim.Instrument.Unlock ());
  Alcotest.(check int) "double unlock flagged" 1
    (List.length m.Kmonitor.Monitors.sl_violations);
  cb (ev ~obj:2 ~kind:Ksim.Instrument.Lock ());
  cb (ev ~obj:2 ~kind:Ksim.Instrument.Lock ());
  Alcotest.(check int) "double lock flagged" 2
    (List.length m.Kmonitor.Monitors.sl_violations);
  Alcotest.(check bool) "still held at end" true
    (List.mem_assoc 2 (Kmonitor.Monitors.spinlocks_still_held m))

let test_contention_monitor () =
  let m = Kmonitor.Monitors.contention_monitor () in
  let cb = Kmonitor.Monitors.contention_callback m in
  (* Contended events carry the spin cycles charged as their value *)
  cb (ev ~obj:7 ~value:1_500 ~kind:Ksim.Instrument.Contended ());
  cb (ev ~obj:7 ~value:500 ~kind:Ksim.Instrument.Contended ());
  cb (ev ~obj:9 ~value:100 ~kind:Ksim.Instrument.Contended ());
  (* uncontended traffic is not counted *)
  cb (ev ~obj:7 ~kind:Ksim.Instrument.Lock ());
  cb (ev ~obj:7 ~kind:Ksim.Instrument.Unlock ());
  Alcotest.(check int) "events" 3 m.Kmonitor.Monitors.cn_events;
  Alcotest.(check int) "total spin" 2_100 m.Kmonitor.Monitors.cn_spin_cycles;
  match Kmonitor.Monitors.hottest_locks m with
  | (obj, hits, spin) :: rest ->
      Alcotest.(check int) "hottest is 7" 7 obj;
      Alcotest.(check int) "two contentions" 2 hits;
      Alcotest.(check int) "its spin" 2_000 spin;
      Alcotest.(check int) "one more lock" 1 (List.length rest)
  | [] -> Alcotest.fail "no hot locks"

let test_irq_monitor () =
  let m = Kmonitor.Monitors.irq_monitor () in
  let cb = Kmonitor.Monitors.irq_callback m in
  cb (ev ~kind:Ksim.Instrument.Irq_disable ());
  cb (ev ~kind:Ksim.Instrument.Irq_enable ());
  Alcotest.(check int) "balanced" 0 (List.length m.Kmonitor.Monitors.irq_violations);
  cb (ev ~kind:Ksim.Instrument.Irq_enable ());
  Alcotest.(check int) "unbalanced flagged" 1
    (List.length m.Kmonitor.Monitors.irq_violations)

let test_net_monitor () =
  let m = Kmonitor.Monitors.net_monitor () in
  let cb = Kmonitor.Monitors.net_callback m in
  let kind = Ksim.Instrument.custom "net-backlog-drop" in
  (* the event's value carries the listener's running total: replace,
     don't accumulate *)
  cb (ev ~obj:80 ~value:1 ~kind ());
  cb (ev ~obj:80 ~value:2 ~kind ());
  cb (ev ~obj:8080 ~value:1 ~kind ());
  (* other custom kinds are not ours *)
  cb (ev ~obj:99 ~value:7 ~kind:(Ksim.Instrument.custom "kperf-span-begin") ());
  Alcotest.(check int) "events" 3 m.Kmonitor.Monitors.nm_events;
  (match Kmonitor.Monitors.hottest_listeners m with
  | (port, drops) :: _ ->
      Alcotest.(check int) "hottest port" 80 port;
      Alcotest.(check int) "its drops" 2 drops
  | [] -> Alcotest.fail "no listeners seen");
  (* live: a real backlog overflow flows from knet through the
     dispatcher and the monitor names the hot listening socket *)
  let kernel = Ksim.Kernel.create () in
  let d = Kmonitor.Dispatcher.create kernel in
  let std = Kmonitor.Monitors.register_standard d in
  Kmonitor.Dispatcher.install d;
  let net = Knet.create kernel in
  let s = Knet.socket net in
  ignore (Knet.bind net ~sock:s ~port:80);
  ignore (Knet.listen net ~sock:s ~backlog:1);
  ignore (Knet.inject_connect net ~port:80);
  ignore (Knet.inject_connect net ~port:80);
  ignore (Knet.inject_connect net ~port:80);
  Kmonitor.Dispatcher.uninstall d;
  Alcotest.(check (list (pair int int)))
    "monitor names the hot listener" [ (80, 2) ]
    (Kmonitor.Monitors.hottest_listeners std.Kmonitor.Monitors.net)

let test_standard_monitors_end_to_end () =
  let kernel = Ksim.Kernel.create () in
  let d = Kmonitor.Dispatcher.create kernel in
  let std = Kmonitor.Monitors.register_standard d in
  Kmonitor.Dispatcher.install d;
  (* drive real kernel objects *)
  let l = Ksim.Spinlock.create "live" in
  Ksim.Spinlock.lock l;
  Ksim.Spinlock.unlock l;
  let rc = Ksim.Refcount.create "obj" in
  Ksim.Refcount.get rc;
  ignore (Ksim.Refcount.put rc);
  Ksim.Kernel.irq_disable kernel;
  Ksim.Kernel.irq_enable kernel;
  Kmonitor.Dispatcher.uninstall d;
  Alcotest.(check int) "no violations from healthy code" 0
    (List.length (Kmonitor.Monitors.all_violations std));
  Alcotest.(check int) "lock acquisitions observed" 1
    std.Kmonitor.Monitors.spinlocks.Kmonitor.Monitors.sl_acquisitions

(* --- rule language (the 3.5 aspect-style plan) ------------------------------- *)

let test_mfilter_parse_and_match () =
  let m rule e = Kmonitor.Mfilter.compile rule e in
  let e1 = ev ~obj:3 ~value:2 ~kind:Ksim.Instrument.Ref_inc ~file:"memfs.ml" () in
  let e2 = ev ~obj:4 ~value:(-1) ~kind:Ksim.Instrument.Ref_dec ~file:"dcache.ml" () in
  Alcotest.(check bool) "kind match" true (m "ref-inc,ref-dec" e1);
  Alcotest.(check bool) "kind mismatch" false (m "lock,unlock" e1);
  Alcotest.(check bool) "wildcard" true (m "*" e1);
  Alcotest.(check bool) "obj filter" true (m "* obj=3" e1);
  Alcotest.(check bool) "obj filter out" false (m "* obj=3" e2);
  Alcotest.(check bool) "file prefix" true (m "* @ memfs" e1);
  Alcotest.(check bool) "file prefix out" false (m "* @ memfs" e2);
  Alcotest.(check bool) "value<0 catches underflow" true (m "* value<0" e2);
  Alcotest.(check bool) "value<0 passes healthy" false (m "* value<0" e1);
  Alcotest.(check bool) "combined" true (m "ref-dec @ dcache value<0" e2)

let test_mfilter_bad_rules () =
  let bad rule =
    try
      let (_ : Ksim.Instrument.event -> bool) = Kmonitor.Mfilter.compile rule in
      Alcotest.failf "rule %S should be rejected" rule
    with Kmonitor.Mfilter.Bad_rule _ -> ()
  in
  bad "";
  bad "no-such-kind";
  bad "* obj=banana";
  bad "* @"

(* The rule language names exactly what pp_kind prints: every built-in
   kind and every declared custom kind parses back to itself and matches
   nothing else. *)
let test_mfilter_kind_roundtrip () =
  let kinds = Ksim.Instrument.kinds () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " declared") true
        (List.exists (fun k -> kind_name k = name) kinds))
    [ "contended"; "kstats-snapshot"; "net-backlog-drop"; "sfi-violation";
      "kfault-inject"; "kcrash-oops"; "kcrash-power-loss"; "kcrash-recovery";
      "kperf-span-begin"; "kperf-span-end" ];
  List.iter
    (fun k ->
      let rule = Kmonitor.Mfilter.compile (kind_name k) in
      List.iter
        (fun k' ->
          Alcotest.(check bool)
            (Fmt.str "%s vs %s" (kind_name k) (kind_name k'))
            (k = k') (rule (ev ~kind:k' ())))
        kinds)
    kinds

let test_mfilter_subscribe () =
  let _, d = mk_dispatcher () in
  let negatives = ref 0 in
  Kmonitor.Mfilter.subscribe d ~rule:"ref-dec value<0" ~name:"underflows"
    (fun _ -> incr negatives);
  Kmonitor.Dispatcher.log_event d (ev ~value:3 ~kind:Ksim.Instrument.Ref_dec ());
  Kmonitor.Dispatcher.log_event d (ev ~value:(-2) ~kind:Ksim.Instrument.Ref_dec ());
  Kmonitor.Dispatcher.log_event d (ev ~value:(-2) ~kind:Ksim.Instrument.Lock ());
  Alcotest.(check int) "only the matching event" 1 !negatives

(* --- one event plane ------------------------------------------------------- *)

(* Each named source, triggered once, paired with the custom events it
   must put on the stream: (kind, pid, obj, value, file basename). *)
let event_sources =
  let pid t = (Ksim.Kernel.current (Core.kernel t)).Ksim.Kproc.pid in
  [
    ( "knet backlog drop",
      fun () ->
        let net = Knet.create (Ksim.Kernel.create ()) in
        let s = Knet.socket net in
        ignore (Knet.bind net ~sock:s ~port:80);
        ignore (Knet.listen net ~sock:s ~backlog:1);
        ignore (Knet.inject_connect net ~port:80);
        ignore (Knet.inject_connect net ~port:80);
        [ ("net-backlog-drop", 0, 80, 1, "knet.ml") ] );
    ( "kverify Log violation",
      fun () ->
        let t =
          Core.boot_with
            { Core.Config.default with verify = Some Core.Verify.Log }
        in
        Core.Verify.set_automaton
          (Option.get (Core.kverify t))
          (Some (Kverify.Sfi.of_edges [ (Core.Sysno.Mkdir, Core.Sysno.Open) ]));
        ignore (Core.ok (Core.Syscall.sys_mkdir (Core.sys t) ~path:"/d"));
        ignore (Core.ok (Core.Syscall.sys_mkdir (Core.sys t) ~path:"/d/e"));
        let mkdir = Core.Sysno.to_int Core.Sysno.Mkdir in
        [ ("sfi-violation", pid t, mkdir, mkdir, "kverify.ml") ] );
    ( "kfault once:1 fire",
      fun () ->
        let t = Core.boot_with Core.Config.default in
        Kfault.arm (Core.fault t)
          [ { Kfault.site = "syscall.eintr"; trigger = Kfault.One_shot 1 } ];
        ignore (Core.ok (Core.Syscall.sys_mkdir (Core.sys t) ~path:"/d"));
        [ ("kfault-inject", pid t, 0, 1, "kfault:syscall.eintr") ] );
    ( "kcrash oops",
      fun () ->
        let t =
          Core.boot_with
            { Core.Config.default with
              crash = Some { Core.Crash.contain = true; durable = false } }
        in
        let victim = pid t in
        ignore
          (Core.ok
             (Core.Syscall.sys_open (Core.sys t) ~path:"/held"
                ~flags:Core.o_create));
        Ksim.Kernel.reap (Core.kernel t)
          (Ksim.Kernel.current (Core.kernel t))
          ~reason:"test";
        let r = List.hd (Kcrash.reports (Option.get (Core.kcrash t))) in
        let reaped =
          r.Kcrash.o_fds + r.Kcrash.o_kmallocs + r.Kcrash.o_vmallocs
          + r.Kcrash.o_locks + r.Kcrash.o_ring
        in
        Alcotest.(check bool) "the open file was reaped" true (reaped >= 1);
        [ ("kcrash-oops", victim, 0, reaped, "kcrash:test") ] );
    ( "Core.reboot recovery",
      fun () ->
        let t =
          Core.boot_with
            { Core.Config.default with
              fs = Core.Journalfs;
              crash = Some { Core.Crash.contain = true; durable = true } }
        in
        ignore
          (Core.ok
             (Core.Syscall.sys_open_write_close (Core.sys t) ~path:"/f"
                ~data:(Bytes.of_string "x") ~flags:Core.o_create));
        let t2 = Core.reboot t in
        let info =
          Option.get
            (Kvfs.Journalfs.last_recover (Option.get (Core.journalfs t2)))
        in
        [
          ("kcrash-power-loss", 0, 0, info.Kvfs.Journalfs.rec_torn,
           "kcrash:power-loss");
          ("kcrash-recovery", 0, 0, info.Kvfs.Journalfs.rec_replayed,
           "kcrash:recovery");
        ] );
  ]

let test_every_source_reaches_stream () =
  let show (kind, pid, obj, value, file) =
    Fmt.str "%s pid=%d obj=%d value=%d file=%s" kind pid obj value file
  in
  List.iter
    (fun (source, trigger) ->
      let _, d = mk_dispatcher () in
      let seen = ref [] in
      Kmonitor.Dispatcher.register d ~name:"capture" (fun e ->
          match e.Ksim.Instrument.kind with
          | Ksim.Instrument.Custom _ -> seen := e :: !seen
          | _ -> ());
      Kmonitor.Dispatcher.install d;
      let expected =
        Fun.protect ~finally:(fun () -> Kmonitor.Dispatcher.uninstall d) trigger
      in
      Alcotest.(check (list string)) source (List.map show expected)
        (List.rev_map
           (fun (e : Ksim.Instrument.event) ->
             show
               ( kind_name e.kind, e.pid, e.obj, e.value,
                 Filename.basename e.file ))
           !seen))
    event_sources

(* --- disk logger ----------------------------------------------------------- *)

let test_disk_logger () =
  let kernel, d, cd = mk_stack () in
  let lib = Kmonitor.Libkernevents.create cd in
  let logger = Kmonitor.Disk_logger.create kernel lib in
  for _ = 1 to 10 do
    Kmonitor.Dispatcher.log_event d (ev ())
  done;
  let t0 = Ksim.Kernel.now kernel in
  Kmonitor.Disk_logger.drain logger;
  Alcotest.(check int) "records" 10 (Kmonitor.Disk_logger.records_written logger);
  Alcotest.(check int) "bytes" (10 * Kmonitor.Disk_logger.record_size)
    (Kmonitor.Disk_logger.bytes_written logger);
  let cost = Ksim.Kernel.cost kernel in
  Alcotest.(check bool) "disk writes charged" true
    (Ksim.Kernel.now kernel - t0 >= 10 * cost.Ksim.Cost_model.log_write_per_event)

let test_disk_logger_no_write_mode () =
  let kernel, d, cd = mk_stack () in
  let lib = Kmonitor.Libkernevents.create cd in
  let logger = Kmonitor.Disk_logger.create ~write_to_disk:false kernel lib in
  for _ = 1 to 5 do
    Kmonitor.Dispatcher.log_event d (ev ())
  done;
  Kmonitor.Disk_logger.drain logger;
  Alcotest.(check int) "records still counted" 5
    (Kmonitor.Disk_logger.records_written logger)

let () =
  Alcotest.run "kmonitor"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "overflow drops" `Quick test_ring_overflow_drops;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "cross domain" `Quick test_ring_cross_domain;
          Alcotest.test_case "cross domain batched" `Quick
            test_ring_cross_domain_batched;
          QCheck_alcotest.to_alcotest qcheck_ring_sequential;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "callbacks" `Quick test_dispatcher_callbacks;
          Alcotest.test_case "ring feed" `Quick test_dispatcher_ring_feed;
          Alcotest.test_case "install" `Quick test_dispatcher_install;
          Alcotest.test_case "charges" `Quick test_dispatcher_charges;
        ] );
      ( "chardev",
        [
          Alcotest.test_case "batches" `Quick test_chardev_batches;
          Alcotest.test_case "polling vs blocking" `Quick test_libkernevents_polling_vs_blocking;
          Alcotest.test_case "drain" `Quick test_libkernevents_drain;
          Alcotest.test_case "drop reporting" `Quick test_chardev_reports_drops;
          Alcotest.test_case "drop stats" `Quick test_libkernevents_drop_stats;
        ] );
      ( "stats-feed",
        [
          Alcotest.test_case "custom names" `Quick test_custom_event_names;
          Alcotest.test_case "snapshot events" `Quick test_stats_feed;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "refcount" `Quick test_refcount_monitor;
          Alcotest.test_case "spinlock" `Quick test_spinlock_monitor;
          Alcotest.test_case "irq" `Quick test_irq_monitor;
          Alcotest.test_case "contention" `Quick test_contention_monitor;
          Alcotest.test_case "net backpressure" `Quick test_net_monitor;
          Alcotest.test_case "end to end" `Quick test_standard_monitors_end_to_end;
        ] );
      ( "mfilter",
        [
          Alcotest.test_case "parse+match" `Quick test_mfilter_parse_and_match;
          Alcotest.test_case "bad rules" `Quick test_mfilter_bad_rules;
          Alcotest.test_case "kind round trip" `Quick
            test_mfilter_kind_roundtrip;
          Alcotest.test_case "subscribe" `Quick test_mfilter_subscribe;
        ] );
      ( "event-plane",
        [
          Alcotest.test_case "every source reaches the stream" `Quick
            test_every_source_reaches_stream;
        ] );
      ( "disk-logger",
        [
          Alcotest.test_case "writes" `Quick test_disk_logger;
          Alcotest.test_case "no-write mode" `Quick test_disk_logger_no_write_mode;
        ] );
    ]
