(* kcrash: oops containment (fd/heap/lock/ring reaping, bystander
   isolation, the Kefence guardian-leak regression), crash-consistent
   journal recovery (idempotent replay, torn tails, data vs. metadata
   journalling), the disarmed-identity contract, and the crash-point
   sweep. *)

let zero_config =
  { Ksim.Kernel.default_config with cost = Ksim.Cost_model.zero }

let crash_contain = { Core.Crash.contain = true; durable = false }

let boot_contained ?(fs = Core.Memfs) () =
  let t =
    Core.boot_with
      { Core.Config.default with Core.Config.fs; crash = Some crash_contain }
  in
  Kstats.set_enabled (Core.stats t) true;
  t

let find_counter stats name =
  match Kstats.find stats name with Some (Kstats.Counter_v v) -> v | _ -> 0

let check_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %a" msg Kvfs.Vtypes.pp_errno e

(* --- Front 1: oops containment ---------------------------------------- *)

let test_oops_reaps_everything () =
  let t = boot_contained () in
  let kernel = Core.kernel t in
  let sys = Core.sys t in
  let sched = Ksim.Kernel.sched kernel in
  let alloc = Ksim.Kernel.alloc kernel in
  let victim = Ksim.Scheduler.current sched in
  let pid = victim.Ksim.Kproc.pid in
  (* resources the victim will die holding: two files, a socket, slab
     and vmalloc objects, a held spinlock *)
  let _fd1 = check_ok "open" (Core.Syscall.sys_open sys ~path:"/a" ~flags:Core.o_create) in
  let _fd2 = check_ok "open" (Core.Syscall.sys_open sys ~path:"/b" ~flags:Core.o_create) in
  let _sfd = Core.Syscall.sys_socket sys in
  let km_before = Ksim.Kalloc.kmalloc_live_count alloc in
  let _addr = Ksim.Kalloc.kmalloc alloc 128 in
  let _area = Ksim.Kalloc.vmalloc alloc 4096 in
  let lock = Ksim.Spinlock.create ~ctx:(Ksim.Kernel.lock_ctx kernel) "victim" in
  Ksim.Spinlock.lock ~pid lock;
  let bystander = Ksim.Scheduler.spawn sched ~name:"bystander" in
  let procs_before = Ksim.Scheduler.process_count sched in
  Ksim.Kernel.reap kernel victim ~reason:"test-oops";
  (match Core.kcrash t with
  | None -> Alcotest.fail "no kcrash instance"
  | Some kc -> (
      Alcotest.(check int) "one oops" 1 (Kcrash.oops_count kc);
      match Kcrash.reports kc with
      | [ r ] ->
          Alcotest.(check int) "pid" pid r.Kcrash.o_pid;
          Alcotest.(check string) "reason" "test-oops" r.Kcrash.o_reason;
          Alcotest.(check int) "fds reaped" 3 r.Kcrash.o_fds;
          Alcotest.(check int) "kmallocs reaped" 1 r.Kcrash.o_kmallocs;
          Alcotest.(check int) "vmallocs reaped" 1 r.Kcrash.o_vmallocs;
          Alcotest.(check int) "locks released" 1 r.Kcrash.o_locks
      | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)));
  Alcotest.(check int) "slab back to baseline" km_before
    (Ksim.Kalloc.kmalloc_live_count alloc);
  Alcotest.(check bool) "lock free" false (Ksim.Spinlock.is_locked lock);
  Alcotest.(check bool) "lock poisoned" true (Ksim.Spinlock.poisoned lock);
  Alcotest.(check int) "victim gone" (procs_before - 1)
    (Ksim.Scheduler.process_count sched);
  Alcotest.(check int) "fd table empty" 0
    (Hashtbl.length victim.Ksim.Kproc.fd_table);
  Alcotest.(check int) "bystander untouched" 0
    (Hashtbl.length bystander.Ksim.Kproc.fd_table);
  let stats = Core.stats t in
  Alcotest.(check int) "kcrash.oops" 1 (find_counter stats "kcrash.oops");
  Alcotest.(check int) "kcrash.reaped_fds" 3
    (find_counter stats "kcrash.reaped_fds");
  Alcotest.(check int) "kcrash.reaped_heap" 2
    (find_counter stats "kcrash.reaped_heap");
  Alcotest.(check int) "kcrash.reaped_locks" 1
    (find_counter stats "kcrash.reaped_locks")

let test_oops_leaves_others_untouched () =
  let t = boot_contained () in
  let kernel = Core.kernel t in
  let sys = Core.sys t in
  let sched = Ksim.Kernel.sched kernel in
  let survivor = Ksim.Scheduler.current sched in
  (* the survivor owns /keep; the victim owns /lose (handle transferred
     into its fd table, as if it had opened it) *)
  ignore
    (check_ok "write keep"
       (Core.Syscall.sys_open_write_close sys ~path:"/keep"
          ~data:(Bytes.of_string "survives") ~flags:Core.o_create));
  let fd_keep =
    check_ok "open keep" (Core.Syscall.sys_open sys ~path:"/keep" ~flags:Core.o_rdonly)
  in
  let fd_lose =
    check_ok "open lose" (Core.Syscall.sys_open sys ~path:"/lose" ~flags:Core.o_create)
  in
  let victim = Ksim.Scheduler.spawn sched ~name:"victim" in
  let handle =
    match Ksim.Kproc.release_fd survivor fd_lose with
    | Some h -> h
    | None -> Alcotest.fail "fd_lose not in survivor's table"
  in
  Hashtbl.replace victim.Ksim.Kproc.fd_table 3 handle;
  Ksim.Kernel.reap kernel victim ~reason:"test";
  (* the victim's underlying vfs handle was closed by the reap... *)
  (match Kvfs.Vfs.close (Ksyscall.Systable.vfs sys) handle with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "victim's handle was still open after the oops");
  (* ...and the survivor's open file still reads, bit-for-bit *)
  let data = check_ok "read keep" (Core.Syscall.sys_read sys ~fd:fd_keep ~len:max_int) in
  Alcotest.(check string) "survivor's data intact" "survives"
    (Bytes.to_string data)

let test_ring_discard_on_oops () =
  let t = boot_contained () in
  let kernel = Core.kernel t in
  let r = Core.ring t in
  (match Kring.push r Ksyscall.Syscall.Getpid with
  | Ok _ -> ()
  | Error `Sq_full -> Alcotest.fail "sq full");
  (match Kring.push r (Ksyscall.Syscall.Stat { path = "/" }) with
  | Ok _ -> ()
  | Error `Sq_full -> Alcotest.fail "sq full");
  Alcotest.(check int) "two queued" 2 (Kring.sq_depth r);
  let victim = Ksim.Kernel.current kernel in
  Ksim.Kernel.reap kernel victim ~reason:"test";
  Alcotest.(check int) "sq drained" 0 (Kring.sq_depth r);
  Alcotest.(check int) "cq drained" 0 (Kring.cq_depth r);
  match Core.kcrash t with
  | Some kc -> (
      match Kcrash.reports kc with
      | [ rep ] -> Alcotest.(check int) "discards reported" 2 rep.Kcrash.o_ring
      | _ -> Alcotest.fail "expected one report")
  | None -> Alcotest.fail "no kcrash instance"

let count_guardians kernel =
  let n = ref 0 in
  Ksim.Page_table.iter
    (fun ~vpn:_ pte -> if pte.Ksim.Pte.guardian then incr n)
    (Ksim.Address_space.page_table (Ksim.Kernel.kspace kernel));
  !n

let test_kefence_guardians_leak_without_kcrash () =
  (* the regression being fixed: Kefence Crash mode faults the module
     mid-syscall, and without containment its guarded buffer — guardian
     PTE included — leaks *)
  let t =
    Core.boot_with
      { Core.Config.default with fs = Core.Wrapfs_kefence Kefence.Crash }
  in
  let base = count_guardians (Core.kernel t) in
  (match Core.wrapfs t with
  | Some w -> Kvfs.Wrapfs.inject_overflow w 4200
  | None -> Alcotest.fail "no wrapfs");
  (try
     ignore (Core.Syscall.sys_open (Core.sys t) ~path:"/boom" ~flags:Core.o_create);
     Alcotest.fail "expected fault"
   with Ksim.Fault.Fault _ -> ());
  Alcotest.(check bool) "guardian PTEs leaked (the old behavior)" true
    (count_guardians (Core.kernel t) > base)

let test_kefence_guardians_reaped_with_kcrash () =
  let t = boot_contained ~fs:(Core.Wrapfs_kefence Kefence.Crash) () in
  (match Core.wrapfs t with
  | Some w -> Kvfs.Wrapfs.inject_overflow w 4200
  | None -> Alcotest.fail "no wrapfs");
  (try
     ignore (Core.Syscall.sys_open (Core.sys t) ~path:"/boom" ~flags:Core.o_create);
     Alcotest.fail "expected contained oops"
   with Ksim.Kernel.Oops { reason; _ } ->
     Alcotest.(check string) "contained as memory fault" "memory fault" reason);
  Alcotest.(check int) "no guardian PTE outlives the module" 0
    (count_guardians (Core.kernel t));
  (match Core.kefence t with
  | Some kf ->
      Alcotest.(check int) "overflow still reported" 1
        (Kefence.overflows_detected kf)
  | None -> Alcotest.fail "no kefence");
  match Core.kcrash t with
  | Some kc -> Alcotest.(check int) "oops recorded" 1 (Kcrash.oops_count kc)
  | None -> Alcotest.fail "no kcrash"

(* --- one kill, every entry path ----------------------------------------- *)

(* Every kill cause on every entry path that can produce it, under
   [contain = true] on wrapfs over Kefence [Crash].  Each row must end
   the same way: exactly one kcrash report with the path's reason, the
   kernel back in user mode, no guardian PTE the offender allocated left
   behind, and a bystander's open file intact. *)
type kill_row = {
  path : string;
  cause : string;
  verify : Kverify.policy option;  (* [Some Kill] for the flow-gate rows *)
  reason : string;                 (* the one report's reason *)
  expect : exn -> bool;            (* what escapes to the caller *)
  kill : Core.t -> unit;           (* the offender's fatal act *)
}

let flow_violation = function Kverify.Flow_violation _ -> true | _ -> false

let watchdog = function
  | Cosy.Cosy_safety.Watchdog_expired _ -> true
  | _ -> false

let contained_fault = function
  | Ksim.Kernel.Oops { reason = "memory fault"; _ } -> true
  | _ -> false

(* the flow-gate rows: an automaton that knows only getpid, so the
   unlink that follows it is an unrecorded transition *)
let arm_getpid_only t =
  Kverify.set_automaton
    (Option.get (Core.kverify t))
    (Some (Kverify.Sfi.of_edges [ (Ksyscall.Sysno.Getpid, Ksyscall.Sysno.Getpid) ]))

let overflow_names t =
  match Core.wrapfs t with
  | Some w -> Kvfs.Wrapfs.inject_overflow w 4200
  | None -> Alcotest.fail "no wrapfs"

let runaway_policy budget =
  {
    Cosy.Cosy_safety.mode = Cosy.Cosy_safety.Data_segment;
    watchdog_budget = budget;
    trust_after = None;
  }

let submit_ops exec build =
  let c = Cosy.Cosy_lib.create () in
  build c;
  ignore (Cosy.Cosy_exec.submit exec (Cosy.Cosy_lib.finish c))

let run_reqs t ?policy reqs = ignore (Kring.run_batch (Core.ring ?policy t) reqs)

let touch_outside_prog = {|
int touch_outside(void) {
  int *p = (int*)4096;
  return *p;
}
|}

let kill_rows =
  let getpid_unlink = [ Ksyscall.Syscall.Getpid; Ksyscall.Syscall.Unlink { path = "/nope" } ] in
  let open_boom = Ksyscall.Syscall.Open { path = "/boom"; flags = Core.o_create } in
  let gate path kill =
    { path; cause = "flow-gate"; verify = Some Kverify.Kill; reason = "flow-gate";
      expect = flow_violation; kill }
  and fault path reason kill =
    { path; cause = "memory fault"; verify = None; reason; expect = contained_fault; kill }
  in
  [
    gate "plain" (fun t ->
        arm_getpid_only t;
        ignore (Core.Syscall.sys_unlink (Core.sys t) ~path:"/nope"));
    gate "ring" (fun t ->
        arm_getpid_only t;
        run_reqs t getpid_unlink);
    gate "cosy" (fun t ->
        arm_getpid_only t;
        submit_ops (Core.cosy t) (fun c ->
            ignore (Cosy.Cosy_lib.syscall c "getpid" []);
            ignore (Cosy.Cosy_lib.syscall c "unlink" [ Cosy.Cosy_op.Str "/nope" ])));
    { path = "ring"; cause = "watchdog"; verify = None; reason = "ring-watchdog";
      expect = watchdog;
      kill = (fun t ->
        run_reqs t ~policy:(runaway_policy 1)
          (List.init 4 (fun _ -> Ksyscall.Syscall.Getpid))) };
    { path = "cosy"; cause = "watchdog"; verify = None; reason = "cosy-watchdog";
      expect = watchdog;
      kill = (fun t ->
        submit_ops (Core.cosy ~policy:(runaway_policy 1_000_000) t) (fun c ->
            let top = Cosy.Cosy_lib.next_index c in
            ignore
              (Cosy.Cosy_lib.arith_fresh c Cosy.Cosy_op.Aadd
                 (Cosy.Cosy_op.Const 1) (Cosy.Cosy_op.Const 1));
            Cosy.Cosy_lib.jmp c top)) };
    fault "plain" "fault in open" (fun t ->
        overflow_names t;
        ignore (Core.Syscall.sys_open (Core.sys t) ~path:"/boom" ~flags:Core.o_create));
    fault "ring" "ring-fault" (fun t ->
        overflow_names t;
        run_reqs t [ open_boom ]);
    fault "cosy" "cosy-fault" (fun t ->
        overflow_names t;
        submit_ops (Core.cosy t) (fun c ->
            ignore
              (Cosy.Cosy_lib.syscall c "open"
                 [ Cosy.Cosy_op.Str "/boom"; Cosy.Cosy_op.Const 2 ])));
    { path = "cosy"; cause = "segment escape"; verify = None; reason = "cosy-fault";
      expect = contained_fault;
      kill = (fun t ->
        let policy =
          { (runaway_policy max_int) with
            Cosy.Cosy_safety.mode = Cosy.Cosy_safety.Isolated_segment }
        in
        submit_ops (Core.cosy ~policy ~user_program:touch_outside_prog t) (fun c ->
            ignore (Cosy.Cosy_lib.call_user c "touch_outside" []))) };
  ]

let test_kill_row row () =
  let t =
    Core.boot_with
      { Core.Config.default with
        fs = Core.Wrapfs_kefence Kefence.Crash;
        verify = row.verify;
        crash = Some crash_contain }
  in
  let kernel = Core.kernel t in
  let sys = Core.sys t in
  let sched = Ksim.Kernel.sched kernel in
  let offender = Ksim.Scheduler.current sched in
  (* the bystander opens and fills its own file while it runs, so
     everything behind that file belongs to it *)
  let bystander = Ksim.Scheduler.spawn sched ~name:"bystander" in
  Ksim.Scheduler.activate sched bystander;
  let fd = check_ok "open keep" (Core.Syscall.sys_open sys ~path:"/keep" ~flags:Core.o_create) in
  ignore (check_ok "write keep" (Core.Syscall.sys_write sys ~fd ~data:(Bytes.of_string "survives")));
  Ksim.Scheduler.activate sched offender;
  let guardians = count_guardians kernel in
  (match row.kill t with
  | () -> Alcotest.fail "expected a kill"
  | exception e when row.expect e -> ());
  (match Core.kcrash t with
  | None -> Alcotest.fail "no kcrash instance"
  | Some kc -> (
      match Kcrash.reports kc with
      | [ r ] ->
          Alcotest.(check int) "offender reaped" offender.Ksim.Kproc.pid r.Kcrash.o_pid;
          Alcotest.(check string) "reason" row.reason r.Kcrash.o_reason
      | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)));
  Alcotest.(check bool) "back in user mode" true
    (Ksim.Kernel.mode kernel = Ksim.Kernel.User);
  Alcotest.(check int) "no guardian PTE left behind" guardians (count_guardians kernel);
  (* the bystander's own syscalls are not under test *)
  Option.iter (fun kv -> Kverify.set_automaton kv None) (Core.kverify t);
  Ksim.Scheduler.activate sched bystander;
  Alcotest.(check string) "bystander's file intact" "survives"
    (Bytes.to_string
       (check_ok "pread keep" (Core.Syscall.sys_pread sys ~fd ~off:0 ~len:64)))

(* --- Front 2: crash-consistent recovery -------------------------------- *)

let mk_kernel () =
  let kernel = Ksim.Kernel.create ~config:zero_config () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  kernel

let root = Kvfs.Memfs.root_ino

let test_replay_idempotent () =
  let kernel = mk_kernel () in
  let j = Kvfs.Journalfs.create ~data_journal:true ~durable:true kernel in
  let ops = Kvfs.Journalfs.ops j in
  let ino = check_ok "create" (ops.Kvfs.Vtypes.create ~dir:root ~name:"a" Kvfs.Vtypes.Regular) in
  ignore (check_ok "write" (ops.Kvfs.Vtypes.write ~ino ~off:0 ~data:(Bytes.of_string "hello")));
  ignore (check_ok "mkdir" (ops.Kvfs.Vtypes.create ~dir:root ~name:"d" Kvfs.Vtypes.Directory));
  let image = Kvfs.Block_dev.image (Kvfs.Journalfs.dev j) in
  (* mount the survivor: the full history replays *)
  let j2 = Kvfs.Journalfs.create ~data_journal:true ~durable:true ~image (mk_kernel ()) in
  let info =
    match Kvfs.Journalfs.last_recover j2 with
    | Some i -> i
    | None -> Alcotest.fail "no replay ran on mount"
  in
  Alcotest.(check int) "three ops replayed" 3 info.Kvfs.Journalfs.rec_replayed;
  Alcotest.(check int) "nothing torn" 0 info.Kvfs.Journalfs.rec_torn;
  Alcotest.(check (list string)) "no replay errors" [] info.Kvfs.Journalfs.rec_errors;
  let ops2 = Kvfs.Journalfs.ops j2 in
  let ino2 = check_ok "lookup" (ops2.Kvfs.Vtypes.lookup ~dir:root "a") in
  let data = check_ok "read" (ops2.Kvfs.Vtypes.read ~ino:ino2 ~off:0 ~len:100) in
  Alcotest.(check string) "payload survived" "hello" (Bytes.to_string data);
  (* replay twice == replay once *)
  let again = Kvfs.Journalfs.replay j2 in
  Alcotest.(check int) "second replay applies nothing" 0
    again.Kvfs.Journalfs.rec_replayed;
  Alcotest.(check int) "all records skipped as applied" 3
    again.Kvfs.Journalfs.rec_skipped;
  let data' = check_ok "read" (ops2.Kvfs.Vtypes.read ~ino:ino2 ~off:0 ~len:100) in
  Alcotest.(check string) "content unchanged" "hello" (Bytes.to_string data');
  Alcotest.(check (list string)) "fsck clean" [] (Kvfs.Journalfs.fsck j2)

let test_torn_tail_discarded () =
  let kernel = mk_kernel () in
  let j = Kvfs.Journalfs.create ~durable:true kernel in
  let ops = Kvfs.Journalfs.ops j in
  (* op 1 commits whole; then power dies during op 2's commit record
     (arming resets the occurrence counter, so op 2's intent is durable
     write 1 and its commit is durable write 2), leaving the intent
     without a verdict *)
  ignore (check_ok "create a" (ops.Kvfs.Vtypes.create ~dir:root ~name:"a" Kvfs.Vtypes.Regular));
  Kfault.set_enabled (Ksim.Kernel.fault kernel) true;
  Kfault.arm (Ksim.Kernel.fault kernel)
    [ { Kfault.site = Resilience.crash_site; trigger = Kfault.One_shot 2 } ];
  (try
     ignore (ops.Kvfs.Vtypes.create ~dir:root ~name:"b" Kvfs.Vtypes.Regular);
     Alcotest.fail "expected power loss"
   with Kvfs.Block_dev.Power_loss -> ());
  let image = Kvfs.Block_dev.image (Kvfs.Journalfs.dev j) in
  let j2 = Kvfs.Journalfs.create ~durable:true ~image (mk_kernel ()) in
  let info =
    match Kvfs.Journalfs.last_recover j2 with
    | Some i -> i
    | None -> Alcotest.fail "no replay ran"
  in
  Alcotest.(check int) "committed op replayed" 1 info.Kvfs.Journalfs.rec_replayed;
  Alcotest.(check int) "torn tail discarded" 1 info.Kvfs.Journalfs.rec_torn;
  let ops2 = Kvfs.Journalfs.ops j2 in
  ignore (check_ok "committed op survived" (ops2.Kvfs.Vtypes.lookup ~dir:root "a"));
  (match ops2.Kvfs.Vtypes.lookup ~dir:root "b" with
  | Error Kvfs.Vtypes.ENOENT -> ()
  | Error e -> Alcotest.failf "unexpected %a" Kvfs.Vtypes.pp_errno e
  | Ok _ -> Alcotest.fail "torn op must vanish atomically");
  Alcotest.(check (list string)) "fsck clean" [] (Kvfs.Journalfs.fsck j2)

let test_data_vs_metadata_journal () =
  let mount ~data_journal =
    let kernel = mk_kernel () in
    let j = Kvfs.Journalfs.create ~data_journal ~durable:true kernel in
    let ops = Kvfs.Journalfs.ops j in
    let ino = check_ok "create" (ops.Kvfs.Vtypes.create ~dir:root ~name:"f" Kvfs.Vtypes.Regular) in
    ignore (check_ok "write" (ops.Kvfs.Vtypes.write ~ino ~off:0 ~data:(Bytes.of_string "payload!")));
    let image = Kvfs.Block_dev.image (Kvfs.Journalfs.dev j) in
    let j2 = Kvfs.Journalfs.create ~data_journal ~durable:true ~image (mk_kernel ()) in
    let ops2 = Kvfs.Journalfs.ops j2 in
    let ino2 = check_ok "lookup" (ops2.Kvfs.Vtypes.lookup ~dir:root "f") in
    let data = check_ok "read" (ops2.Kvfs.Vtypes.read ~ino:ino2 ~off:0 ~len:100) in
    Alcotest.(check (list string)) "fsck clean" [] (Kvfs.Journalfs.fsck j2);
    Bytes.to_string data
  in
  (* a data journal carries the payload through the crash... *)
  Alcotest.(check string) "data journal restores bytes" "payload!"
    (mount ~data_journal:true);
  (* ...metadata-only restores the shape (size, inode) but not the data *)
  Alcotest.(check string) "metadata-only restores zeros" "\000\000\000\000\000\000\000\000"
    (mount ~data_journal:false)

let test_at_trigger_parses () =
  (match Kfault.trigger_of_string "at:5" with
  | Ok (Kfault.Cycle_window { lo = 5; hi }) when hi = max_int -> ()
  | Ok tr -> Alcotest.failf "wrong trigger: %a" Kfault.pp_trigger tr
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "pp round-trips" "at:5"
    (match Kfault.trigger_of_string "at:5" with
    | Ok tr -> Fmt.str "%a" Kfault.pp_trigger tr
    | Error e -> e);
  match Kfault.trigger_of_string "at:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative cycle must not parse"

(* --- identity and the sweep -------------------------------------------- *)

let test_disarmed_identity () =
  (* installed-but-quiet containment is free: same cycles, same digest,
     same full kstats dump as a kernel without kcrash *)
  let plain_cfg =
    { Core.Config.default with Core.Config.fs = Core.Journalfs; optimize = true }
  in
  let contained_cfg =
    { plain_cfg with Core.Config.crash = Some crash_contain }
  in
  let plain, _ = Resilience.run_with ~config:plain_cfg () in
  let contained, _ = Resilience.run_with ~config:contained_cfg () in
  Alcotest.(check int) "cycle-identical" plain.Resilience.r_cycles
    contained.Resilience.r_cycles;
  Alcotest.(check string) "digest-identical" plain.Resilience.r_digest
    contained.Resilience.r_digest;
  Alcotest.(check string) "kstats-identical" plain.Resilience.r_stats
    contained.Resilience.r_stats

let test_crash_sweep_no_corruption () =
  let s = Resilience.crash_sweep ~max_per_site:3 () in
  Alcotest.(check bool) "crash points reachable" true (s.Resilience.cs_points > 0);
  List.iter
    (fun (row : Resilience.crash_row) ->
      if row.Resilience.cr_class = Resilience.Corrupt then
        Alcotest.failf "corrupt at durable write %d: %s%s"
          row.Resilience.cr_occurrence row.Resilience.cr_detail
          (String.concat "; " row.Resilience.cr_fsck_errs))
    s.Resilience.cs_rows;
  Alcotest.(check int) "zero corrupt" 0 s.Resilience.cs_corrupt

let () =
  Alcotest.run "kcrash"
    [
      ( "containment",
        [
          Alcotest.test_case "oops reaps fds/heap/locks" `Quick
            test_oops_reaps_everything;
          Alcotest.test_case "bystanders untouched" `Quick
            test_oops_leaves_others_untouched;
          Alcotest.test_case "ring state discarded" `Quick
            test_ring_discard_on_oops;
        ] );
      ( "kill-table",
        List.map
          (fun row ->
            Alcotest.test_case (row.path ^ " " ^ row.cause) `Quick (test_kill_row row))
          kill_rows );
      ( "kefence-regression",
        [
          Alcotest.test_case "guardians leak without kcrash" `Quick
            test_kefence_guardians_leak_without_kcrash;
          Alcotest.test_case "guardians reaped with kcrash" `Quick
            test_kefence_guardians_reaped_with_kcrash;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay is idempotent" `Quick
            test_replay_idempotent;
          Alcotest.test_case "torn tail discarded" `Quick
            test_torn_tail_discarded;
          Alcotest.test_case "data vs metadata journal" `Quick
            test_data_vs_metadata_journal;
          Alcotest.test_case "at: trigger parses" `Quick
            test_at_trigger_parses;
        ] );
      ( "identity",
        [
          Alcotest.test_case "disarmed bit-for-bit" `Quick
            test_disarmed_identity;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "no corruption" `Quick
            test_crash_sweep_no_corruption;
        ] );
    ]
