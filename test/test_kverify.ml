(* kverify: the SFI automaton, the static admission checker, and their
   enforcement through every dispatch entry path. *)

module Sfi = Kverify.Sfi
module Checker = Kverify.Checker
module Sysno = Ksyscall.Sysno
module Cosy_op = Cosy.Cosy_op
module Compound = Cosy.Compound

let boot ?policy () =
  Core.boot_with { Core.Config.default with verify = policy }

let kv t = Option.get (Core.kverify t)

(* An automaton that knows only the well-behaved reader: mkdir, then
   open/read/write/close cycles, plus getpid anywhere. *)
let reader_automaton () =
  Sfi.of_edges
    [
      (Sysno.Mkdir, Sysno.Open);
      (Sysno.Open, Sysno.Read);
      (Sysno.Open, Sysno.Write);
      (Sysno.Read, Sysno.Close);
      (Sysno.Write, Sysno.Close);
      (Sysno.Close, Sysno.Open);
      (Sysno.Close, Sysno.Getpid);
      (Sysno.Getpid, Sysno.Getpid);
    ]

(* --- the automaton itself ---------------------------------------------- *)

let test_sfi_permits () =
  let a = reader_automaton () in
  Alcotest.(check bool) "first syscall: any member" true
    (Sfi.permits a ~prev:None Sysno.Mkdir);
  Alcotest.(check bool) "first syscall: non-member refused" false
    (Sfi.permits a ~prev:None Sysno.Unlink);
  Alcotest.(check bool) "recorded transition" true
    (Sfi.permits a ~prev:(Some Sysno.Open) Sysno.Read);
  Alcotest.(check bool) "unrecorded transition" false
    (Sfi.permits a ~prev:(Some Sysno.Read) Sysno.Unlink)

let test_sfi_roundtrip () =
  let a = reader_automaton () in
  let b = Sfi.of_string (Sfi.to_string a) in
  Alcotest.(check int) "same members" (List.length (Sfi.members a))
    (List.length (Sfi.members b));
  Alcotest.(check bool) "same transitions" true
    (Sfi.transitions a = Sfi.transitions b);
  Alcotest.check_raises "garbage rejected" (Sfi.Parse_error "unknown syscall zorp")
    (fun () -> ignore (Sfi.of_string "v zorp\n"))

let test_sfi_learn_matches_run () =
  let t = Core.boot_with Core.Config.default in
  let rec_ = Core.trace t in
  let sys = Core.sys t in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d"));
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/d/f" ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.of_string "x")));
  ignore (Core.ok (Core.Syscall.sys_close sys ~fd));
  let a = Core.Verify.learn rec_ in
  (* replaying the exact run under Kill passes *)
  let t2 = boot ~policy:Core.Verify.Kill () in
  Core.Verify.set_automaton (kv t2) (Some a);
  let sys2 = Core.sys t2 in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys2 ~path:"/d"));
  let fd = Core.ok (Core.Syscall.sys_open sys2 ~path:"/d/f" ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_write sys2 ~fd ~data:(Bytes.of_string "x")));
  ignore (Core.ok (Core.Syscall.sys_close sys2 ~fd));
  Alcotest.(check int) "violations" 0 (Core.Verify.violations (kv t2));
  Alcotest.(check int) "checked all 4 dispatches" 4 (Core.Verify.checked (kv t2))

(* --- enforcement at each entry path ------------------------------------ *)

(* Plain dispatch, Deny: the unrecorded syscall fails with EPERM before
   touching the VFS, and the process survives. *)
let test_plain_deny () =
  let t = boot ~policy:Core.Verify.Deny () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let sys = Core.sys t in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d"));
  (match Core.Syscall.sys_unlink sys ~path:"/d" with
  | Error Kvfs.Vtypes.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM from the gate");
  Alcotest.(check int) "violation counted" 1 (Core.Verify.violations (kv t));
  (* flow state did not advance: the recorded continuation still works *)
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/d/f" ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.of_string "y")));
  ignore (Core.ok (Core.Syscall.sys_close sys ~fd))

(* Plain dispatch, Kill: Flow_violation is raised and the process dies. *)
let test_plain_kill () =
  let t = boot ~policy:Core.Verify.Kill () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let sys = Core.sys t in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d"));
  (match Core.Syscall.sys_unlink sys ~path:"/d" with
  | exception Core.Verify.Flow_violation { sysno; _ } ->
      Alcotest.(check string) "offending sysno" "unlink" (Sysno.to_string sysno)
  | _ -> Alcotest.fail "expected Flow_violation");
  Alcotest.(check bool) "kernel mode exited" true
    (Ksim.Kernel.mode (Core.kernel t) = Ksim.Kernel.User)

(* Log: everything executes, violations only counted. *)
let test_plain_log () =
  let t = boot ~policy:Core.Verify.Log () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let sys = Core.sys t in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d"));
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d/sub"));
  Alcotest.(check int) "mkdir->mkdir logged" 1 (Core.Verify.violations (kv t))

(* Compound path: an op taking an unrecorded transition kills mid-
   compound, with kernel mode restored. *)
let test_compound_entry_gated () =
  let t = boot ~policy:Core.Verify.Kill () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let cx = Core.cosy t in
  let c = Cosy.Cosy_lib.create () in
  ignore (Cosy.Cosy_lib.syscall c "getpid" []);
  ignore (Cosy.Cosy_lib.syscall c "unlink" [ Cosy_op.Str "/nope" ]);
  (match Cosy.Cosy_exec.submit cx (Cosy.Cosy_lib.finish c) with
  | exception Core.Verify.Flow_violation { sysno; _ } ->
      Alcotest.(check string) "offender" "unlink" (Sysno.to_string sysno)
  | _ -> Alcotest.fail "expected Flow_violation from compound");
  Alcotest.(check bool) "kernel mode exited" true
    (Ksim.Kernel.mode (Core.kernel t) = Ksim.Kernel.User);
  Alcotest.(check int) "getpid admitted first" 1 (Core.Verify.violations (kv t))

(* Ring path: a drained batch hits the same gate per entry. *)
let test_ring_entry_gated () =
  let t = boot ~policy:Core.Verify.Kill () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let ring = Core.ring t in
  (match
     Kring.run_batch ring
       [ Ksyscall.Syscall.Getpid; Ksyscall.Syscall.Unlink { path = "/nope" } ]
   with
  | exception Core.Verify.Flow_violation { sysno; _ } ->
      Alcotest.(check string) "offender" "unlink" (Sysno.to_string sysno)
  | _ -> Alcotest.fail "expected Flow_violation from ring");
  Alcotest.(check bool) "kernel mode exited" true
    (Ksim.Kernel.mode (Core.kernel t) = Ksim.Kernel.User)

(* knet consolidated path: accept_recv is its own sysno and gets gated
   like everything else. *)
let test_knet_consolidated_gated () =
  let t = boot ~policy:Core.Verify.Deny () in
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let sys = Core.sys t in
  (match Core.Syscall.sys_accept_recv sys ~sock:0 ~len:16 with
  | Error Kvfs.Vtypes.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM for unrecorded accept_recv");
  Alcotest.(check int) "violation" 1 (Core.Verify.violations (kv t))

(* --- static admission: the checker ------------------------------------- *)

let counted_loop ?(two_op_increment = true) iters =
  let i = 0 and c = 1 and r = 2 and tmp = 3 in
  let increment =
    if two_op_increment then
      [
        Cosy_op.Arith
          { dst = tmp; op = Cosy_op.Aadd; a = Cosy_op.Slot i; b = Cosy_op.Const 1 };
        Cosy_op.Set { dst = i; src = Cosy_op.Slot tmp };
      ]
    else
      [
        Cosy_op.Arith
          { dst = i; op = Cosy_op.Aadd; a = Cosy_op.Slot i; b = Cosy_op.Const 1 };
      ]
  in
  let body = Cosy_op.Syscall { dst = r; sysno = 14; args = [] } :: increment in
  (* 3 header ops, the body, the back-edge Jmp, then the Halt the guard
     exits to *)
  let exit_target = 3 + List.length body + 1 in
  [
    Cosy_op.Set { dst = i; src = Cosy_op.Const 0 };
    Cosy_op.Arith
      { dst = c; op = Cosy_op.Alt; a = Cosy_op.Slot i; b = Cosy_op.Const iters };
    Cosy_op.Jz { cond = Cosy_op.Slot c; target = exit_target };
  ]
  @ body
  @ [ Cosy_op.Jmp 1; Cosy_op.Halt ]

let verify ops =
  Checker.verify_compound ~shared_size:4096
    (Compound.encode ~slot_count:8 ops)

let test_checker_accepts_loops () =
  Alcotest.(check bool) "two-op increment form" true
    (Checker.is_verified (verify (counted_loop ~two_op_increment:true 5)));
  Alcotest.(check bool) "direct increment form" true
    (Checker.is_verified (verify (counted_loop ~two_op_increment:false 5)))

let test_checker_rejects () =
  let reject ?(ops' = []) name ops =
    ignore ops';
    match verify ops with
    | Checker.Rejected _ -> ()
    | Checker.Verified _ -> Alcotest.failf "%s: unexpectedly verified" name
  in
  reject "bad opcode"
    [ Cosy_op.Syscall { dst = 0; sysno = 99; args = [] } ];
  reject "arity mismatch"
    [ Cosy_op.Syscall { dst = 0; sysno = 14; args = [ Cosy_op.Const 0 ] } ];
  reject "shared out of bounds"
    [
      Cosy_op.Syscall
        {
          dst = 0;
          sysno = 2 (* read *);
          args = [ Cosy_op.Const 3; Cosy_op.Shared 999_999; Cosy_op.Const 16 ];
        };
    ];
  reject "unguarded back-edge"
    [ Cosy_op.Syscall { dst = 0; sysno = 14; args = [] }; Cosy_op.Jmp 0 ];
  reject "user call"
    [ Cosy_op.Call_user { dst = 0; fname = "f"; args = [] } ];
  (* Ane can loop forever if the counter jumps the bound *)
  reject "inequality guard"
    (List.map
       (function
         | Cosy_op.Arith { dst; op = Cosy_op.Alt; a; b } ->
             Cosy_op.Arith { dst; op = Cosy_op.Ane; a; b }
         | op -> op)
       (counted_loop 5));
  (* a second write to the counter inside the loop breaks monotonicity *)
  reject "counter clobbered"
    (counted_loop 5
    |> List.mapi (fun idx op ->
           if idx = 3 then Cosy_op.Set { dst = 0; src = Cosy_op.Const 0 }
           else op))

let test_checker_batches () =
  Alcotest.(check bool) "good batch" true
    (Checker.is_verified
       (Checker.verify_reqs
          [
            Ksyscall.Syscall.Getpid;
            Ksyscall.Syscall.Open { path = "/a"; flags = Core.o_create };
            Ksyscall.Syscall.Read { fd = 3; len = 64 };
          ]));
  let bad reqs =
    Alcotest.(check bool) "rejected" false
      (Checker.is_verified (Checker.verify_reqs reqs))
  in
  bad [ Ksyscall.Syscall.Read { fd = -1; len = 64 } ];
  bad [ Ksyscall.Syscall.Open { path = ""; flags = [] } ];
  bad [ Ksyscall.Syscall.Bind { sock = 0; port = 0 } ];
  bad [ Ksyscall.Syscall.Pread { fd = 1; off = -5; len = 4 } ]

(* --- qcheck: admission is sound and mutation-sensitive ------------------ *)

(* Straight-line well-formed ops: every one individually valid. *)
let arb_good_op =
  QCheck.oneof
    [
      QCheck.map
        (fun d -> Cosy_op.Syscall { dst = abs d mod 8; sysno = 14; args = [] })
        QCheck.small_int;
      QCheck.map
        (fun (d, n) -> Cosy_op.Set { dst = abs d mod 8; src = Cosy_op.Const n })
        QCheck.(pair small_int int);
      QCheck.map
        (fun (d, a, b) ->
          Cosy_op.Arith
            {
              dst = abs d mod 8;
              op = Cosy_op.Aadd;
              a = Cosy_op.Const a;
              b = Cosy_op.Const b;
            })
        QCheck.(triple small_int int int);
      QCheck.map
        (fun (d, off) ->
          Cosy_op.Syscall
            {
              dst = abs d mod 8;
              sysno = 2 (* read *);
              args =
                [ Cosy_op.Const 3; Cosy_op.Shared (abs off mod 4096); Cosy_op.Const 8 ];
            })
        QCheck.(pair small_int small_int);
    ]

let arb_good_ops = QCheck.list_of_size (QCheck.Gen.int_range 1 30) arb_good_op

let qcheck_wellformed_verifies =
  QCheck.Test.make ~name:"well-formed compounds always verify" ~count:200
    arb_good_ops (fun ops -> Checker.is_verified (verify ops))

(* Single-op mutations that break a descriptor always reject. *)
let qcheck_mutations_rejected =
  QCheck.Test.make ~name:"single-op mutations always rejected" ~count:200
    QCheck.(triple arb_good_ops small_int (int_range 0 3))
    (fun (ops, at, kind) ->
      let at = abs at mod List.length ops in
      let mutant =
        match kind with
        | 0 -> Cosy_op.Syscall { dst = 0; sysno = 77; args = [] }
        | 1 -> Cosy_op.Syscall { dst = 0; sysno = 14; args = [ Cosy_op.Const 1 ] }
        | 2 ->
            Cosy_op.Syscall
              {
                dst = 0;
                sysno = 2;
                args = [ Cosy_op.Const 3; Cosy_op.Shared 99_999; Cosy_op.Const 8 ];
              }
        | _ -> Cosy_op.Set { dst = 200; src = Cosy_op.Const 0 }
      in
      let mutated = List.mapi (fun i op -> if i = at then mutant else op) ops in
      not (Checker.is_verified (verify mutated)))

(* Appending an unguarded back-edge to any straight-line program rejects. *)
let qcheck_backedge_rejected =
  QCheck.Test.make ~name:"unguarded back-edges always rejected" ~count:100
    arb_good_ops (fun ops ->
      not (Checker.is_verified (verify (ops @ [ Cosy_op.Jmp 0 ]))))

(* --- the checker and the lowering read one syscall table ---------------- *)

(* Run a one-syscall compound dynamically on a fresh system; [Some m]
   when the lowering refused its operands ([Exec_error m]). *)
let exec_error compound =
  let cx = Core.cosy ~shared_size:4096 (boot ()) in
  match Cosy.Cosy_exec.submit cx compound with
  | _ -> None
  | exception Cosy.Cosy_exec.Exec_error m -> Some m
  | exception Invalid_argument _ -> None   (* a length past the buffer *)

(* An operand of any kind, in or out of range. *)
let gen_operand =
  QCheck.Gen.(
    oneof
      [
        return (Cosy_op.Const 0);
        map (fun n -> Cosy_op.Const n) (int_range 1 5);
        map (fun i -> Cosy_op.Slot i) (int_range 0 9);
        map (fun off -> Cosy_op.Shared off) (int_range 0 4095);
        map (fun off -> Cosy_op.Shared off) (int_range 4096 5000);
        oneofl [ Cosy_op.Str "/f"; Cosy_op.Str "/d" ];
      ])

(* A syscall op on wire numbers 0-40 (table rows twice as often as the
   rest), usually with its row's arity. *)
let arb_one_syscall =
  let rows = List.map (fun (s, _) -> Sysno.to_int s) Cosy_op.syscalls in
  let gen =
    QCheck.Gen.(
      frequency [ (2, oneofl rows); (1, int_range 0 40) ] >>= fun sysno ->
      let arity =
        match Cosy_op.syscall sysno with
        | Some (_, kinds) ->
            frequency [ (3, return (List.length kinds)); (1, int_range 0 5) ]
        | None -> int_range 0 5
      in
      arity >>= fun n ->
      map (fun args -> Cosy_op.Syscall { dst = 0; sysno; args })
        (list_repeat n gen_operand))
  in
  QCheck.make ~print:(Fmt.to_to_string Cosy_op.pp_op) gen

let qcheck_checker_agrees_with_lowering =
  QCheck.Test.make ~name:"checker never admits what the lowering refuses"
    ~count:2000 arb_one_syscall (fun op ->
      let compound = Compound.encode ~slot_count:8 [ op; Cosy_op.Halt ] in
      match
        (Checker.verify_compound ~shared_size:4096 compound, exec_error compound)
      with
      | Checker.Verified _, Some m ->
          QCheck.Test.fail_reportf "admitted, then execution raised %S" m
      | _ -> true)

(* Every row, with operands of its kinds, survives encode/decode, names
   itself by name, verifies and runs without an operand error. *)
let test_table_rows () =
  List.iter
    (fun (sys, kinds) ->
      let name = Sysno.to_string sys in
      let sysno = Sysno.to_int sys in
      let arg = function
        | Cosy_op.Fd -> Cosy_op.Slot 1
        | Cosy_op.Int -> Cosy_op.Const 2
        | Cosy_op.Path -> Cosy_op.Str "/f"
        | Cosy_op.Out -> Cosy_op.Shared 64
        | Cosy_op.In -> Cosy_op.Str "data"
      in
      let op = Cosy_op.Syscall { dst = 0; sysno; args = List.map arg kinds } in
      let compound = Compound.encode ~slot_count:8 [ op; Cosy_op.Halt ] in
      let ops, _ = Compound.decode compound in
      Alcotest.(check bool) (name ^ " round-trips") true (ops.(0) = op);
      Alcotest.(check (option int)) (name ^ " by name") (Some sysno)
        (Cosy_op.sysno_of_name name);
      Alcotest.(check bool) (name ^ " same row") true
        (Cosy_op.syscall sysno = Some (sys, kinds));
      Alcotest.(check bool) (name ^ " verifies") true
        (Checker.is_verified (Checker.verify_compound ~shared_size:4096 compound));
      Alcotest.(check (option string)) (name ^ " lowers") None
        (exec_error compound))
    Cosy_op.syscalls

(* --- admission changes cost, never results ------------------------------ *)

let run_loop_compound t =
  let cx = Core.cosy t in
  let compound = Compound.encode ~slot_count:8 (counted_loop 50) in
  let regs = Cosy.Cosy_exec.submit cx compound in
  (regs, Cosy.Cosy_exec.watchdog_elisions cx, Ksim.Kernel.now (Core.kernel t))

let test_verified_compound_cheaper_same_result () =
  let regs_off, el_off, cycles_off = run_loop_compound (boot ()) in
  let regs_on, el_on, cycles_on =
    run_loop_compound (boot ~policy:Core.Verify.Log ())
  in
  Alcotest.(check bool) "same register file" true (regs_off = regs_on);
  Alcotest.(check int) "no elision without verifier" 0 el_off;
  Alcotest.(check int) "elided with verifier" 1 el_on;
  Alcotest.(check bool) "verified run cheaper" true (cycles_on < cycles_off)

let test_rejected_compound_same_results () =
  (* Ane guard: dynamically fine, statically unprovable *)
  let ops =
    List.map
      (function
        | Cosy_op.Arith { dst; op = Cosy_op.Alt; a; b } ->
            Cosy_op.Arith { dst; op = Cosy_op.Ane; a = b; b = a }
        | op -> op)
      (counted_loop 20)
  in
  (* Ane(iters, i) is non-zero until i reaches iters: same loop count *)
  let run t =
    let cx = Core.cosy t in
    let regs = Cosy.Cosy_exec.submit cx (Compound.encode ~slot_count:8 ops) in
    (regs, Cosy.Cosy_exec.watchdog_elisions cx)
  in
  let regs_off, _ = run (boot ()) in
  let regs_on, elided = run (boot ~policy:Core.Verify.Log ()) in
  Alcotest.(check bool) "same register file" true (regs_off = regs_on);
  Alcotest.(check int) "fell back to the watchdog path" 0 elided

let test_verified_ring_cheaper_same_replies () =
  (* readdir replies carry payload bytes, so a coalesced completion
     copy-out would show in [bytes_to_user] *)
  let reqs =
    List.concat
      (List.init 32 (fun _ ->
           [ Ksyscall.Syscall.Getpid; Ksyscall.Syscall.Readdir { path = "/" } ]))
  in
  let run t =
    ignore (Core.ok (Core.Syscall.sys_mkdir (Core.sys t) ~path:"/d"));
    let ring = Core.ring t in
    let replies =
      List.map (fun c -> c.Kring.reply) (Kring.run_batch ring reqs)
    in
    let k = Core.kernel t in
    ( replies,
      ring,
      Ksim.Kernel.now k,
      Ksim.Kernel.bytes_to_user k )
  in
  let r_off, ring_off, cy_off, out_off = run (boot ()) in
  let r_on, ring_on, cy_on, out_on = run (boot ~policy:Core.Verify.Log ()) in
  Alcotest.(check bool) "same replies" true (r_off = r_on);
  Alcotest.(check int) "no elision off" 0 (Kring.watchdog_elisions ring_off);
  Alcotest.(check int) "elided on" 1 (Kring.watchdog_elisions ring_on);
  Alcotest.(check bool) "verified batch cheaper" true (cy_on < cy_off);
  (* verify-only admission is the empty plan: nothing fused, nothing
     coalesced, the completion copy-out charged exactly as unverified *)
  Alcotest.(check int) "no fused pairs" 0 (Kring.fused_pairs ring_on);
  Alcotest.(check int) "no CQ bytes saved" 0 (Kring.cq_bytes_saved ring_on);
  Alcotest.(check bool) "replies carry payload" true (out_off > 0);
  Alcotest.(check int) "same bytes copied to user" out_off out_on

(* --- disabled verifier is bit-for-bit free ------------------------------ *)

let workload sys =
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/w"));
  for i = 0 to 19 do
    let path = Printf.sprintf "/w/f%d" i in
    let fd = Core.ok (Core.Syscall.sys_open sys ~path ~flags:Core.o_create) in
    ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.make 40 'x')));
    ignore (Core.ok (Core.Syscall.sys_close sys ~fd))
  done;
  ignore (Core.ok (Core.Syscall.sys_readdir sys ~path:"/w"))

let test_disabled_identical () =
  let cycles policy =
    let t = Core.boot_with { Core.Config.default with verify = policy } in
    workload (Core.sys t);
    Ksim.Kernel.now (Core.kernel t)
  in
  let base = cycles None in
  Alcotest.(check int) "two disabled runs identical" base (cycles None);
  (* installed gate with no automaton: still free *)
  Alcotest.(check int) "armed-but-empty identical" base
    (cycles (Some Core.Verify.Log))

let test_kstats_counters () =
  Kstats.default_enabled := true;
  let t = boot ~policy:Core.Verify.Log () in
  Kstats.default_enabled := false;
  Core.Verify.set_automaton (kv t) (Some (reader_automaton ()));
  let sys = Core.sys t in
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/d"));
  ignore (Core.Syscall.sys_unlink sys ~path:"/d");
  let find name =
    match Kstats.find (Core.stats t) name with
    | Some (Kstats.Counter_v v) -> v
    | _ -> -1
  in
  Alcotest.(check int) "kverify.checked" 2 (find "kverify.checked");
  Alcotest.(check int) "kverify.violations" 1 (find "kverify.violations")

let () =
  Alcotest.run "kverify"
    [
      ( "sfi-automaton",
        [
          Alcotest.test_case "permits" `Quick test_sfi_permits;
          Alcotest.test_case "persistence roundtrip" `Quick test_sfi_roundtrip;
          Alcotest.test_case "learned replay passes" `Quick
            test_sfi_learn_matches_run;
        ] );
      ( "entry-paths",
        [
          Alcotest.test_case "plain deny" `Quick test_plain_deny;
          Alcotest.test_case "plain kill" `Quick test_plain_kill;
          Alcotest.test_case "plain log" `Quick test_plain_log;
          Alcotest.test_case "compound gated" `Quick test_compound_entry_gated;
          Alcotest.test_case "ring gated" `Quick test_ring_entry_gated;
          Alcotest.test_case "knet consolidated gated" `Quick
            test_knet_consolidated_gated;
        ] );
      ( "checker",
        [
          Alcotest.test_case "counted loops verify" `Quick
            test_checker_accepts_loops;
          Alcotest.test_case "malformed rejected" `Quick test_checker_rejects;
          Alcotest.test_case "batch shapes" `Quick test_checker_batches;
          QCheck_alcotest.to_alcotest qcheck_wellformed_verifies;
          QCheck_alcotest.to_alcotest qcheck_mutations_rejected;
          QCheck_alcotest.to_alcotest qcheck_backedge_rejected;
          Alcotest.test_case "syscall table rows" `Quick test_table_rows;
          QCheck_alcotest.to_alcotest qcheck_checker_agrees_with_lowering;
        ] );
      ( "admission",
        [
          Alcotest.test_case "verified compound cheaper, same result" `Quick
            test_verified_compound_cheaper_same_result;
          Alcotest.test_case "rejected compound falls back" `Quick
            test_rejected_compound_same_results;
          Alcotest.test_case "verified ring cheaper, same replies" `Quick
            test_verified_ring_cheaper_same_replies;
        ] );
      ( "zero-cost-off",
        [
          Alcotest.test_case "disabled bit-for-bit" `Quick
            test_disabled_identical;
          Alcotest.test_case "kstats counters" `Quick test_kstats_counters;
        ] );
    ]
