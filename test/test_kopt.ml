(* Tests for kopt, the verified-compound optimizer: every rewrite
   family (coalesce, fuse, hoist, fd-resolution caching) must leave
   execution observably identical to the interpreter — same result
   slots, shared-buffer bytes, file contents and errno values — while
   only the cycle accounting improves.  Plus the compiled-program
   cache, the ring-batch plan, and the detached-admission identity. *)

module Op = Cosy.Cosy_op
module Compound = Cosy.Compound
module Exec = Cosy.Cosy_exec
module Plan = Kopt.Plan
module P = Cosy.Cosy_plan
module Checker = Kverify.Checker

let sysno name = Option.get (Op.sysno_of_name name)
let shared_size = 4096

let verify_cfg =
  { Core.Config.default with verify = Some Core.Verify.Log; optimize = false }

let opt_cfg = { verify_cfg with optimize = true }

(* seed a file both twin systems agree on *)
let put_file t path data =
  let sys = Core.sys t in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_write sys ~fd ~data));
  Core.ok (Core.Syscall.sys_close sys ~fd)

let file_bytes t path =
  match Core.Syscall.sys_open_read_close (Core.sys t) ~path ~maxlen:16384 with
  | Ok b -> Bytes.to_string b
  | Error e -> Printf.sprintf "errno:%d" (Kvfs.Vtypes.errno_code e)

(* run one compound on a fresh system; capture slots (or the exception),
   the shared buffer, the virtual cycles the submit cost, and the
   extension *)
let run_one ?(setup = fun _ -> ()) cfg compound =
  let t = Core.boot_with cfg in
  setup t;
  let cx = Core.cosy ~shared_size t in
  let result = ref (Error "unset") in
  let (), tm =
    Ksim.Kernel.timed (Core.kernel t) (fun () ->
        result :=
          (try Ok (Exec.submit cx compound)
           with e -> Error (Printexc.to_string e)))
  in
  let shared =
    Cosy.Shared_buffer.read_string (Exec.shared cx) ~off:0 ~len:shared_size
  in
  (t, !result, shared, tm.Ksim.Kernel.elapsed, cx)

(* the core property: verified interpretation and optimized execution
   of the same compound are observably identical *)
let check_twins ?setup what ops ~slot_count =
  let compound = Compound.encode ~slot_count ops in
  let tv, rv, sv, cyv, _ = run_one ?setup verify_cfg compound in
  let topt, ro, so, cyo, cxo = run_one ?setup opt_cfg compound in
  Alcotest.(check (result (array int) string))
    (what ^ ": slots") rv ro;
  Alcotest.(check bool) (what ^ ": shared bytes") true (sv = so);
  Alcotest.(check string)
    (what ^ ": file /f end state")
    (file_bytes tv "/f") (file_bytes topt "/f");
  (tv, topt, cyv, cyo, cxo)

(* cycles of a second (steady-state) submission: on the optimized system
   the compile cost has amortized and the cache hit skips admission *)
let steady_cycles ?(setup = fun _ -> ()) cfg compound =
  let t = Core.boot_with cfg in
  setup t;
  let cx = Core.cosy ~shared_size t in
  ignore (Exec.submit cx compound);
  let (), tm =
    Ksim.Kernel.timed (Core.kernel t) (fun () -> ignore (Exec.submit cx compound))
  in
  tm.Ksim.Kernel.elapsed

let check_steady_faster ?setup what ops ~slot_count =
  let compound = Compound.encode ~slot_count ops in
  let cyv = steady_cycles ?setup verify_cfg compound in
  let cyo = steady_cycles ?setup opt_cfg compound in
  Alcotest.(check bool)
    (Printf.sprintf "%s: steady optimized cheaper (%d vs %d cycles)" what cyv
       cyo)
    true (cyo < cyv)

let compile ops ~slot_count =
  let compound = Compound.encode ~slot_count ops in
  match Checker.verify_compound ~shared_size compound with
  | Checker.Rejected why -> Alcotest.failf "compound rejected: %s" why
  | Checker.Verified { loops; _ } ->
      let ops, slot_count = Compound.decode compound in
      Plan.compile ~shared_size ~loops ops ~slot_count

(* --- the plan compiler (pure) ------------------------------------------- *)

let sc_open dst path flags =
  Op.Syscall { dst; sysno = sysno "open"; args = [ Op.Str path; Op.Const flags ] }

let sc_read dst fd off len =
  Op.Syscall
    { dst; sysno = sysno "read"; args = [ fd; Op.Shared off; Op.Const len ] }

let sc_write dst fd off len =
  Op.Syscall
    { dst; sysno = sysno "write"; args = [ fd; Op.Shared off; Op.Const len ] }

let sc_close dst fd = Op.Syscall { dst; sysno = sysno "close"; args = [ fd ] }

let counts plan = (plan.Plan.coalesced_pairs, plan.Plan.fused_pairs)

let test_plan_coalesce () =
  let plan =
    compile ~slot_count:4
      [
        sc_open 0 "/f" 0;
        sc_read 1 (Op.Slot 0) 0 512;
        sc_read 2 (Op.Slot 0) 512 512;
        sc_close 3 (Op.Slot 0);
        Op.Halt;
      ]
  in
  Alcotest.(check (pair int int)) "one coalesced pair" (1, 0) (counts plan);
  Alcotest.(check int) "1024 bytes merged" 1024 plan.Plan.coalesced_bytes;
  (match plan.Plan.code.P.rewrites.(1) with
  | P.Coalesce { kind = P.G_read; off = 0; len_a = 512; len_b = 512; _ } -> ()
  | _ -> Alcotest.fail "op 1 should be the merged bulk read");
  (match plan.Plan.code.P.rewrites.(2) with
  | P.Skip -> ()
  | _ -> Alcotest.fail "op 2 should be skipped");
  (* descriptor operands are marked for the fd cache at compile time *)
  match (plan.Plan.code.P.rewrites.(0), plan.Plan.code.P.rewrites.(3)) with
  | P.Keep, P.Cache_close -> ()
  | _ -> Alcotest.fail "open should run as decoded, close should evict"

(* each guard that must refuse pairing, as (name, ops) *)
let refusals =
  [
    ( "gap between ranges",
      [ sc_open 0 "/f" 0; sc_read 1 (Op.Slot 0) 0 512;
        sc_read 2 (Op.Slot 0) 600 512; Op.Halt ] );
    ( "overlapping ranges",
      [ sc_open 0 "/f" 0; sc_read 1 (Op.Slot 0) 0 512;
        sc_read 2 (Op.Slot 0) 256 512; Op.Halt ] );
    ( "different fds",
      [ sc_open 0 "/f" 0; sc_open 1 "/g" 0; sc_read 2 (Op.Slot 0) 0 512;
        sc_read 3 (Op.Slot 1) 512 512; Op.Halt ] );
    ( "non-constant length",
      [ sc_open 0 "/f" 0; Op.Set { dst = 1; src = Op.Const 512 };
        sc_read 2 (Op.Slot 0) 0 512;
        Op.Syscall
          { dst = 3; sysno = sysno "read";
            args = [ Op.Slot 0; Op.Shared 512; Op.Slot 1 ] };
        Op.Halt ] );
    ( "second fd depends on first result",
      [ sc_open 0 "/f" 0; sc_read 1 (Op.Slot 0) 0 512;
        sc_read 2 (Op.Slot 1) 512 512; Op.Halt ] );
    ( "fuse length mismatch",
      [ sc_open 0 "/f" 0; sc_open 1 "/g" 3; sc_read 2 (Op.Slot 0) 0 512;
        sc_write 3 (Op.Slot 1) 0 256; Op.Halt ] );
    ( "fuse offset mismatch",
      [ sc_open 0 "/f" 0; sc_open 1 "/g" 3; sc_read 2 (Op.Slot 0) 0 512;
        sc_write 3 (Op.Slot 1) 512 512; Op.Halt ] );
  ]

let test_plan_refusals () =
  List.iter
    (fun (name, ops) ->
      let plan = compile ~slot_count:8 ops in
      Alcotest.(check (pair int int)) name (0, 0) (counts plan))
    refusals

let test_plan_jump_target_blocks_pairing () =
  (* a jz lands on the second read: pairing would change where the jump
     resumes, so the compiler must refuse *)
  let plan =
    compile ~slot_count:8
      [
        sc_open 0 "/f" 0;
        Op.Jz { cond = Op.Const 0; target = 3 };
        sc_read 1 (Op.Slot 0) 0 512;
        sc_read 2 (Op.Slot 0) 512 512;
        Op.Halt;
      ]
  in
  Alcotest.(check (pair int int)) "jump into pair refused" (0, 0) (counts plan)

let test_plan_fuse () =
  let plan =
    compile ~slot_count:6
      [
        sc_open 0 "/src" 0;
        sc_open 1 "/dst" 3;
        sc_read 2 (Op.Slot 0) 0 1024;
        sc_write 3 (Op.Slot 1) 0 1024;
        sc_close 4 (Op.Slot 0);
        sc_close 5 (Op.Slot 1);
        Op.Halt;
      ]
  in
  Alcotest.(check (pair int int)) "one fused pair" (0, 1) (counts plan);
  match plan.Plan.code.P.rewrites.(2) with
  | P.Fuse { off = 0; len = 1024; _ } -> ()
  | _ -> Alcotest.fail "op 2 should be the splice"

let getpid_loop iters =
  [
    Op.Set { dst = 0; src = Op.Const 0 };
    Op.Arith { dst = 1; op = Op.Alt; a = Op.Slot 0; b = Op.Const iters };
    Op.Jz { cond = Op.Slot 1; target = 7 };
    Op.Syscall { dst = 2; sysno = sysno "getpid"; args = [] };
    Op.Arith { dst = 3; op = Op.Aadd; a = Op.Slot 0; b = Op.Const 1 };
    Op.Set { dst = 0; src = Op.Slot 3 };
    Op.Jmp 1;
    Op.Halt;
  ]

let test_plan_hoist () =
  let plan = compile ~slot_count:4 (getpid_loop 10) in
  Alcotest.(check int) "one counted loop" 1 plan.Plan.code.P.n_loops;
  Alcotest.(check bool) "body ops hoisted" true (plan.Plan.hoisted_ops >= 5);
  Alcotest.(check bool) "loop body marked" true plan.Plan.code.P.hoisted.(3);
  Alcotest.(check bool) "halt not marked" false plan.Plan.code.P.hoisted.(7)

(* --- execution equivalence ----------------------------------------------- *)

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff))

let test_exec_coalesce_equivalent () =
  let setup t = put_file t "/f" (pattern 2048) in
  let ops =
    [
      sc_open 0 "/f" 0;
      sc_read 1 (Op.Slot 0) 0 512;
      sc_read 2 (Op.Slot 0) 512 512;
      sc_close 3 (Op.Slot 0);
      Op.Halt;
    ]
  in
  ignore (check_twins ~setup "coalesced reads" ~slot_count:4 ops);
  check_steady_faster ~setup "coalesced reads" ~slot_count:4 ops

let test_exec_coalesce_short_read () =
  (* 700-byte file: the bulk read returns short and must split exactly
     like the interpreter's two sequential reads (512 then 188) *)
  let setup t = put_file t "/f" (pattern 700) in
  ignore
    (check_twins ~setup "short bulk read" ~slot_count:4
       [
         sc_open 0 "/f" 0;
         sc_read 1 (Op.Slot 0) 0 512;
         sc_read 2 (Op.Slot 0) 512 512;
         sc_close 3 (Op.Slot 0);
         Op.Halt;
       ])

let test_exec_coalesce_at_eof () =
  (* 300-byte file: the first read drains it, the second returns 0 *)
  let setup t = put_file t "/f" (pattern 300) in
  ignore
    (check_twins ~setup "bulk read at EOF" ~slot_count:4
       [
         sc_open 0 "/f" 0;
         sc_read 1 (Op.Slot 0) 0 512;
         sc_read 2 (Op.Slot 0) 512 512;
         sc_close 3 (Op.Slot 0);
         Op.Halt;
       ])

let splice_ops =
  [
    sc_open 0 "/f" 0;
    sc_open 1 "/dst" 3;
    sc_read 2 (Op.Slot 0) 0 1024;
    sc_write 3 (Op.Slot 1) 0 1024;
    sc_close 4 (Op.Slot 0);
    sc_close 5 (Op.Slot 1);
    Op.Halt;
  ]

let test_exec_fuse_equivalent () =
  let setup t = put_file t "/f" (pattern 1024) in
  let tv, topt, _, _, _ =
    check_twins ~setup "fused splice" ~slot_count:6 splice_ops
  in
  Alcotest.(check string)
    "spliced /dst bytes" (file_bytes tv "/dst") (file_bytes topt "/dst");
  check_steady_faster ~setup "fused splice" ~slot_count:6 splice_ops

let test_exec_fuse_stale_suffix () =
  (* the read returns 300 of the requested 1024 bytes; the interpreter's
     write still sources the full 1024-byte shared range (fresh prefix +
     stale zeros), and the fused dispatch must reproduce that *)
  let setup t = put_file t "/f" (pattern 300) in
  let tv, topt, _, _, _ =
    check_twins ~setup "short-read splice" ~slot_count:6 splice_ops
  in
  let dv = file_bytes tv "/dst" in
  Alcotest.(check string) "stale-suffix /dst bytes" dv (file_bytes topt "/dst");
  Alcotest.(check int) "write kept its full length" 1024 (String.length dv)

let test_exec_fd_closed_mid_compound () =
  (* close between two reads: the second must fail EBADF on both paths,
     and the optimizer must re-resolve (not reuse) the dead fd *)
  let setup t = put_file t "/f" (pattern 256) in
  let _, _, _, _, cxo =
    check_twins ~setup "read after close" ~slot_count:4
      [
        sc_open 0 "/f" 0;
        sc_read 1 (Op.Slot 0) 0 64;
        sc_close 2 (Op.Slot 0);
        sc_read 3 (Op.Slot 0) 128 64;
        Op.Halt;
      ]
  in
  Alcotest.(check int) "close evicted: fd resolved twice" 2
    (Exec.stats cxo).Exec.fd_resolved

let test_exec_loop_hoisted_and_faster () =
  let _, _, cyv, cyo, _ =
    check_twins "counted getpid loop" ~slot_count:4 (getpid_loop 200)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hoisted loop >=1.3x (%d vs %d cycles)" cyv cyo)
    true
    (float_of_int cyv /. float_of_int (max 1 cyo) >= 1.3);
  (* one more iteration costs the verified path six ops at the verified
     rate, the plan five hoisted ops plus the getpid at the full kopt
     rate (a syscall op is never hoisted); the getpid itself and the
     back-edge cost the same on both *)
  let iteration cfg =
    let cycles n =
      steady_cycles cfg (Compound.encode ~slot_count:4 (getpid_loop n))
    in
    cycles 201 - cycles 200
  in
  let c = Ksim.Cost_model.default in
  Alcotest.(check int) "per-iteration saving"
    ((6 * c.Ksim.Cost_model.cosy_exec_op_verified)
    - (5 * c.Ksim.Cost_model.kopt_exec_op_hoisted)
    - c.Ksim.Cost_model.kopt_exec_op)
    (iteration verify_cfg - iteration opt_cfg)

let test_fd_cache_counters () =
  (* non-contiguous reads (no coalescing): resolve once, reuse twice *)
  let setup t = put_file t "/f" (pattern 1024) in
  let compound =
    Compound.encode ~slot_count:4
      [
        sc_open 0 "/f" 0;
        sc_read 1 (Op.Slot 0) 0 100;
        sc_read 2 (Op.Slot 0) 500 100;
        sc_close 3 (Op.Slot 0);
        Op.Halt;
      ]
  in
  let _, _, _, _, cx = run_one ~setup opt_cfg compound in
  Alcotest.(check int) "fd resolved once" 1 (Exec.stats cx).Exec.fd_resolved;
  Alcotest.(check int) "fd reused twice" 2 (Exec.stats cx).Exec.fd_reused

(* --- the compiled-program cache ------------------------------------------ *)

let test_cache_counters_and_amortization () =
  Kstats.default_enabled := true;
  let t = Core.boot_with opt_cfg in
  Kstats.default_enabled := false;
  let cx = Core.cosy ~shared_size t in
  let compound = Compound.encode ~slot_count:4 (getpid_loop 50) in
  let submit () =
    let (), tm =
      Ksim.Kernel.timed (Core.kernel t) (fun () ->
          ignore (Exec.submit cx compound))
    in
    tm.Ksim.Kernel.elapsed
  in
  let first = submit () in
  let second = submit () in
  let third = submit () in
  let ko = Option.get (Core.kopt t) in
  Alcotest.(check int) "hits" 2 (Core.Opt.hits ko);
  Alcotest.(check int) "misses" 1 (Core.Opt.misses ko);
  Alcotest.(check int) "compiles" 1 (Core.Opt.compiles ko);
  Alcotest.(check int) "cache holds one program" 1 (Core.Opt.cache_size ko);
  Alcotest.(check bool) "hits skip admission+compile" true
    (second < first && third = second);
  let find name =
    match Kstats.find (Core.stats t) name with
    | Some (Kstats.Counter_v v) -> v
    | _ -> -1
  in
  Alcotest.(check int) "kopt.cache.hits" 2 (find "kopt.cache.hits");
  Alcotest.(check int) "kopt.cache.misses" 1 (find "kopt.cache.misses");
  Alcotest.(check int) "kopt.cache.compiles" 1 (find "kopt.cache.compiles")

let test_cache_capacity_evicts () =
  let t = Core.boot_with opt_cfg in
  let ko = Option.get (Core.kopt t) in
  let kv = Option.get (Core.kverify t) in
  ignore kv;
  let distinct n = Compound.encode ~slot_count:4 (getpid_loop (10 + n)) in
  (* default capacity is 64: 70 distinct programs must evict FIFO *)
  for n = 1 to 70 do
    ignore (Kopt.try_plan ko ~shared_size (distinct n))
  done;
  Alcotest.(check int) "cache stays bounded" 64 (Core.Opt.cache_size ko);
  Alcotest.(check int) "every program compiled" 70 (Core.Opt.compiles ko)

let test_rejected_compound_not_planned () =
  let t = Core.boot_with opt_cfg in
  let ko = Option.get (Core.kopt t) in
  (* Call_user is exactly what the checker refuses to admit *)
  let c =
    Compound.encode ~slot_count:1
      [ Op.Call_user { dst = 0; fname = "f"; args = [] }; Op.Halt ]
  in
  Alcotest.(check bool) "no plan for rejected compound" true
    (Kopt.try_plan ko ~shared_size c = None);
  Alcotest.(check int) "nothing compiled" 0 (Core.Opt.compiles ko)

(* --- the detached-admission identity ------------------------------------- *)

(* what a run actually recorded: the zero-valued metrics kverify and
   kopt register at boot are not part of the comparison *)
let recorded t =
  List.filter
    (fun (_, v) ->
      match v with
      | Kstats.Counter_v 0 | Kstats.Gauge_v { value = 0; max = 0 } -> false
      | Kstats.Hist_v { Kstats.v_count = 0; _ } -> false
      | _ -> true)
    (Kstats.dump (Core.stats t))

let test_detached_admission_identity () =
  (* Cosy: an optimizing system whose extension has no admission stage
     runs the dynamic path exactly like a system without kopt *)
  let compound = Compound.encode ~slot_count:4 (getpid_loop 100) in
  let _, r1, s1, cy1, _ = run_one Core.Config.default compound in
  let t = Core.boot_with { Core.Config.default with optimize = true } in
  let cx = Core.cosy ~shared_size t in
  Exec.set_admission cx None;
  let slots, tm =
    Ksim.Kernel.timed (Core.kernel t) (fun () -> Exec.submit cx compound)
  in
  Alcotest.(check (result (array int) string)) "slots" r1 (Ok slots);
  Alcotest.(check bool) "shared" true
    (s1
    = Cosy.Shared_buffer.read_string (Exec.shared cx) ~off:0 ~len:shared_size);
  Alcotest.(check int) "cycle-identical to a system without kopt" cy1
    tm.Ksim.Kernel.elapsed;
  (* kring: same identity, kstats included *)
  let reqs =
    List.concat
      (List.init 8 (fun _ ->
           [ Ksyscall.Syscall.Getpid; Ksyscall.Syscall.Readdir { path = "/" } ]))
  in
  let ring_run cfg ~detach =
    Kstats.default_enabled := true;
    let t =
      Fun.protect
        ~finally:(fun () -> Kstats.default_enabled := false)
        (fun () -> Core.boot_with cfg)
    in
    let ring = Core.ring t in
    if detach then Kring.set_admission ring None;
    let replies =
      List.map (fun c -> c.Kring.reply) (Kring.run_batch ring reqs)
    in
    (replies, Ksim.Kernel.now (Core.kernel t), recorded t)
  in
  let r_base, cy_base, st_base = ring_run Core.Config.default ~detach:false in
  let r_det, cy_det, st_det =
    ring_run { Core.Config.default with optimize = true } ~detach:true
  in
  Alcotest.(check bool) "ring replies" true (r_base = r_det);
  Alcotest.(check int) "ring cycle-identical to a system without kopt" cy_base
    cy_det;
  Alcotest.(check bool) "ring kstats recorded" true (st_base <> []);
  Alcotest.(check (list string)) "ring kstats names" (List.map fst st_base)
    (List.map fst st_det);
  Alcotest.(check bool) "ring kstats identical" true (st_base = st_det)

(* --- the ring half -------------------------------------------------------- *)

let test_ring_plan_fuses_recv_send () =
  let t = Core.boot_with opt_cfg in
  let ko = Option.get (Core.kopt t) in
  let reqs =
    [
      Ksyscall.Syscall.Recv { sock = 5; len = 100 };
      Ksyscall.Syscall.Send { sock = 5; data = Bytes.of_string "x" };
      Ksyscall.Syscall.Recv { sock = 6; len = 100 };
      Ksyscall.Syscall.Send { sock = 7; data = Bytes.of_string "y" };
    ]
  in
  match Kopt.ring_plan ko reqs with
  | None -> Alcotest.fail "well-formed batch should plan"
  | Some plan ->
      Alcotest.(check (array bool))
        "only the same-socket adjacent pair fuses"
        [| true; false; false; false |]
        plan.Kring.fuse_next;
      Alcotest.(check bool) "completion copy-out coalesced" true
        plan.Kring.coalesce_cq

let test_ring_plan_rejects_malformed () =
  let t = Core.boot_with opt_cfg in
  let ko = Option.get (Core.kopt t) in
  Alcotest.(check bool) "negative fd batch refused" true
    (Kopt.ring_plan ko [ Ksyscall.Syscall.Read { fd = -1; len = 8 } ] = None)

(* recover the NIC-side socket id for injection, as the services do *)
let sock_id sys fd =
  let h =
    Ksim.Kproc.find_fd (Ksim.Kernel.current (Ksyscall.Systable.kernel sys)) fd
  in
  if h >= Knet.handle_base then h - Knet.handle_base
  else Alcotest.fail "fd is not a socket"

let echo_batch cfg =
  let t = Core.boot_with cfg in
  let sys = Core.sys t in
  let net = Core.net t in
  let s = Core.Syscall.sys_socket sys in
  ignore (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  ignore (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  ignore (Knet.inject_bytes net ~sock:(sock_id sys conn) "ping-payload");
  let ring = Core.ring t in
  let comps =
    Kring.run_batch ring
      [
        Ksyscall.Syscall.Recv { sock = conn; len = 64 };
        Ksyscall.Syscall.Send { sock = conn; data = Bytes.of_string "pong" };
      ]
  in
  (t, ring, List.map (fun (c : Kring.completion) -> c.Kring.reply) comps)

let test_ring_fused_echo_equivalent () =
  let _, _, base = echo_batch verify_cfg in
  let _, ring, opt = echo_batch opt_cfg in
  Alcotest.(check bool) "replies identical" true (base = opt);
  Alcotest.(check int) "recv->send pair fused" 1 (Kring.fused_pairs ring);
  Alcotest.(check bool) "completion bytes coalesced" true
    (Kring.cq_bytes_saved ring > 0)

(* --- gate parity ------------------------------------------------------------ *)

(* An automaton learned from a plain run that opens two files, reads one,
   closes both and calls getpid twice, but never reads twice in a row,
   writes right after a read, nor mkdirs: exactly the transitions inside
   a coalesced read pair and a fused read->write, and the op after a
   getpid loop. *)
let learned_automaton () =
  let t = Core.boot_with Core.Config.default in
  let recorder = Core.trace t in
  let sys = Core.sys t in
  put_file t "/f" (pattern 64);
  let a = Core.ok (Core.Syscall.sys_open sys ~path:"/f" ~flags:Core.o_rdonly) in
  let b = Core.ok (Core.Syscall.sys_open sys ~path:"/g" ~flags:Core.o_create) in
  ignore (Core.ok (Core.Syscall.sys_read sys ~fd:a ~len:16));
  Core.ok (Core.Syscall.sys_close sys ~fd:a);
  Core.ok (Core.Syscall.sys_close sys ~fd:b);
  ignore (Core.Syscall.sys_getpid sys);
  ignore (Core.Syscall.sys_getpid sys);
  Core.Verify.learn recorder

(* one submit under the automaton and gate [policy], interpreted
   (verified admission) or optimized; the offender's sysno on a kill,
   and the ops and back-edges counted, from the extension and from
   kstats *)
let gated_run ~policy ~optimize automaton compound =
  Kstats.default_enabled := true;
  let t =
    Fun.protect
      ~finally:(fun () -> Kstats.default_enabled := false)
      (fun () ->
        Core.boot_with
          { Core.Config.default with verify = Some policy; optimize })
  in
  put_file t "/f" (pattern 2048);
  let kv = Option.get (Core.kverify t) in
  Core.Verify.set_automaton kv (Some automaton);
  let cx = Core.cosy ~shared_size t in
  let result =
    match Exec.submit cx compound with
    | slots -> Ok slots
    | exception Core.Verify.Flow_violation { sysno; _ } ->
        Error (Ksyscall.Sysno.to_string sysno)
  in
  let counts = (Core.Verify.checked kv, Core.Verify.violations kv) in
  Core.Verify.set_automaton kv None;
  let st = Exec.stats cx in
  let kstat name =
    match Kstats.find (Core.stats t) name with
    | Some (Kstats.Counter_v v) -> v
    | _ -> -1
  in
  let executed =
    [ st.Exec.ops_executed; st.Exec.backedges;
      kstat "cosy.ops_executed"; kstat "cosy.backedges" ]
  in
  (t, result, counts, executed)

let test_gate_parity () =
  let automaton = learned_automaton () in
  let coalesced =
    [
      sc_open 0 "/f" 0;
      sc_read 1 (Op.Slot 0) 0 512;
      sc_read 2 (Op.Slot 0) 512 512;
      sc_close 3 (Op.Slot 0);
      Op.Halt;
    ]
  in
  List.iter
    (fun (what, ops, shape, offender) ->
      Alcotest.(check (pair int int))
        (what ^ ": optimized pair") shape
        (counts (compile ~slot_count:6 ops));
      let compound = Compound.encode ~slot_count:6 ops in
      let run policy optimize = gated_run ~policy ~optimize automaton compound in
      (* Deny: the forbidden op fails EPERM on both paths, the rest runs *)
      let tv, rv, cv, _ = run Core.Verify.Deny false in
      let topt, ro, co, _ = run Core.Verify.Deny true in
      Alcotest.(check (result (array int) string)) (what ^ ": deny slots") rv ro;
      Alcotest.(check (pair int int)) (what ^ ": checked/violations") cv co;
      Alcotest.(check int) (what ^ ": one violation") 1 (snd cv);
      List.iter
        (fun path ->
          Alcotest.(check string)
            (what ^ ": " ^ path ^ " bytes")
            (file_bytes tv path) (file_bytes topt path))
        [ "/f"; "/dst" ];
      Alcotest.(check int)
        (what ^ ": compiled") 1
        (Core.Opt.compiles (Option.get (Core.kopt topt)));
      (* Kill: both paths kill at the same op, having counted the same
         ops and back-edges on the way *)
      let _, rv, _, ev = run Core.Verify.Kill false in
      let _, ro, _, eo = run Core.Verify.Kill true in
      Alcotest.(check (result (array int) string)) (what ^ ": kill") (Error offender) rv;
      Alcotest.(check (result (array int) string)) (what ^ ": kill parity") rv ro;
      Alcotest.(check bool) (what ^ ": ops counted before the kill") true
        (List.hd ev > 0);
      Alcotest.(check (list int))
        (what ^ ": ops, back-edges, cosy.ops_executed, cosy.backedges")
        ev eo)
    [
      ("coalesced read pair", coalesced, (1, 0), "read");
      ("fused read->write", splice_ops, (0, 1), "write");
      ( "getpid loop, then mkdir",
        (* the loop exits to op 7, here the mkdir *)
        List.filteri (fun i _ -> i < 7) (getpid_loop 10)
        @ [
            Op.Syscall { dst = 4; sysno = sysno "mkdir"; args = [ Op.Str "/d" ] };
            Op.Halt;
          ],
        (0, 0),
        "mkdir" );
    ]

(* --- the property: random verified compounds are equivalent --------------- *)

(* straight-line file programs over one descriptor slot: reads, preads,
   writes, getpids, a mid-stream close or re-open.  Offsets and lengths
   land on a 64-byte grid so adjacent ops are often contiguous and the
   coalesce/fuse rewrites actually fire. *)
type gop =
  | Gread of int * int
  | Gpread of int * int * int
  | Gwrite of int * int
  | Ggetpid
  | Gclose
  | Greopen

let gen_gop =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun o l -> Gread (64 * o, 64 * l)) (int_range 0 30) (int_range 0 4));
        ( 3,
          map3
            (fun o l f -> Gpread (64 * o, 64 * l, 64 * f))
            (int_range 0 30) (int_range 0 4) (int_range 0 8) );
        (3, map2 (fun o l -> Gwrite (64 * o, 64 * l)) (int_range 0 30) (int_range 0 4));
        (2, return Ggetpid);
        (1, return Gclose);
        (1, return Greopen);
      ])

let ops_of_gops gops =
  let fd = Op.Slot 0 in
  let body =
    List.mapi
      (fun i g ->
        let dst = 1 + (i mod 6) in
        match g with
        | Gread (off, len) -> sc_read dst fd off len
        | Gpread (off, len, foff) ->
            Op.Syscall
              {
                dst;
                sysno = sysno "pread";
                args = [ fd; Op.Shared off; Op.Const len; Op.Const foff ];
              }
        | Gwrite (off, len) -> sc_write dst fd off len
        | Ggetpid -> Op.Syscall { dst; sysno = sysno "getpid"; args = [] }
        | Gclose -> sc_close dst fd
        | Greopen -> sc_open 0 "/f" 1)
      gops
  in
  (sc_open 0 "/f" 1 :: body) @ [ Op.Halt ]

let qcheck_optimized_equivalent =
  QCheck.Test.make ~name:"optimized execution == verified interpretation"
    ~count:60
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 20) gen_gop))
    (fun gops ->
      let ops = ops_of_gops gops in
      let compound = Compound.encode ~slot_count:8 ops in
      let setup t = put_file t "/f" (pattern 1024) in
      (* three arms: dynamic (no admission), verified, optimized *)
      let observe cfg =
        let t, r, shared, _, cx = run_one ~setup cfg compound in
        let st = Exec.stats cx in
        (r, shared, file_bytes t "/f", st.Exec.ops_executed, st.Exec.backedges)
      in
      let dynamic = observe Core.Config.default in
      dynamic = observe verify_cfg && dynamic = observe opt_cfg)

let () =
  Alcotest.run "kopt"
    [
      ( "plan",
        [
          Alcotest.test_case "coalesce adjacent reads" `Quick test_plan_coalesce;
          Alcotest.test_case "refusal guards" `Quick test_plan_refusals;
          Alcotest.test_case "jump target blocks pairing" `Quick
            test_plan_jump_target_blocks_pairing;
          Alcotest.test_case "fuse read->write" `Quick test_plan_fuse;
          Alcotest.test_case "hoist counted loops" `Quick test_plan_hoist;
        ] );
      ( "exec-equivalence",
        [
          Alcotest.test_case "coalesced reads" `Quick
            test_exec_coalesce_equivalent;
          Alcotest.test_case "short bulk read splits" `Quick
            test_exec_coalesce_short_read;
          Alcotest.test_case "bulk read at EOF" `Quick test_exec_coalesce_at_eof;
          Alcotest.test_case "fused splice" `Quick test_exec_fuse_equivalent;
          Alcotest.test_case "stale suffix preserved" `Quick
            test_exec_fuse_stale_suffix;
          Alcotest.test_case "fd closed mid-compound" `Quick
            test_exec_fd_closed_mid_compound;
          Alcotest.test_case "hoisted loop >=1.3x" `Quick
            test_exec_loop_hoisted_and_faster;
          Alcotest.test_case "fd resolution cached" `Quick
            test_fd_cache_counters;
          QCheck_alcotest.to_alcotest qcheck_optimized_equivalent;
        ] );
      ( "gate",
        [ Alcotest.test_case "optimized pairs keep gate parity" `Quick test_gate_parity ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/compile counters" `Quick
            test_cache_counters_and_amortization;
          Alcotest.test_case "capacity bounds the cache" `Quick
            test_cache_capacity_evicts;
          Alcotest.test_case "rejected compounds never plan" `Quick
            test_rejected_compound_not_planned;
        ] );
      ( "ring",
        [
          Alcotest.test_case "plan fuses recv->send" `Quick
            test_ring_plan_fuses_recv_send;
          Alcotest.test_case "malformed batch refused" `Quick
            test_ring_plan_rejects_malformed;
          Alcotest.test_case "fused echo equivalent" `Quick
            test_ring_fused_echo_equivalent;
        ] );
      ( "identity",
        [
          Alcotest.test_case "detached optimizer is free" `Quick
            test_detached_admission_identity;
        ] );
    ]
