(* Tests for the kring batched submission/completion ring: result
   equivalence with the synchronous dispatcher, backpressure, crossing
   arithmetic, and the watchdog. *)

module Syscall = Ksyscall.Syscall

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %a" Kvfs.Vtypes.pp_errno e

let mk_sys () =
  let kernel = Ksim.Kernel.create () in
  (kernel, Ksyscall.Systable.create kernel)

let o_create = [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]

(* A mixed batch: successes interleaved with failing ops (ENOENT opens,
   EBADF closes), driving fds it opened itself. *)
let mixed_reqs =
  let open Syscall in
  [
    Mkdir { path = "/d" };
    Open { path = "/d/f"; flags = o_create };      (* fd 3 *)
    Write { fd = 3; data = Bytes.of_string "hello kring" };
    Lseek { fd = 3; off = 0; whence = Kvfs.Vfs.SEEK_SET };
    Read { fd = 3; len = 100 };
    Stat { path = "/d/f" };
    Open { path = "/missing"; flags = [ Kvfs.Vfs.O_RDONLY ] };  (* ENOENT *)
    Close { fd = 99 };                                          (* EBADF *)
    Fstat { fd = 3 };
    Fsync { fd = 3 };
    Readdirplus { path = "/d" };
    Getpid;
    Sendfile { fd = 3; off = 0; len = 5 };
    Close { fd = 3 };
    Open_write_close { path = "/d/g"; data = Bytes.of_string "x"; flags = o_create };
    Open_read_close { path = "/d/g"; maxlen = 10 };
    Readdir { path = "/d" };
    Rename { src = "/d/g"; dst = "/d/h" };
    Unlink { path = "/d/h" };
    Open_fstat { path = "/d/f"; flags = [ Kvfs.Vfs.O_RDONLY ] };
  ]

(* The two systems run on different virtual-time timelines (the sync
   path pays crossings the ring avoids), so [st_mtime] — cycles at last
   modification — legitimately differs.  Everything else must match. *)
let normalize_reply (r : Syscall.reply) : Syscall.reply =
  let zt (st : Kvfs.Vtypes.stat) = { st with Kvfs.Vtypes.st_mtime = 0 } in
  match r with
  | Ok (Syscall.R_stat st) -> Ok (Syscall.R_stat (zt st))
  | Ok (Syscall.R_dirents_stats es) ->
      Ok (Syscall.R_dirents_stats (List.map (fun (d, st) -> (d, zt st)) es))
  | Ok (Syscall.R_fd_stat { fd; stat }) ->
      Ok (Syscall.R_fd_stat { fd; stat = zt stat })
  | r -> r

let test_batch_matches_sequential () =
  (* twin systems: same ops synchronously on one, batched on the other *)
  let _, sys_sync = mk_sys () in
  let sync_replies =
    List.map (fun req -> Ksyscall.Usyscall.invoke sys_sync req) mixed_reqs
  in
  let _, sys_ring = mk_sys () in
  let ring = Kring.create sys_ring in
  let completions = Kring.run_batch ring mixed_reqs in
  Alcotest.(check int) "every op completed" (List.length mixed_reqs)
    (List.length completions);
  List.iteri
    (fun i (req, (c : Kring.completion)) ->
      Alcotest.(check bool)
        (Fmt.str "op %d (%a): sysno" i Syscall.pp_req req)
        true
        (Ksyscall.Sysno.equal c.Kring.sysno (Syscall.sysno_of_req req));
      Alcotest.(check bool)
        (Fmt.str "op %d (%a): reply" i Syscall.pp_req req)
        true
        (normalize_reply c.Kring.reply
        = normalize_reply (List.nth sync_replies i)))
    (List.combine mixed_reqs completions);
  (* both systems saw every syscall in their tables *)
  Alcotest.(check int) "same syscall totals"
    (Ksyscall.Systable.total_syscalls sys_sync)
    (Ksyscall.Systable.total_syscalls sys_ring)

let test_sq_full_backpressure () =
  let _, sys = mk_sys () in
  let ring = Kring.create ~sq_entries:4 sys in
  for _ = 1 to 4 do
    match Kring.push ring Syscall.Getpid with
    | Ok _ -> ()
    | Error `Sq_full -> Alcotest.fail "premature Sq_full"
  done;
  (match Kring.push ring Syscall.Getpid with
  | Error `Sq_full -> ()
  | Ok _ -> Alcotest.fail "expected Sq_full at entry cap");
  (* draining frees the queue *)
  Alcotest.(check int) "drained" 4 (Kring.enter ring);
  (match Kring.push ring Syscall.Getpid with
  | Ok _ -> ()
  | Error `Sq_full -> Alcotest.fail "still full after drain");
  (* the backing store also backpressures: a request that cannot fit *)
  let tiny = Kring.create ~shared_size:16 sys in
  match
    Kring.push tiny (Syscall.Write { fd = 3; data = Bytes.make 64 'x' })
  with
  | Error `Sq_full -> ()
  | Ok _ -> Alcotest.fail "expected Sq_full from backing store"

let test_crossings_exactly_two () =
  let kernel, sys = mk_sys () in
  let c0 = Ksim.Kernel.crossings kernel in
  let ring = Kring.create sys in
  Alcotest.(check int) "setup is one crossing" 1
    (Ksim.Kernel.crossings kernel - c0);
  let n = 32 in
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d"));
  let c1 = Ksim.Kernel.crossings kernel in
  for i = 1 to n do
    match
      Kring.push ring
        (Syscall.Open_write_close
           {
             path = Printf.sprintf "/d/f%d" i;
             data = Bytes.of_string "v";
             flags = o_create;
           })
    with
    | Ok _ -> ()
    | Error `Sq_full -> Alcotest.fail "unexpected Sq_full"
  done;
  Alcotest.(check int) "pushes cross nothing" 0
    (Ksim.Kernel.crossings kernel - c1);
  Alcotest.(check int) "all completed" n (Kring.enter ring);
  Alcotest.(check int) "batch-of-N drains in one crossing" 1
    (Ksim.Kernel.crossings kernel - c1);
  Alcotest.(check int) "reaping crosses nothing" n
    (List.length (Kring.reap_all ring));
  (* setup + enter = exactly 2 crossings for the whole batch *)
  Alcotest.(check int) "total: setup + enter" 2
    (Ksim.Kernel.crossings kernel - c0 - 1 (* the mkdir *))

let test_crossings_savings_vs_sync () =
  (* the acceptance shape: 64 file ops, ring batch 32 vs synchronous *)
  let reqs =
    Syscall.Mkdir { path = "/w" }
    :: List.init 63 (fun i ->
           Syscall.Open_write_close
             {
               path = Printf.sprintf "/w/f%d" (i + 1);
               data = Bytes.of_string (string_of_int i);
               flags = o_create;
             })
  in
  let readback sys =
    List.map
      (fun (d : Kvfs.Vtypes.dirent) ->
        ( d.Kvfs.Vtypes.d_name,
          Bytes.to_string
            (ok
               (Ksyscall.Usyscall.sys_open_read_close sys
                  ~path:("/w/" ^ d.Kvfs.Vtypes.d_name) ~maxlen:100)) ))
      (ok (Ksyscall.Usyscall.sys_readdir sys ~path:"/w"))
    |> List.sort compare
  in
  let kernel_s, sys_s = mk_sys () in
  let c0 = Ksim.Kernel.crossings kernel_s in
  List.iter (fun r -> ignore (Ksyscall.Usyscall.invoke sys_s r)) reqs;
  let sync_crossings = Ksim.Kernel.crossings kernel_s - c0 in
  let kernel_r, sys_r = mk_sys () in
  let c0 = Ksim.Kernel.crossings kernel_r in
  (* batch size 32: the 64 ops drain in two enters plus the setup *)
  let ring = Kring.create ~sq_entries:32 sys_r in
  let completions = Kring.run_batch ring reqs in
  let ring_crossings = Ksim.Kernel.crossings kernel_r - c0 in
  Alcotest.(check int) "all ops completed" (List.length reqs)
    (List.length completions);
  Alcotest.(check (list (pair string string)))
    "byte-identical files" (readback sys_s) (readback sys_r);
  Alcotest.(check bool)
    (Printf.sprintf "ring >= 10x fewer crossings (%d vs %d)" sync_crossings
       ring_crossings)
    true
    (sync_crossings >= 10 * ring_crossings)

let test_watchdog_preempts_batch () =
  let kernel, sys = mk_sys () in
  let policy =
    {
      Cosy.Cosy_safety.mode = Cosy.Cosy_safety.Data_segment;
      watchdog_budget = 1;      (* pathological: nothing fits the budget *)
      trust_after = None;
    }
  in
  let ring = Kring.create ~policy sys in
  for i = 1 to 8 do
    match
      Kring.push ring
        (Syscall.Open_write_close
           {
             path = Printf.sprintf "/f%d" i;
             data = Bytes.make 4096 'x';
             flags = o_create;
           })
    with
    | Ok _ -> ()
    | Error `Sq_full -> Alcotest.fail "unexpected Sq_full"
  done;
  (try
     ignore (Kring.enter ring);
     Alcotest.fail "expected watchdog kill"
   with Cosy.Cosy_safety.Watchdog_expired { used; budget } ->
     Alcotest.(check bool) "used > budget" true (used > budget));
  Alcotest.(check bool) "mode restored" true
    (Ksim.Kernel.mode kernel = Ksim.Kernel.User);
  (* completions produced before the kill survive for reaping *)
  Alcotest.(check bool) "partial completions survive" true
    (Kring.cq_depth ring >= 1);
  Alcotest.(check bool) "not everything completed" true
    (Kring.cq_depth ring < 8)

let test_empty_enter_is_free () =
  let kernel, sys = mk_sys () in
  let ring = Kring.create sys in
  let c0 = Ksim.Kernel.crossings kernel in
  Alcotest.(check int) "no completions" 0 (Kring.enter ring);
  Alcotest.(check int) "no crossing" 0 (Ksim.Kernel.crossings kernel - c0);
  Alcotest.(check bool) "nothing to reap" true (Kring.reap ring = None)

let () =
  Alcotest.run "kring"
    [
      ( "ring",
        [
          Alcotest.test_case "batch == sequential" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "sq-full backpressure" `Quick
            test_sq_full_backpressure;
          Alcotest.test_case "batch-of-N is 2 crossings" `Quick
            test_crossings_exactly_two;
          Alcotest.test_case "10x fewer crossings vs sync" `Quick
            test_crossings_savings_vs_sync;
          Alcotest.test_case "watchdog preempts batch" `Quick
            test_watchdog_preempts_batch;
          Alcotest.test_case "empty enter is free" `Quick
            test_empty_enter_is_free;
        ] );
    ]
