(* Tests for the Cosy framework: compound encoding, the builder library,
   the kernel extension, safety (watchdog, segments), and Cosy-GCC. *)

open Cosy

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %a" Kvfs.Vtypes.pp_errno e

let mk_sys () =
  let kernel = Ksim.Kernel.create () in
  (kernel, Ksyscall.Systable.create kernel)

(* --- compound encoding --------------------------------------------------- *)

let sample_ops =
  [
    Cosy_op.Set { dst = 0; src = Cosy_op.Const 42 };
    Cosy_op.Arith { dst = 1; op = Cosy_op.Aadd; a = Cosy_op.Slot 0; b = Cosy_op.Const 1 };
    Cosy_op.Syscall { dst = 2; sysno = 0; args = [ Cosy_op.Str "/etc/passwd"; Cosy_op.Const 0 ] };
    Cosy_op.Jz { cond = Cosy_op.Slot 2; target = 5 };
    Cosy_op.Jmp 0;
    Cosy_op.Call_user { dst = 3; fname = "f"; args = [ Cosy_op.Shared 16 ] };
    Cosy_op.Halt;
  ]

let test_encode_decode () =
  let c = Compound.encode ~slot_count:4 sample_ops in
  let ops, slots = Compound.decode c in
  Alcotest.(check int) "slots" 4 slots;
  Alcotest.(check int) "op count" (List.length sample_ops) (Array.length ops);
  Alcotest.(check bool) "ops identical" true (Array.to_list ops = sample_ops)

let test_decode_charges () =
  let clock = Ksim.Sim_clock.create () in
  let c = Compound.encode ~slot_count:1 sample_ops in
  ignore (Compound.decode ~clock ~per_op:10 c);
  Alcotest.(check int) "decode cost" (10 * List.length sample_ops)
    (Ksim.Sim_clock.now clock)

let test_decode_rejects_garbage () =
  let c = Compound.encode ~slot_count:1 [ Cosy_op.Halt ] in
  let bad = { c with Compound.buf = Bytes.of_string "XXXXGARBAGE!" } in
  try
    ignore (Compound.decode bad);
    Alcotest.fail "expected decode error"
  with Compound.Decode_error _ -> ()

let arb_arg =
  QCheck.oneof
    [
      QCheck.map (fun n -> Cosy_op.Const n) QCheck.int;
      QCheck.map (fun n -> Cosy_op.Slot (abs n mod 64)) QCheck.small_int;
      QCheck.map (fun n -> Cosy_op.Shared (abs n mod 4096)) QCheck.small_int;
      QCheck.map (fun s -> Cosy_op.Str s) QCheck.printable_string;
    ]

let arb_op =
  let open QCheck in
  oneof
    [
      map
        (fun (d, s) -> Cosy_op.Set { dst = abs d mod 64; src = s })
        (pair small_int arb_arg);
      map
        (fun (d, (a, b)) ->
          Cosy_op.Arith { dst = abs d mod 64; op = Cosy_op.Amul; a; b })
        (pair small_int (pair arb_arg arb_arg));
      map
        (fun (d, args) ->
          Cosy_op.Syscall { dst = abs d mod 64; sysno = abs d mod 15; args })
        (pair small_int (list_of_size (QCheck.Gen.int_range 0 4) arb_arg));
      map (fun t -> Cosy_op.Jmp (abs t mod 1000)) small_int;
      map
        (fun (c, t) -> Cosy_op.Jz { cond = c; target = abs t mod 1000 })
        (pair arb_arg small_int);
      always Cosy_op.Halt;
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"compound encode/decode round trips" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 40) arb_op) (fun ops ->
      let c = Compound.encode ~slot_count:64 ops in
      let ops', slots = Compound.decode c in
      slots = 64 && Array.to_list ops' = ops)

(* --- execution ------------------------------------------------------------ *)

let test_exec_arith_and_flow () =
  let _, sys = mk_sys () in
  let exec = Cosy_exec.create sys in
  (* sum 1..10 with a loop *)
  let c = Cosy_lib.create () in
  let i = Cosy_lib.set_fresh c (Cosy_op.Const 0) in
  let sum = Cosy_lib.set_fresh c (Cosy_op.Const 0) in
  let top = Cosy_lib.next_index c in
  let cond = Cosy_lib.arith_fresh c Cosy_op.Ale (Cosy_op.Slot i) (Cosy_op.Const 10) in
  let jz = Cosy_lib.next_index c in
  Cosy_lib.jz c (Cosy_op.Slot cond) 0;
  Cosy_lib.arith c ~dst:sum Cosy_op.Aadd (Cosy_op.Slot sum) (Cosy_op.Slot i);
  Cosy_lib.arith c ~dst:i Cosy_op.Aadd (Cosy_op.Slot i) (Cosy_op.Const 1);
  Cosy_lib.jmp c top;
  Cosy_lib.patch_jump c ~at:jz ~target:(Cosy_lib.next_index c);
  let slots = Cosy_exec.submit exec (Cosy_lib.finish c) in
  Alcotest.(check int) "sum" 55 slots.(sum);
  let st = Cosy_exec.stats exec in
  Alcotest.(check bool) "backedges seen" true (st.Cosy_exec.backedges >= 10)

let test_exec_syscalls_single_crossing () =
  let kernel, sys = mk_sys () in
  let exec = Cosy_exec.create sys in
  let c = Cosy_lib.create () in
  let buf = Cosy_lib.alloc_shared c 64 in
  (* open(create) -> write -> lseek 0 -> read -> close, one crossing *)
  let fd = Cosy_lib.syscall c "open" [ Cosy_op.Str "/z"; Cosy_op.Const (1 lor 2) ] in
  Shared_buffer.write_string (Cosy_exec.shared exec) ~off:buf "zero-copy!";
  let _w = Cosy_lib.syscall c "write" [ Cosy_op.Slot fd; Cosy_op.Shared buf; Cosy_op.Const 10 ] in
  let _ = Cosy_lib.syscall c "lseek" [ Cosy_op.Slot fd; Cosy_op.Const 0; Cosy_op.Const 0 ] in
  let r = Cosy_lib.syscall c "read" [ Cosy_op.Slot fd; Cosy_op.Shared buf; Cosy_op.Const 10 ] in
  let _ = Cosy_lib.syscall c "close" [ Cosy_op.Slot fd ] in
  let c0 = Ksim.Kernel.crossings kernel in
  let slots = Cosy_exec.submit exec (Cosy_lib.finish c) in
  Alcotest.(check int) "one crossing" 1 (Ksim.Kernel.crossings kernel - c0);
  Alcotest.(check int) "read 10 bytes" 10 slots.(r);
  Alcotest.(check string) "data round-tripped via shared buffer" "zero-copy!"
    (Shared_buffer.read_string (Cosy_exec.shared exec) ~off:buf ~len:10);
  (* no copy charges for the shared-buffer data *)
  Alcotest.(check int) "no bytes copied to user" 0 (Ksim.Kernel.bytes_to_user kernel)

let test_exec_errno_convention () =
  let _, sys = mk_sys () in
  let exec = Cosy_exec.create sys in
  let c = Cosy_lib.create () in
  let fd = Cosy_lib.syscall c "open" [ Cosy_op.Str "/missing"; Cosy_op.Const 0 ] in
  let slots = Cosy_exec.submit exec (Cosy_lib.finish c) in
  Alcotest.(check int) "-ENOENT" (-2) slots.(fd)

let test_exec_mode_restored_on_error () =
  let kernel, sys = mk_sys () in
  let exec = Cosy_exec.create sys in
  let c = Cosy_lib.create () in
  ignore (Cosy_lib.arith_fresh c Cosy_op.Adiv (Cosy_op.Const 1) (Cosy_op.Const 0));
  (try
     ignore (Cosy_exec.submit exec (Cosy_lib.finish c));
     Alcotest.fail "expected exec error"
   with Cosy_exec.Exec_error _ -> ());
  Alcotest.(check bool) "user mode restored" true
    (Ksim.Kernel.mode kernel = Ksim.Kernel.User)

let test_watchdog_kills_infinite_loop () =
  let kernel, sys = mk_sys () in
  let cost = Ksim.Kernel.cost kernel in
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Data_segment;
      watchdog_budget = 1_000_000;
      trust_after = None;
    }
  in
  ignore cost;
  let exec = Cosy_exec.create ~policy sys in
  (* a counted loop whose 100k iterations run far past the budget: it
     would finish were the back-edge watchdog skipped *)
  let c = Cosy_lib.create () in
  let i = Cosy_lib.set_fresh c (Cosy_op.Const 0) in
  let top = Cosy_lib.next_index c in
  let cond =
    Cosy_lib.arith_fresh c Cosy_op.Alt (Cosy_op.Slot i) (Cosy_op.Const 100_000)
  in
  let exit_at = Cosy_lib.next_index c in
  Cosy_lib.jz c (Cosy_op.Slot cond) 0;
  Cosy_lib.arith c ~dst:i Cosy_op.Aadd (Cosy_op.Slot i) (Cosy_op.Const 1);
  Cosy_lib.jmp c top;
  Cosy_lib.patch_jump c ~at:exit_at ~target:(Cosy_lib.next_index c);
  (match Cosy_exec.submit exec (Cosy_lib.finish c) with
  | _ -> Alcotest.fail "expected watchdog kill of the long loop"
  | exception Cosy_safety.Watchdog_expired _ -> ());
  let c = Cosy_lib.create () in
  let top = Cosy_lib.next_index c in
  ignore (Cosy_lib.arith_fresh c Cosy_op.Aadd (Cosy_op.Const 1) (Cosy_op.Const 1));
  Cosy_lib.jmp c top;
  (try
     ignore (Cosy_exec.submit exec (Cosy_lib.finish c));
     Alcotest.fail "expected watchdog kill"
   with Cosy_safety.Watchdog_expired { used; budget } ->
     Alcotest.(check bool) "used > budget" true (used > budget));
  Alcotest.(check int) "kills recorded" 2 (Cosy_exec.stats exec).Cosy_exec.watchdog_kills;
  Alcotest.(check bool) "mode restored" true (Ksim.Kernel.mode kernel = Ksim.Kernel.User)

(* --- user functions & segmentation ---------------------------------------- *)

let user_prog =
  {|
int square(int x) { return x * x; }
int touch_outside(void) {
  int *p = (int*)4096;
  return *p;
}
int spin(void) { while (1) {} return 0; }
|}

let mk_user_exec ?policy () =
  let _, sys = mk_sys () in
  Cosy_exec.create ?policy ~user_program:user_prog sys

let call_user exec fname arg =
  let c = Cosy_lib.create () in
  let r = Cosy_lib.call_user c fname [ Cosy_op.Const arg ] in
  let slots = Cosy_exec.submit exec (Cosy_lib.finish c) in
  slots.(r)

let test_user_function () =
  let exec = mk_user_exec () in
  Alcotest.(check int) "square(9)" 81 (call_user exec "square" 9)

let test_user_isolation_blocks_escape () =
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Isolated_segment;
      watchdog_budget = max_int;
      trust_after = None;
    }
  in
  let exec = mk_user_exec ~policy () in
  (* in-bounds work is fine *)
  Alcotest.(check int) "square ok" 49 (call_user exec "square" 7);
  (* reaching outside the isolated segment faults *)
  let c = Cosy_lib.create () in
  ignore (Cosy_lib.call_user c "touch_outside" []);
  try
    ignore (Cosy_exec.submit exec (Cosy_lib.finish c));
    Alcotest.fail "expected segment violation"
  with Ksim.Fault.Fault f ->
    Alcotest.(check bool) "segment violation" true
      (f.Ksim.Fault.reason = Ksim.Fault.Segment_violation)

let test_user_trusted_mode_skips_segments () =
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Trusted;
      watchdog_budget = max_int;
      trust_after = None;
    }
  in
  let exec = mk_user_exec ~policy () in
  ignore (call_user exec "square" 3);
  Alcotest.(check int) "no segment loads" 0
    (Cosy_exec.stats exec).Cosy_exec.segment_loads

let test_user_isolated_charges_segment_loads () =
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Isolated_segment;
      watchdog_budget = max_int;
      trust_after = None;
    }
  in
  let exec = mk_user_exec ~policy () in
  ignore (call_user exec "square" 3);
  ignore (call_user exec "square" 4);
  Alcotest.(check int) "two reload pairs" 4
    (Cosy_exec.stats exec).Cosy_exec.segment_loads

let test_authentication_heuristic () =
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Isolated_segment;
      watchdog_budget = max_int;
      trust_after = Some 3;
    }
  in
  let exec = mk_user_exec ~policy () in
  for _ = 1 to 5 do
    ignore (call_user exec "square" 2)
  done;
  (* first 3 runs pay segment loads (2 each); runs 4-5 are trusted *)
  Alcotest.(check int) "segment loads stop after trust" 6
    (Cosy_exec.stats exec).Cosy_exec.segment_loads;
  Alcotest.(check int) "safe runs recorded" 5
    (Cosy_safety.safe_runs (Cosy_exec.safety exec) "square")

let test_user_watchdog_in_function () =
  let policy =
    {
      Cosy_safety.mode = Cosy_safety.Data_segment;
      watchdog_budget = 200_000;
      trust_after = None;
    }
  in
  let exec = mk_user_exec ~policy () in
  let c = Cosy_lib.create () in
  ignore (Cosy_lib.call_user c "spin" []);
  try
    ignore (Cosy_exec.submit exec (Cosy_lib.finish c));
    Alcotest.fail "expected watchdog"
  with Cosy_safety.Watchdog_expired _ -> ()

(* --- Cosy-GCC --------------------------------------------------------------- *)

let gcc_prog =
  {|
int pump(void) {
  int total = 0;
  COSY_START;
  int fd = open("/data", 1);
  int i = 0;
  char buf[128];
  while (i < 5) {
    int n = read(fd, buf, 128);
    total = total + n;
    i = i + 1;
  }
  close(fd);
  COSY_END;
  return total;
}
|}

let test_cosy_gcc_compile_and_run () =
  let _, sys = mk_sys () in
  (* create a 640-byte file so five 128-byte reads succeed *)
  ignore
    (ok
       (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/data"
          ~data:(Bytes.make 640 'd')
          ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  let program = Minic.Parser.parse_program ~file:"gcc_prog.c" gcc_prog in
  let compiled = Cosy_gcc.compile program ~fname:"pump" in
  Alcotest.(check bool) "ops generated" true (compiled.Cosy_gcc.op_count > 5);
  (* buf mapped into the shared buffer: automatic zero-copy *)
  Alcotest.(check bool) "buf is shared" true
    (List.mem_assoc "buf" compiled.Cosy_gcc.shared_of_bufs);
  let exec = Cosy_exec.create sys in
  let slots = Cosy_exec.submit exec compiled.Cosy_gcc.compound in
  let total_slot = List.assoc "total" compiled.Cosy_gcc.slots_of_vars in
  Alcotest.(check int) "read 5*128 bytes" 640 slots.(total_slot)

let test_cosy_gcc_if_else () =
  let _, sys = mk_sys () in
  let program =
    Minic.Parser.parse_program
      {|int f(void) {
          int r = 0;
          COSY_START;
          int pid = getpid();
          if (pid > 0) r = 10; else r = 20;
          COSY_END;
          return r;
        }|}
  in
  let compiled = Cosy_gcc.compile program ~fname:"f" in
  let exec = Cosy_exec.create sys in
  let slots = Cosy_exec.submit exec compiled.Cosy_gcc.compound in
  Alcotest.(check int) "took then branch" 10
    slots.(List.assoc "r" compiled.Cosy_gcc.slots_of_vars)

let test_cosy_gcc_break () =
  let program =
    Minic.Parser.parse_program
      {|int f(void) {
          int i = 0;
          COSY_START;
          while (1) {
            i = i + 1;
            if (i >= 7) break;
          }
          COSY_END;
          return i;
        }|}
  in
  let compiled = Cosy_gcc.compile program ~fname:"f" in
  let exec = Cosy_exec.create (snd (mk_sys ())) in
  let slots = Cosy_exec.submit exec compiled.Cosy_gcc.compound in
  Alcotest.(check int) "loop broke at 7" 7
    slots.(List.assoc "i" compiled.Cosy_gcc.slots_of_vars)

let test_cosy_gcc_rejects_unsupported () =
  let reject src fname =
    let program = Minic.Parser.parse_program src in
    try
      ignore (Cosy_gcc.compile program ~fname);
      Alcotest.fail "expected Unsupported"
    with Cosy_gcc.Unsupported _ -> ()
  in
  reject
    "int f(void) { COSY_START; int x = 0; int *p = &x; COSY_END; return 0; }"
    "f";
  reject "int f(void) { COSY_START; return 1; COSY_END; }" "f";
  reject "int f(void) { return 0; }" "f"

let test_cosy_gcc_matches_interp () =
  (* the marked region computes the same value whether interpreted in
     user space or compiled to a compound and run in the kernel *)
  let src =
    {|int f(void) {
        int acc = 1;
        COSY_START;
        int i = 1;
        while (i <= 6) {
          acc = acc * i;
          i = i + 1;
        }
        COSY_END;
        return acc;
      }|}
  in
  let program = Minic.Parser.parse_program src in
  (* interpreted *)
  let clock = Ksim.Sim_clock.create () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let space = Ksim.Address_space.create ~name:"u" ~mem ~clock ~cost:Ksim.Cost_model.zero () in
  let interp = Minic.Interp.create ~space ~clock ~cost:Ksim.Cost_model.zero ~base_vpn:8 ~pages:16 in
  ignore (Minic.Interp.load_program interp program);
  let expected = Minic.Interp.run interp "f" in
  (* compiled *)
  let compiled = Cosy_gcc.compile program ~fname:"f" in
  let exec = Cosy_exec.create (snd (mk_sys ())) in
  let slots = Cosy_exec.submit exec compiled.Cosy_gcc.compound in
  Alcotest.(check int) "same factorial" expected
    slots.(List.assoc "acc" compiled.Cosy_gcc.slots_of_vars)

let test_cosy_gcc_for_loop () =
  (* Sfor lowering: the step must run even though the body has an if *)
  let program =
    Minic.Parser.parse_program
      {|int f(void) {
          int s = 0;
          COSY_START;
          int i = 0;
          for (i = 0; i < 8; i = i + 1) {
            if (i > 3) s = s + 10; else s = s + 1;
          }
          COSY_END;
          return s;
        }|}
  in
  let compiled = Cosy_gcc.compile program ~fname:"f" in
  let exec = Cosy_exec.create (snd (mk_sys ())) in
  let slots = Cosy_exec.submit exec compiled.Cosy_gcc.compound in
  Alcotest.(check int) "4*1 + 4*10" 44
    slots.(List.assoc "s" compiled.Cosy_gcc.slots_of_vars)

(* --- profiling advisor (the 2.4 future-work plan) --------------------------- *)

let profile_src =
  {|
int hot_loop(int fd) {
  int total = 0;
  int i = 0;
  while (i < 1000) {
    char buf[64];
    int n = read(fd, buf, 64);
    total = total + n;
    i = i + 1;
  }
  return total;
}
int cold_path(int fd) {
  return fstat(fd);
}
int pure_math(int x) { return x * x + 1; }
|}

let test_profile_ranks_hot_loops () =
  let p = Minic.Parser.parse_program profile_src in
  let suggestions = Cosy_profile.advise p in
  (match suggestions with
  | first :: _ ->
      Alcotest.(check string) "hot loop ranked first" "hot_loop"
        first.Cosy_profile.target;
      Alcotest.(check bool) "big estimated saving" true
        (first.Cosy_profile.est_crossings_saved > 10)
  | [] -> Alcotest.fail "no suggestions");
  (* syscall-free code is never suggested *)
  Alcotest.(check bool) "pure function not suggested" true
    (not (List.exists (fun s -> s.Cosy_profile.target = "pure_math") suggestions))

let test_profile_threshold () =
  let p = Minic.Parser.parse_program profile_src in
  let all = Cosy_profile.advise ~threshold:0.5 p in
  Alcotest.(check bool) "cold path included at low threshold" true
    (List.exists (fun s -> s.Cosy_profile.target = "cold_path") all);
  let strict = Cosy_profile.advise ~threshold:1000.0 p in
  Alcotest.(check bool) "only the loop survives a strict threshold" true
    (List.for_all (fun s -> s.Cosy_profile.target = "hot_loop") strict)

let test_profile_dynamic_counts () =
  (* dynamic counts override the static trip-count guess *)
  let p = Minic.Parser.parse_program profile_src in
  let counts = Hashtbl.create 4 in
  (* pretend tracing showed cold_path's fstat executing constantly *)
  Hashtbl.replace counts ("cold_path", 14) 100_000;
  let s = Cosy_profile.advise ~dynamic_counts:counts p in
  match s with
  | first :: _ ->
      Alcotest.(check string) "dynamic evidence wins" "cold_path"
        first.Cosy_profile.target
  | [] -> Alcotest.fail "no suggestions"

(* --- shared buffer ----------------------------------------------------------- *)

let test_shared_buffer_bounds () =
  let b = Shared_buffer.create 128 in
  Shared_buffer.write_string b ~off:100 "abc";
  Alcotest.(check string) "read back" "abc" (Shared_buffer.read_string b ~off:100 ~len:3);
  Alcotest.(check int) "high water" 103 (Shared_buffer.high_water b);
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Shared_buffer: range [126,+3) outside buffer of 128")
    (fun () -> Shared_buffer.write_string b ~off:126 "abc")

(* A string operand in the shared buffer runs to its NUL or the buffer's
   end; every byte examined (the NUL too) and then the string itself
   count in cosy.shared.bytes_read, and an offset before the buffer
   raises as a one-byte read there. *)
let test_shared_string_arg_reads () =
  let kernel, sys = mk_sys () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  let exec = Cosy_exec.create ~shared_size:16 sys in
  let sb = Cosy_exec.shared exec in
  let bytes_read () =
    match Kstats.find (Ksim.Kernel.stats kernel) "cosy.shared.bytes_read" with
    | Some (Kstats.Counter_v n) -> n
    | _ -> Alcotest.fail "no cosy.shared.bytes_read"
  in
  let stat off =
    let c = Cosy_lib.create ~shared_size:16 () in
    let r = Cosy_lib.syscall c "stat" [ Cosy_op.Shared off ] in
    let before = bytes_read () in
    let rv = (Cosy_exec.submit exec (Cosy_lib.finish c)).(r) in
    (rv, bytes_read () - before)
  in
  Shared_buffer.write_string sb ~off:0 "/\000";
  Shared_buffer.write_string sb ~off:12 "/abc";
  Alcotest.(check (pair int int)) "terminated: NUL examined" (0, 3) (stat 0);
  Alcotest.(check (pair int int)) "runs to the buffer's end" (-2, 8) (stat 12);
  Alcotest.(check (pair int int)) "at the end: empty, the root" (0, 0) (stat 16);
  Alcotest.check_raises "before the buffer"
    (Invalid_argument "Shared_buffer: range [-1,+1) outside buffer of 16")
    (fun () -> ignore (stat (-1)))

(* --- reads into the shared buffer -------------------------------------------- *)

(* A compound's read and pread land straight in the shared buffer when
   the sink range fits.  The property runs random compounds of read,
   pread and lseek on one system and, on a twin, the same calls through
   the service routines with each result deposited by
   [Shared_buffer.write] — the reply-and-copy semantics — and compares
   return values, the buffer's bytes, the [cosy.shared.*] kstats and
   the clock, and checks the bytes written and high water against a
   model of the deposits.  The twins' cost model charges nothing for crossings or
   compound interpretation, so the clock measures the filesystem work
   alone; every other cost is the default. *)
type fd_pick = F_file | F_dir | F_bad
type sink = Discard | At of int

type rd_op =
  | C_read of fd_pick * sink * int                 (* fd, sink, len *)
  | C_pread of fd_pick * sink * int * int          (* fd, sink, len, off *)
  | C_lseek of fd_pick * int * int                 (* fd, off, whence *)

let pp_pick = function F_file -> "file" | F_dir -> "dir" | F_bad -> "bad"
let pp_sink = function Discard -> "null" | At p -> Printf.sprintf "@%d" p

let pp_rd_op = function
  | C_read (f, s, len) -> Printf.sprintf "read(%s,%s,%d)" (pp_pick f) (pp_sink s) len
  | C_pread (f, s, len, off) ->
      Printf.sprintf "pread(%s,%s,%d,%d)" (pp_pick f) (pp_sink s) len off
  | C_lseek (f, off, w) -> Printf.sprintf "lseek(%s,%d,%d)" (pp_pick f) off w

let rd_shared = 2048

let rd_cost =
  {
    Ksim.Cost_model.default with
    syscall_entry = 0;
    syscall_exit = 0;
    cosy_submit = 0;
    cosy_decode_op = 0;
    cosy_exec_op = 0;
  }

(* A system holding [content] in /f, with /f and / open. *)
let rd_twin content =
  let kernel =
    Ksim.Kernel.create ~config:{ Ksim.Kernel.default_config with cost = rd_cost } ()
  in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  let sys = Ksyscall.Systable.create kernel in
  let module U = Ksyscall.Usyscall in
  let file = ok (U.sys_open sys ~path:"/f" ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (ok (U.sys_write sys ~fd:file ~data:content));
  ignore (ok (U.sys_lseek sys ~fd:file ~off:0 ~whence:Kvfs.Vfs.SEEK_SET));
  let dir = ok (U.sys_open sys ~path:"/" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let fd = function F_file -> file | F_dir -> dir | F_bad -> 999 in
  (kernel, sys, fd)

let retval = function
  | Ok n -> n
  | Error e -> -Kvfs.Vtypes.errno_code e

(* The reply-and-copy reference for one op, in kernel mode.  [model]
   tracks (bytes written, high water) of the deposits independently of
   [Shared_buffer]'s bookkeeping. *)
let ref_op sys sb model fd op =
  let module S = Ksyscall.Sys_file in
  let deposit sink r =
    (match (sink, r) with
    | At pos, Ok data ->
        Shared_buffer.write sb ~off:pos data;
        let written, hw = !model in
        model := (written + Bytes.length data, max hw (pos + Bytes.length data))
    | _ -> ());
    retval (Result.map Bytes.length r)
  in
  match op with
  | C_read (f, sink, len) -> deposit sink (S.service_read sys ~fd:(fd f) ~len)
  | C_pread (f, sink, len, off) ->
      deposit sink (S.service_pread sys ~fd:(fd f) ~off ~len)
  | C_lseek (f, off, w) ->
      retval
        (S.service_lseek sys ~fd:(fd f) ~off
           ~whence:(Ksyscall.Syscall.whence_of_int w))

let cosy_op c fd op =
  let sink = function Discard -> Cosy_op.Const 0 | At pos -> Cosy_op.Shared pos in
  let k n = Cosy_op.Const n in
  match op with
  | C_read (f, s, len) -> Cosy_lib.syscall c "read" [ k (fd f); sink s; k len ]
  | C_pread (f, s, len, off) ->
      Cosy_lib.syscall c "pread" [ k (fd f); sink s; k len; k off ]
  | C_lseek (f, off, w) -> Cosy_lib.syscall c "lseek" [ k (fd f); k off; k w ]

let qcheck_read_into_compounds =
  let gen_pick = QCheck.Gen.frequencyl [ (6, F_file); (1, F_dir); (1, F_bad) ] in
  let gen_sink =
    QCheck.Gen.(
      frequency
        [
          (1, return Discard);
          (5, map (fun p -> At p) (int_bound (rd_shared - 1)));
          (1, return (At rd_shared));
        ])
  in
  let gen_len = QCheck.Gen.(frequency [ (1, return (-1)); (8, int_bound (rd_shared + 200)) ]) in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map3 (fun f s l -> C_read (f, s, l)) gen_pick gen_sink gen_len);
          ( 4,
            map3
              (fun (f, s) l o -> C_pread (f, s, l, o))
              (pair gen_pick gen_sink) gen_len
              (frequency [ (1, return (-1)); (8, int_bound 6000) ]) );
          ( 2,
            map3 (fun f o w -> C_lseek (f, o, w)) gen_pick (int_bound 6000)
              (int_bound 2) );
        ])
  in
  QCheck.Test.make ~name:"in-place reads = reply-and-copy reads" ~count:150
    (QCheck.make
       ~print:(fun (size, cs) ->
         Printf.sprintf "file of %d bytes; %s" size
           (String.concat " | "
              (List.map (fun ops -> String.concat " " (List.map pp_rd_op ops)) cs)))
       QCheck.Gen.(
         pair (int_bound 5000)
           (list_size (int_range 1 3) (list_size (int_range 1 10) gen_op))))
    (fun (size, compounds) ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let content = Bytes.init size (fun i -> Char.chr (33 + (i * 7 mod 90))) in
      let ka, sys_a, fd = rd_twin content and kb, sys_b, _ = rd_twin content in
      let exec = Cosy_exec.create ~shared_size:rd_shared sys_a in
      let sb_a = Cosy_exec.shared exec in
      let sb_b = Shared_buffer.create ~stats:(Ksim.Kernel.stats kb) rd_shared in
      let model = ref (0, 0) in
      List.iter
        (fun ops ->
          let what = String.concat " " (List.map pp_rd_op ops) in
          let c = Cosy_lib.create ~shared_size:rd_shared () in
          let dsts = List.map (cosy_op c fd) ops in
          let got =
            match Cosy_exec.submit exec (Cosy_lib.finish c) with
            | slots -> Ok (List.map (fun d -> slots.(d)) dsts)
            | exception Invalid_argument m -> Error m
          in
          Ksim.Kernel.enter_kernel kb;
          let want =
            match List.map (ref_op sys_b sb_b model fd) ops with
            | rvs -> Ok rvs
            | exception Invalid_argument m -> Error m
          in
          Ksim.Kernel.exit_kernel kb;
          let show = function
            | Ok rvs -> String.concat "," (List.map string_of_int rvs)
            | Error m -> "raised " ^ m
          in
          if got <> want then fail "%s: got %s, want %s" what (show got) (show want);
          if not (Bytes.equal (Shared_buffer.data sb_a) (Shared_buffer.data sb_b)) then
            fail "%s: shared buffer bytes differ" what;
          List.iter
            (fun name ->
              let v k = Kstats.find (Ksim.Kernel.stats k) name in
              if v ka <> v kb then fail "%s: %s differs" what name)
            [ "cosy.shared.bytes_read"; "cosy.shared.bytes_written"; "cosy.shared.high_water" ];
          let written, hw = !model in
          (match Kstats.find (Ksim.Kernel.stats ka) "cosy.shared.bytes_written" with
          | Some (Kstats.Counter_v n) when n = written -> ()
          | _ -> fail "%s: bytes written differ from the model's %d" what written);
          if Shared_buffer.high_water sb_a <> hw then
            fail "%s: high water %d, model %d" what (Shared_buffer.high_water sb_a) hw;
          if Ksim.Kernel.now ka <> Ksim.Kernel.now kb then
            fail "%s: clock %d, reference %d" what (Ksim.Kernel.now ka) (Ksim.Kernel.now kb))
        compounds;
      true)

(* Host words per pread in a counted loop of 1,000 preads straight into
   the shared buffer.  The reply-and-copy path, with its per-op result
   buffer, request closures and span name, read about 75 here; in place
   it is about 2. *)
let test_pread_loop_alloc () =
  let _, sys = mk_sys () in
  let module U = Ksyscall.Usyscall in
  let fd = ok (U.sys_open sys ~path:"/db" ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (ok (U.sys_write sys ~fd ~data:(Bytes.make (16 * 256) 'r')));
  let exec = Cosy_exec.create ~shared_size:1024 sys in
  let c = Cosy_lib.create ~shared_size:1024 () in
  let buf = Cosy_lib.alloc_shared c 256 in
  let i = Cosy_lib.set_fresh c (Cosy_op.Const 0) in
  let top = Cosy_lib.next_index c in
  let cond = Cosy_lib.arith_fresh c Cosy_op.Alt (Cosy_op.Slot i) (Cosy_op.Const 1000) in
  let jz = Cosy_lib.next_index c in
  Cosy_lib.jz c (Cosy_op.Slot cond) 0;
  let rec_no = Cosy_lib.arith_fresh c Cosy_op.Amod (Cosy_op.Slot i) (Cosy_op.Const 16) in
  let off = Cosy_lib.arith_fresh c Cosy_op.Amul (Cosy_op.Slot rec_no) (Cosy_op.Const 256) in
  let n =
    Cosy_lib.syscall c "pread"
      [ Cosy_op.Const fd; Cosy_op.Shared buf; Cosy_op.Const 256; Cosy_op.Slot off ]
  in
  Cosy_lib.arith c ~dst:i Cosy_op.Aadd (Cosy_op.Slot i) (Cosy_op.Const 1);
  Cosy_lib.jmp c top;
  Cosy_lib.patch_jump c ~at:jz ~target:(Cosy_lib.next_index c);
  let compound = Cosy_lib.finish c in
  ignore (Cosy_exec.submit exec compound);
  let before = Host_words.now () in
  let slots = Cosy_exec.submit exec compound in
  let per = (Host_words.now () -. before) /. 1000. in
  Alcotest.(check int) "last pread read a record" 256 slots.(n);
  Alcotest.(check bool)
    (Printf.sprintf "under 20 words per pread (got %.1f)" per)
    true (per < 20.)

let () =
  Alcotest.run "cosy"
    [
      ( "compound",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode;
          Alcotest.test_case "decode cost" `Quick test_decode_charges;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
      ( "exec",
        [
          Alcotest.test_case "arith+flow" `Quick test_exec_arith_and_flow;
          Alcotest.test_case "syscalls single crossing" `Quick test_exec_syscalls_single_crossing;
          Alcotest.test_case "errno convention" `Quick test_exec_errno_convention;
          Alcotest.test_case "mode restored" `Quick test_exec_mode_restored_on_error;
          Alcotest.test_case "watchdog" `Quick test_watchdog_kills_infinite_loop;
        ] );
      ( "user-functions",
        [
          Alcotest.test_case "basic call" `Quick test_user_function;
          Alcotest.test_case "isolation blocks escape" `Quick test_user_isolation_blocks_escape;
          Alcotest.test_case "trusted skips segments" `Quick test_user_trusted_mode_skips_segments;
          Alcotest.test_case "isolated pays reloads" `Quick test_user_isolated_charges_segment_loads;
          Alcotest.test_case "authentication heuristic" `Quick test_authentication_heuristic;
          Alcotest.test_case "watchdog in user fn" `Quick test_user_watchdog_in_function;
        ] );
      ( "cosy-gcc",
        [
          Alcotest.test_case "compile+run" `Quick test_cosy_gcc_compile_and_run;
          Alcotest.test_case "if/else" `Quick test_cosy_gcc_if_else;
          Alcotest.test_case "break" `Quick test_cosy_gcc_break;
          Alcotest.test_case "rejects unsupported" `Quick test_cosy_gcc_rejects_unsupported;
          Alcotest.test_case "matches interp" `Quick test_cosy_gcc_matches_interp;
          Alcotest.test_case "for loop lowering" `Quick test_cosy_gcc_for_loop;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "ranks hot loops" `Quick test_profile_ranks_hot_loops;
          Alcotest.test_case "threshold" `Quick test_profile_threshold;
          Alcotest.test_case "dynamic counts" `Quick test_profile_dynamic_counts;
        ] );
      ( "shared-buffer",
        [ Alcotest.test_case "bounds" `Quick test_shared_buffer_bounds ] );
      ( "read_into",
        [
          Alcotest.test_case "shared string operands" `Quick
            test_shared_string_arg_reads;
          QCheck_alcotest.to_alcotest qcheck_read_into_compounds;
          Alcotest.test_case "pread loop allocation" `Quick test_pread_loop_alloc;
        ] );
    ]
