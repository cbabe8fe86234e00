(* The Cosy kernel extension (§2.3): receives a compound through the
   shared compound buffer, decodes it (charging per-op decode cost), and
   executes the operations in turn in kernel mode.  Syscall operations
   dispatch to the same in-kernel service routines ordinary syscalls use,
   so all permission/validity checks still run — only the boundary
   crossings and data copies disappear. *)

exception Exec_error of string

module Syscall = Ksyscall.Syscall

(* What admission decided about a submitted compound.  [Dynamic]: run
   it under the watchdog at the full per-op cost.  [Verified]: its loops
   were proven bounded, so it runs on the cheaper per-op cost with the
   watchdog elided.  [Compiled run]: it was admitted and compiled (or
   found in a compiled-program cache); the thunk executes the
   specialized program — observably identical results, cheaper
   accounting — and returns (slots, ops executed, back-edges). *)
type admission =
  | Dynamic
  | Verified
  | Compiled of (unit -> int array * int * int)

type t = {
  sys : Ksyscall.Systable.t;
  shared : Shared_buffer.t;
  safety : Cosy_safety.t;
  interp : Minic.Interp.t option;   (* loaded user functions *)
  interp_region : (int * int) option; (* base, len of interp memory *)
  kstats : Kstats.t;
  st_submits : Kstats.counter;
  st_ops : Kstats.counter;
  st_backedges : Kstats.counter;
  st_user_calls : Kstats.counter;
  st_compound_ops : Kstats.hist;
  mutable submits : int;
  mutable ops_executed : int;
  mutable backedges : int;
  mutable user_calls : int;
  (* the admission stage: when set, each submitted compound is judged
     before the interpreter runs (see [admission]).  [None] (the
     default) is today's dynamic-only safety, bit-for-bit. *)
  mutable admit : (Compound.t -> admission) option;
  mutable watchdog_elisions : int;
}

let create ?(shared_size = 65536) ?policy ?user_program sys =
  let kernel = Ksyscall.Systable.kernel sys in
  let cost = Ksim.Kernel.cost kernel in
  let clock = Ksim.Kernel.clock kernel in
  let policy =
    match policy with Some p -> p | None -> Cosy_safety.default_policy cost
  in
  let interp, interp_region =
    match user_program with
    | None -> (None, None)
    | Some src ->
        let base_vpn = 0x80000 and pages = 64 in
        let interp =
          Minic.Interp.create
            ~space:(Ksim.Kernel.kspace kernel)
            ~clock ~cost ~base_vpn ~pages
        in
        ignore (Minic.Interp.parse_and_load interp ~file:"cosy_user.c" src);
        let page_size = Ksim.Kernel.page_size kernel in
        (Some interp, Some (base_vpn * page_size, pages * page_size))
  in
  let kstats = Ksim.Kernel.stats kernel in
  {
    sys;
    shared = Shared_buffer.create ~stats:kstats shared_size;
    safety =
      Cosy_safety.create ~fault:(Ksim.Kernel.fault kernel) ~policy ~clock ~cost
        ();
    interp;
    interp_region;
    kstats;
    st_submits = Kstats.counter kstats "cosy.submits";
    st_ops = Kstats.counter kstats "cosy.ops_executed";
    st_backedges = Kstats.counter kstats "cosy.backedges";
    st_user_calls = Kstats.counter kstats "cosy.user_calls";
    st_compound_ops = Kstats.histogram kstats "cosy.compound.ops";
    submits = 0;
    ops_executed = 0;
    backedges = 0;
    user_calls = 0;
    admit = None;
    watchdog_elisions = 0;
  }

let shared t = t.shared
let safety t = t.safety
let set_admission t a = t.admit <- a
let watchdog_elisions t = t.watchdog_elisions

(* Read a NUL-terminated string argument: immediate or from the shared
   buffer. *)
let string_arg t slots = function
  | Cosy_op.Str s -> s
  | Cosy_op.Shared off ->
      let rec find i =
        if off + i >= Shared_buffer.size t.shared then i
        else if Bytes.get (Shared_buffer.read t.shared ~off:(off + i) ~len:1) 0
                = '\000'
        then i
        else find (i + 1)
      in
      Shared_buffer.read_string t.shared ~off ~len:(find 0)
  | Cosy_op.Const _ | Cosy_op.Slot _ as a ->
      ignore slots;
      raise (Exec_error (Fmt.str "expected string argument, got %a" Cosy_op.pp_arg a))

let int_arg slots = function
  | Cosy_op.Const v -> v
  | Cosy_op.Slot i ->
      if i < 0 || i >= Array.length slots then
        raise (Exec_error (Printf.sprintf "slot %d out of range" i));
      slots.(i)
  | Cosy_op.Shared off -> off
  | Cosy_op.Str _ -> raise (Exec_error "expected integer argument, got string")

let open_flags_of_int v =
  (* bit 0: write, bit 1: create, bit 2: trunc, bit 3: append *)
  let flags = if v land 1 <> 0 then [ Kvfs.Vfs.O_RDWR ] else [ Kvfs.Vfs.O_RDONLY ] in
  let flags = if v land 2 <> 0 then Kvfs.Vfs.O_CREAT :: flags else flags in
  let flags = if v land 4 <> 0 then Kvfs.Vfs.O_TRUNC :: flags else flags in
  if v land 8 <> 0 then Kvfs.Vfs.O_APPEND :: flags else flags

(* Execute one syscall op: lower the decoded compound operands to a
   typed [Syscall.req], run it through the same in-kernel service
   dispatch the synchronous wrappers and the kring use, and collapse the
   typed reply to the compound's C-style return value.  Input payloads
   (write/pwrite) are pulled from the shared buffer while building the
   request; output payloads (read/pread/readdir) are pushed back into it
   once the reply is in hand. *)
let do_syscall t slots sysno args =
  let name =
    match Cosy_op.name_of_sysno sysno with
    | Some n -> n
    | None -> raise (Exec_error (Printf.sprintf "bad syscall number %d" sysno))
  in
  (* Where an output payload goes: into the shared buffer, or dropped. *)
  let out_sink what = function
    | Cosy_op.Shared off -> Some off
    | Cosy_op.Const 0 -> None (* discard *)
    | _ -> raise (Exec_error (what ^ ": buffer must be shared or null"))
  in
  let in_data what len = function
    | Cosy_op.Shared off -> Shared_buffer.read t.shared ~off ~len
    | Cosy_op.Str s -> Bytes.of_string s
    | _ -> raise (Exec_error (what ^ ": buffer must be shared or immediate"))
  in
  let nop_post (_ : Syscall.reply) = () in
  let req, post =
    match (name, args) with
    | "open", [ path; flags ] ->
        ( Syscall.Open
            {
              path = string_arg t slots path;
              flags = open_flags_of_int (int_arg slots flags);
            },
          nop_post )
    | "close", [ fd ] -> (Syscall.Close { fd = int_arg slots fd }, nop_post)
    | "read", [ fd; buf; len ] ->
        let sink = out_sink "read" buf in
        ( Syscall.Read { fd = int_arg slots fd; len = int_arg slots len },
          function
          | Ok (Syscall.R_bytes data) ->
              Option.iter (fun off -> Shared_buffer.write t.shared ~off data) sink
          | _ -> () )
    | "write", [ fd; buf; len ] ->
        ( Syscall.Write
            {
              fd = int_arg slots fd;
              data = in_data "write" (int_arg slots len) buf;
            },
          nop_post )
    | "pread", [ fd; buf; len; off ] ->
        let sink = out_sink "pread" buf in
        ( Syscall.Pread
            {
              fd = int_arg slots fd;
              off = int_arg slots off;
              len = int_arg slots len;
            },
          function
          | Ok (Syscall.R_bytes data) ->
              Option.iter (fun boff -> Shared_buffer.write t.shared ~off:boff data) sink
          | _ -> () )
    | "pwrite", [ fd; buf; len; off ] ->
        ( Syscall.Pwrite
            {
              fd = int_arg slots fd;
              off = int_arg slots off;
              data = in_data "pwrite" (int_arg slots len) buf;
            },
          nop_post )
    | "lseek", [ fd; off; whence ] ->
        ( Syscall.Lseek
            {
              fd = int_arg slots fd;
              off = int_arg slots off;
              whence = Syscall.whence_of_int (int_arg slots whence);
            },
          nop_post )
    | "stat", [ path ] ->
        (Syscall.Stat { path = string_arg t slots path }, nop_post)
    | "fstat", [ fd ] -> (Syscall.Fstat { fd = int_arg slots fd }, nop_post)
    | "readdir", [ path; buf ] ->
        let sink = out_sink "readdir" buf in
        ( Syscall.Readdir { path = string_arg t slots path },
          function
          | Ok (Syscall.R_dirents entries) ->
              Option.iter
                (fun off ->
                  let names =
                    String.concat "\000"
                      (List.map (fun d -> d.Kvfs.Vtypes.d_name) entries)
                    ^ "\000"
                  in
                  Shared_buffer.write_string t.shared ~off names)
                sink
          | _ -> () )
    | "mkdir", [ path ] ->
        (Syscall.Mkdir { path = string_arg t slots path }, nop_post)
    | "unlink", [ path ] ->
        (Syscall.Unlink { path = string_arg t slots path }, nop_post)
    | "rename", [ src; dst ] ->
        ( Syscall.Rename
            { src = string_arg t slots src; dst = string_arg t slots dst },
          nop_post )
    | "fsync", [ fd ] -> (Syscall.Fsync { fd = int_arg slots fd }, nop_post)
    | "getpid", [] -> (Syscall.Getpid, nop_post)
    | _ ->
        raise
          (Exec_error (Printf.sprintf "%s: bad argument count (%d)" name
                         (List.length args)))
  in
  let perf = Ksim.Kernel.perf (Ksyscall.Systable.kernel t.sys) in
  let span = Kperf.span_begin perf ~cat:"cosy" ~name:("sys." ^ name) () in
  let reply =
    match Ksyscall.Usyscall.invoke_compound t.sys req with
    | r ->
        Kperf.span_end perf span;
        r
    | exception e ->
        Kperf.span_end perf span;
        raise e
  in
  post reply;
  Syscall.reply_to_retval reply

(* Execute a user-supplied function inside the kernel under the active
   protection mode. *)
let do_call_user t slots fname args =
  match (t.interp, t.interp_region) with
  | None, _ | _, None ->
      raise (Exec_error "no user program loaded into the Cosy extension")
  | Some interp, Some (base, len) ->
      t.user_calls <- t.user_calls + 1;
      Kstats.incr t.kstats t.st_user_calls;
      let mode = Cosy_safety.effective_mode t.safety fname in
      Cosy_safety.charge_call_overhead t.safety mode;
      let space = Minic.Interp.space interp in
      let saved_segment = Ksim.Address_space.segment space in
      (match Cosy_safety.segment_for ~base ~len mode with
      | Some seg -> Ksim.Address_space.set_segment space seg
      | None -> ());
      Minic.Interp.set_on_backedge interp (fun () ->
          Cosy_safety.watchdog_check t.safety);
      let restore () = Ksim.Address_space.set_segment space saved_segment in
      let result =
        try Minic.Interp.run interp ~args:(List.map (int_arg slots) args) fname
        with e ->
          restore ();
          raise e
      in
      restore ();
      Cosy_safety.record_safe_run t.safety fname;
      result

(* The compound's kernel stay, between the trap and the return: arm the
   watchdog, admit, then run.  Returns the final register file. *)
let execute t sys compound =
  let kernel = Ksyscall.Systable.kernel sys in
  let cost = Ksim.Kernel.cost kernel in
  let clock = Ksim.Kernel.clock kernel in
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.cosy_submit;
  Cosy_safety.arm t.safety;
  (* admission: judge the compound before running a single op, inside
     the kernel stay with the watchdog armed.  The hook charges its own
     costs; anything it does not admit (including every compound when no
     hook is installed) takes today's dynamic path. *)
  let admission =
    match t.admit with None -> Dynamic | Some admit -> admit compound
  in
  let verified =
    match admission with
    | Dynamic -> false
    | Verified | Compiled _ ->
        t.watchdog_elisions <- t.watchdog_elisions + 1;
        true
  in
  let per_op_cost =
    if verified then cost.Ksim.Cost_model.cosy_exec_op_verified
    else cost.Ksim.Cost_model.cosy_exec_op
  in
  match admission with
  | Compiled run ->
      let slots, ops_run, backedges = run () in
      t.ops_executed <- t.ops_executed + ops_run;
      Kstats.add t.kstats t.st_ops ops_run;
      t.backedges <- t.backedges + backedges;
      Kstats.add t.kstats t.st_backedges backedges;
      slots
  | Dynamic | Verified ->
      let ops, slot_count =
        Compound.decode ~clock ~per_op:cost.Ksim.Cost_model.cosy_decode_op
          compound
      in
      let slots = Array.make slot_count 0 in
      let pc = ref 0 in
      let running = ref true in
      while !running && !pc < Array.length ops do
        let cur = !pc in
        t.ops_executed <- t.ops_executed + 1;
        Kstats.incr t.kstats t.st_ops;
        Ksim.Sim_clock.advance clock per_op_cost;
        (match ops.(cur) with
        | Cosy_op.Set { dst; src } ->
            slots.(dst) <- int_arg slots src;
            incr pc
        | Cosy_op.Arith { dst; op; a; b } ->
            let va = int_arg slots a and vb = int_arg slots b in
            let v =
              match op with
              | Cosy_op.Aadd -> va + vb
              | Cosy_op.Asub -> va - vb
              | Cosy_op.Amul -> va * vb
              | Cosy_op.Adiv ->
                  if vb = 0 then raise (Exec_error "division by zero")
                  else va / vb
              | Cosy_op.Amod ->
                  if vb = 0 then raise (Exec_error "modulo by zero")
                  else va mod vb
              | Cosy_op.Aeq -> if va = vb then 1 else 0
              | Cosy_op.Ane -> if va <> vb then 1 else 0
              | Cosy_op.Alt -> if va < vb then 1 else 0
              | Cosy_op.Ale -> if va <= vb then 1 else 0
              | Cosy_op.Agt -> if va > vb then 1 else 0
              | Cosy_op.Age -> if va >= vb then 1 else 0
            in
            slots.(dst) <- v;
            incr pc
        | Cosy_op.Syscall { dst; sysno; args } ->
            slots.(dst) <- do_syscall t slots sysno args;
            incr pc
        | Cosy_op.Jmp target ->
            if target <= cur then begin
              t.backedges <- t.backedges + 1;
              Kstats.incr t.kstats t.st_backedges;
              Ksim.Scheduler.checkpoint (Ksim.Kernel.sched kernel);
              (* verified compounds proved their loops bounded at
                 admission; the preemption checkpoint above still runs *)
              if not verified then Cosy_safety.watchdog_check t.safety
            end;
            pc := target
        | Cosy_op.Jz { cond; target } ->
            if int_arg slots cond = 0 then begin
              if target <= cur then begin
                t.backedges <- t.backedges + 1;
                Kstats.incr t.kstats t.st_backedges;
                Ksim.Scheduler.checkpoint (Ksim.Kernel.sched kernel);
                if not verified then Cosy_safety.watchdog_check t.safety
              end;
              pc := target
            end
            else incr pc
        | Cosy_op.Call_user { dst; fname; args } ->
            slots.(dst) <- do_call_user t slots fname args;
            incr pc
        | Cosy_op.Halt -> running := false)
      done;
      slots

(* Submit a compound for execution: the single boundary crossing that
   replaces the whole marked code segment's worth of syscalls.  The stay
   is the shared one ([Usyscall.stay]), so a watchdog expiry, a
   flow-gate kill or a contained memory fault unwinds exactly as on the
   other entry paths. *)
let submit t compound =
  let kernel = Ksyscall.Systable.kernel t.sys in
  let perf = Ksim.Kernel.perf kernel in
  let pid = (Ksim.Kernel.current kernel).Ksim.Kproc.pid in
  t.submits <- t.submits + 1;
  Kstats.incr t.kstats t.st_submits;
  let ops_before = t.ops_executed in
  (* one span per compound; the per-op "cosy:sys.*" spans nest under it *)
  let span = Kperf.span_begin perf ~pid ~cat:"cosy" ~name:"submit" () in
  let slots =
    Ksyscall.Usyscall.stay t.sys Ksyscall.Usyscall.Compound ~span (execute t)
      compound
  in
  Kstats.observe t.kstats t.st_compound_ops (t.ops_executed - ops_before);
  Kperf.span_end perf ~pid ~arg:(t.ops_executed - ops_before) span;
  slots

(* Exported for the kopt plan executor, which replays the same lowering
   (typed request, service dispatch, reply deposit, kperf span) for the
   syscall ops it does not rewrite. *)
let exec_syscall = do_syscall

type stats = {
  submits : int;
  ops_executed : int;
  backedges : int;
  user_calls : int;
  watchdog_kills : int;
  segment_loads : int;
}

let stats (t : t) =
  {
    submits = t.submits;
    ops_executed = t.ops_executed;
    backedges = t.backedges;
    user_calls = t.user_calls;
    watchdog_kills = Cosy_safety.watchdog_kills t.safety;
    segment_loads = Cosy_safety.segment_loads t.safety;
  }
