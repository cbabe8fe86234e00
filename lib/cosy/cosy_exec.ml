(* The Cosy kernel extension (§2.3): receives a compound through the
   shared compound buffer, decodes it (charging per-op decode cost), and
   executes the operations in turn in kernel mode.  Syscall operations
   dispatch to the same in-kernel service routines ordinary syscalls use,
   so all permission/validity checks still run — only the boundary
   crossings and data copies disappear. *)

exception Exec_error of string

module Syscall = Ksyscall.Syscall
module Sysno = Ksyscall.Sysno

(* What admission decided about a submitted compound.  [Dynamic]: run
   it under the watchdog at the full per-op cost.  [Verified]: its loops
   were proven bounded, so it runs on the cheaper per-op cost with the
   watchdog elided.  [Compiled plan]: it was admitted and compiled (or
   found in a compiled-program cache); the same op loop runs the plan's
   ops and rewrites in place of a decode — observably identical
   results, cheaper accounting. *)
type admission =
  | Dynamic
  | Verified
  | Compiled of Cosy_plan.t

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
  (* a plan's fd-resolution cache: the descriptors resolved so far in
     the running execution, emptied when a plan starts *)
  mutable fd_cache : int list;
  mutable fd_resolved : int;
  mutable fd_reused : int;
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
    fd_cache = [];
    fd_resolved = 0;
    fd_reused = 0;
  }

let shared t = t.shared
let safety t = t.safety
let set_admission t a = t.admit <- a
let watchdog_elisions t = t.watchdog_elisions

(* Read a NUL-terminated string argument: immediate or from the shared
   buffer.  A shared string runs to the first NUL (or the buffer's end)
   and every byte examined, the NUL included, counts as read. *)
let string_arg t = function
  | Cosy_op.Str s -> s
  | Cosy_op.Shared off ->
      let size = Shared_buffer.size t.shared in
      let len =
        if off >= size then 0
        else if off < 0 then begin
          (* out of range: raises as a one-byte read there would *)
          Shared_buffer.note_read t.shared ~off ~len:1;
          0
        end
        else
          match Bytes.index_from (Shared_buffer.data t.shared) off '\000' with
          | nul ->
              Shared_buffer.note_read t.shared ~off ~len:(nul - off + 1);
              nul - off
          | exception Not_found ->
              Shared_buffer.note_read t.shared ~off ~len:(size - off);
              size - off
      in
      Shared_buffer.read_string t.shared ~off ~len
  | Cosy_op.Const _ | Cosy_op.Slot _ as a ->
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

(* --- syscall ops ----------------------------------------------------- *)

(* Each syscall op runs under a "cosy:sys.<name>" span; the names are
   built once, by wire number. *)
let span_names =
  Array.init
    (List.length Sysno.all)
    (fun n -> "sys." ^ Sysno.to_string (Option.get (Sysno.of_int n)))

let span_begin t sysno =
  Kperf.span_begin
    (Ksim.Kernel.perf (Ksyscall.Systable.kernel t.sys))
    ~pid:0 ~arg:0 ~cat:"cosy" ~name:span_names.(sysno)

let span_end t span =
  Kperf.span_end (Ksim.Kernel.perf (Ksyscall.Systable.kernel t.sys)) ~pid:0
    ~arg:0 span

(* An output buffer operand must name the shared buffer or be null (the
   payload is dropped). *)
let check_sink what = function
  | Cosy_op.Shared _ | Cosy_op.Const 0 -> ()
  | _ -> raise (Exec_error (what ^ ": buffer must be shared or null"))

(* An input payload: [len] bytes of the shared buffer, or an immediate. *)
let in_data t what len = function
  | Cosy_op.Shared off -> Shared_buffer.read t.shared ~off ~len
  | Cosy_op.Str s -> Bytes.of_string s
  | _ -> raise (Exec_error (what ^ ": buffer must be shared or immediate"))

(* Lower a decoded syscall op without an output payload to its typed
   request. *)
let lower t slots sys args =
  match (sys, args) with
  | Sysno.Open, [ path; flags ] ->
      Syscall.Open
        {
          path = string_arg t path;
          flags = open_flags_of_int (int_arg slots flags);
        }
  | Sysno.Close, [ fd ] -> Syscall.Close { fd = int_arg slots fd }
  | Sysno.Write, [ fd; buf; len ] ->
      Syscall.Write
        { fd = int_arg slots fd; data = in_data t "write" (int_arg slots len) buf }
  | Sysno.Pwrite, [ fd; buf; len; off ] ->
      Syscall.Pwrite
        {
          fd = int_arg slots fd;
          off = int_arg slots off;
          data = in_data t "pwrite" (int_arg slots len) buf;
        }
  | Sysno.Lseek, [ fd; off; whence ] ->
      Syscall.Lseek
        {
          fd = int_arg slots fd;
          off = int_arg slots off;
          whence = Syscall.whence_of_int (int_arg slots whence);
        }
  | Sysno.Stat, [ path ] -> Syscall.Stat { path = string_arg t path }
  | Sysno.Fstat, [ fd ] -> Syscall.Fstat { fd = int_arg slots fd }
  | Sysno.Mkdir, [ path ] -> Syscall.Mkdir { path = string_arg t path }
  | Sysno.Unlink, [ path ] -> Syscall.Unlink { path = string_arg t path }
  | Sysno.Rename, [ src; dst ] ->
      Syscall.Rename { src = string_arg t src; dst = string_arg t dst }
  | Sysno.Fsync, [ fd ] -> Syscall.Fsync { fd = int_arg slots fd }
  | Sysno.Getpid, [] -> Syscall.Getpid
  | _ ->
      raise
        (Exec_error
           (Printf.sprintf "%s: bad argument count (%d)" (Sysno.to_string sys)
              (List.length args)))

(* The same in-kernel service dispatch the synchronous wrappers and the
   kring use, under the op's span. *)
let dispatch t sysno req =
  let span = span_begin t sysno in
  match Ksyscall.Usyscall.invoke_compound t.sys req with
  | reply ->
      span_end t span;
      reply
  | exception e ->
      span_end t span;
      raise e

(* Push a reply's output payload into the shared buffer at [buf], unless
   [buf] is null. *)
let deposit t buf (reply : Syscall.reply) =
  match (buf, reply) with
  | Cosy_op.Shared off, Ok (Syscall.R_bytes data) ->
      Shared_buffer.write t.shared ~off data
  | Cosy_op.Shared off, Ok (Syscall.R_dirents entries) ->
      let names =
        String.concat "\000" (List.map (fun d -> d.Kvfs.Vtypes.d_name) entries)
        ^ "\000"
      in
      Shared_buffer.write_string t.shared ~off names
  | _ -> ()

(* A read or pread.  When its whole range [off, off+len) fits in the
   shared buffer, the file bytes land there directly and only their
   count is noted; any other sink (null, or a range that may not fit)
   takes the reply-and-deposit path, which raises on an out-of-range
   deposit exactly as it always has. *)
let read_op t sysno kind ~fd ~off ~len buf =
  match buf with
  | Cosy_op.Shared pos
    when 0 <= len && 0 <= pos && pos <= Shared_buffer.size t.shared - len -> (
      let span = span_begin t sysno in
      match
        Ksyscall.Usyscall.invoke_compound_into t.sys kind ~fd ~off ~len
          ~into:(Shared_buffer.data t.shared) ~pos
      with
      | exception e ->
          span_end t span;
          raise e
      | Ok n ->
          span_end t span;
          Shared_buffer.note_written t.shared ~off:pos ~len:n;
          n
      | Error e ->
          span_end t span;
          -Kvfs.Vtypes.errno_code e)
  | _ ->
      let req =
        match kind with
        | Sysno.Read -> Syscall.Read { fd; len }
        | _ -> Syscall.Pread { fd; off; len }
      in
      let reply = dispatch t sysno req in
      deposit t buf reply;
      Syscall.reply_to_retval reply

(* Execute one syscall op: lower the decoded compound operands to a
   typed request, run it through the in-kernel service dispatch, and
   collapse the reply to the compound's C-style return value.  Input
   payloads (write/pwrite) are pulled from the shared buffer while
   building the request; output payloads (read/pread/readdir) land in
   it.  Nothing here allocates per call but the request itself and what
   the service routine returns. *)
let do_syscall t slots sysno args =
  let sys =
    match Cosy_op.syscall sysno with
    | Some (sys, _) -> sys
    | None -> raise (Exec_error (Printf.sprintf "bad syscall number %d" sysno))
  in
  match (sys, args) with
  | Sysno.Read, [ fd; buf; len ] ->
      check_sink "read" buf;
      let len = int_arg slots len in
      let fd = int_arg slots fd in
      read_op t sysno Sysno.Read ~fd ~off:0 ~len buf
  | Sysno.Pread, [ fd; buf; len; off ] ->
      check_sink "pread" buf;
      let len = int_arg slots len in
      let off = int_arg slots off in
      let fd = int_arg slots fd in
      read_op t sysno Sysno.Pread ~fd ~off ~len buf
  | Sysno.Readdir, [ path; buf ] ->
      check_sink "readdir" buf;
      let reply =
        dispatch t sysno (Syscall.Readdir { path = string_arg t path })
      in
      deposit t buf reply;
      Syscall.reply_to_retval reply
  | _ -> Syscall.reply_to_retval (dispatch t sysno (lower t slots sys args))

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

(* --- compiled plans ---------------------------------------------------- *)

(* The fd-resolution cache: each distinct descriptor value is resolved
   (and charged) once per plan execution; [close] evicts, so a reused fd
   number re-resolves. *)
let resolve_fd t clock cost fd =
  if List.mem fd t.fd_cache then t.fd_reused <- t.fd_reused + 1
  else begin
    Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_fd_resolve;
    t.fd_resolved <- t.fd_resolved + 1;
    t.fd_cache <- fd :: t.fd_cache
  end

let count_op t =
  t.ops_executed <- t.ops_executed + 1;
  Kstats.incr t.kstats t.st_ops

let gate_verdict t req =
  Ksyscall.Usyscall.verdict t.sys (Syscall.sysno_of_req req)

(* One original op of a pair, acting on the gate verdict already taken
   for it; a read's payload lands at [sink]. *)
let decided t verdict req sink =
  let reply = Ksyscall.Usyscall.apply_verdict t.sys verdict req in
  deposit t sink reply;
  Syscall.reply_to_retval reply

(* A coalesced pair: one gate verdict per original op, in original order
   ([Usyscall.verdict] charges the gate's probe, so cycles and automaton
   state match the interpreter), one bulk transfer when both allow, else
   the two original ops under the verdicts already taken. *)
let coalesce t clock cost slots (c : Cosy_plan.coalesce) =
  count_op t;
  count_op t;
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_exec_op;
  let fd = int_arg slots c.fd in
  resolve_fd t clock cost fd;
  let req_a, req_b =
    match c.kind with
    | Cosy_plan.G_read ->
        (Syscall.Read { fd; len = c.len_a }, Syscall.Read { fd; len = c.len_b })
    | Cosy_plan.G_pread ->
        ( Syscall.Pread { fd; off = c.foff; len = c.len_a },
          Syscall.Pread { fd; off = c.foff + c.len_a; len = c.len_b } )
    | Cosy_plan.G_write ->
        let d = Shared_buffer.read t.shared ~off:c.off ~len:(c.len_a + c.len_b) in
        ( Syscall.Write { fd; data = Bytes.sub d 0 c.len_a },
          Syscall.Write { fd; data = Bytes.sub d c.len_a c.len_b } )
  in
  let d_a = gate_verdict t req_a in
  let d_b = gate_verdict t req_b in
  match (d_a, d_b) with
  | Ksyscall.Systable.Gate_allow, Ksyscall.Systable.Gate_allow -> (
      let perf = Ksim.Kernel.perf (Ksyscall.Systable.kernel t.sys) in
      let name =
        match c.kind with
        | Cosy_plan.G_read -> "bulk.read"
        | Cosy_plan.G_pread -> "bulk.pread"
        | Cosy_plan.G_write -> "bulk.write"
      in
      let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name in
      let len = c.len_a + c.len_b in
      let bulk =
        match c.kind with
        | Cosy_plan.G_read -> Syscall.Read { fd; len }
        | Cosy_plan.G_pread -> Syscall.Pread { fd; off = c.foff; len }
        | Cosy_plan.G_write ->
            let data = Shared_buffer.read t.shared ~off:c.off ~len in
            Syscall.Write { fd; data }
      in
      let reply = Ksyscall.Usyscall.service t.sys bulk in
      Kperf.span_end perf ~pid:0 ~arg:0 span;
      (* sequential-position semantics split the merged transfer exactly
         where the pair's two would, and a read's payload lands
         contiguously from [off] *)
      let split n =
        let r_a = min c.len_a n in
        slots.(c.dst_a) <- r_a;
        slots.(c.dst_b) <- n - r_a
      in
      match reply with
      | Ok (Syscall.R_bytes data) ->
          Shared_buffer.write t.shared ~off:c.off data;
          split (Bytes.length data)
      | Ok (Syscall.R_int w) -> split w
      | Ok _ -> raise (Exec_error "unexpected bulk reply")
      | Error _ ->
          let rv = Syscall.reply_to_retval reply in
          slots.(c.dst_a) <- rv;
          slots.(c.dst_b) <- rv)
  | _ ->
      let sink_a, sink_b =
        match c.kind with
        | Cosy_plan.G_read | Cosy_plan.G_pread ->
            (Cosy_op.Shared c.off, Cosy_op.Shared (c.off + c.len_a))
        | Cosy_plan.G_write -> (Cosy_op.Const 0, Cosy_op.Const 0)
      in
      slots.(c.dst_a) <- decided t d_a req_a sink_a;
      slots.(c.dst_b) <- decided t d_b req_b sink_b

(* A fused read->write: one splice-style dispatch charge, then the two
   ops strictly in order — the write sources the shared region after the
   read's deposit, stale suffix on a short read included. *)
let fuse t clock cost slots (f : Cosy_plan.fuse) =
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_fused_op;
  let perf = Ksim.Kernel.perf (Ksyscall.Systable.kernel t.sys) in
  let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name:"splice.rw" in
  (try
     count_op t;
     let fd_r = int_arg slots f.fd_r in
     resolve_fd t clock cost fd_r;
     let req_r = Syscall.Read { fd = fd_r; len = f.len } in
     slots.(f.dst_r) <-
       decided t (gate_verdict t req_r) req_r (Cosy_op.Shared f.off);
     count_op t;
     let fd_w = int_arg slots f.fd_w in
     resolve_fd t clock cost fd_w;
     let req_w =
       Syscall.Write
         { fd = fd_w; data = Shared_buffer.read t.shared ~off:f.off ~len:f.len }
     in
     slots.(f.dst_w) <- decided t (gate_verdict t req_w) req_w (Cosy_op.Const 0)
   with e ->
     Kperf.span_end perf ~pid:0 ~arg:0 span;
     raise e);
  Kperf.span_end perf ~pid:0 ~arg:0 span

(* --- the op loop ------------------------------------------------------ *)

(* A loop back-edge: the preemption checkpoint, and the watchdog unless
   admission proved the compound's loops bounded. *)
let backedge t kernel ~admitted =
  t.backedges <- t.backedges + 1;
  Kstats.incr t.kstats t.st_backedges;
  Ksim.Scheduler.checkpoint (Ksim.Kernel.sched kernel);
  if not admitted then Cosy_safety.watchdog_check t.safety

(* The compound's kernel stay, between the trap and the return: arm the
   watchdog, admit, then run.  One loop runs every admission outcome;
   only the per-op charge, the watchdog on back-edges and, under a plan,
   the rewritten positions differ.  Returns the final register file. *)
let execute t sys compound =
  let kernel = Ksyscall.Systable.kernel sys in
  let cost = Ksim.Kernel.cost kernel in
  let clock = Ksim.Kernel.clock kernel in
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.cosy_submit;
  Cosy_safety.arm t.safety;
  (* admission: judge the compound before running a single op, inside
     the kernel stay with the watchdog armed.  The hook charges its own
     costs; anything it does not admit (including every compound when no
     hook is installed) takes the dynamic path. *)
  let admission =
    match t.admit with None -> Dynamic | Some admit -> admit compound
  in
  let admitted =
    match admission with
    | Dynamic -> false
    | Verified | Compiled _ ->
        t.watchdog_elisions <- t.watchdog_elisions + 1;
        true
  in
  let ops, slot_count =
    match admission with
    | Compiled p ->
        (* a plan skips the decode; each proven counted loop's
           per-iteration checks run once, up front *)
        if p.Cosy_plan.n_loops > 0 then
          Ksim.Sim_clock.advance clock
            (p.Cosy_plan.n_loops * cost.Ksim.Cost_model.kopt_loop_hoist);
        t.fd_cache <- [];
        (p.Cosy_plan.ops, p.Cosy_plan.slot_count)
    | Dynamic | Verified ->
        Compound.decode ~clock ~per_op:cost.Ksim.Cost_model.cosy_decode_op
          compound
  in
  let slots = Array.make slot_count 0 in
  (* the per-op charge: the interpreter's full or verified rate, or the
     kopt rate under a plan — the hoisted rate for a non-syscall op
     inside a proven counted loop *)
  let op_rate =
    match admission with
    | Dynamic -> cost.Ksim.Cost_model.cosy_exec_op
    | Verified -> cost.Ksim.Cost_model.cosy_exec_op_verified
    | Compiled _ -> cost.Ksim.Cost_model.kopt_exec_op
  in
  let pc = ref 0 in
  let running = ref true in
  while !running && !pc < Array.length ops do
    let cur = !pc in
    let rewrite =
      match admission with
      | Compiled p -> p.Cosy_plan.rewrites.(cur)
      | Dynamic | Verified -> Cosy_plan.Keep
    in
    match rewrite with
    | Cosy_plan.Coalesce c ->
        coalesce t clock cost slots c;
        pc := cur + 2
    | Cosy_plan.Fuse f ->
        fuse t clock cost slots f;
        pc := cur + 2
    | Cosy_plan.Skip -> raise (Exec_error "jump into a merged pair")
    | Cosy_plan.Keep | Cosy_plan.Cache_fd | Cosy_plan.Cache_close -> (
        let op = ops.(cur) in
        count_op t;
        Ksim.Sim_clock.advance clock
          (match (admission, op) with
          | ( Compiled p,
              Cosy_op.(Set _ | Arith _ | Jmp _ | Jz _ | Call_user _ | Halt) )
            when p.Cosy_plan.hoisted.(cur) ->
              cost.Ksim.Cost_model.kopt_exec_op_hoisted
          | _ -> op_rate);
        match op with
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
            (match (rewrite, args) with
            | (Cosy_plan.Cache_fd | Cosy_plan.Cache_close), fd :: _ ->
                (* resolved before the syscall's span opens *)
                let fd = int_arg slots fd in
                resolve_fd t clock cost fd;
                slots.(dst) <- do_syscall t slots sysno args;
                (match rewrite with
                | Cosy_plan.Cache_close ->
                    t.fd_cache <- List.filter (fun f -> f <> fd) t.fd_cache
                | _ -> ())
            | _ -> slots.(dst) <- do_syscall t slots sysno args);
            incr pc
        | Cosy_op.Jmp target ->
            if target <= cur then backedge t kernel ~admitted;
            pc := target
        | Cosy_op.Jz { cond; target } ->
            if int_arg slots cond = 0 then begin
              if target <= cur then backedge t kernel ~admitted;
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
  let span = Kperf.span_begin perf ~pid ~arg:0 ~cat:"cosy" ~name:"submit" in
  let slots =
    Ksyscall.Usyscall.stay t.sys Ksyscall.Usyscall.Compound ~span (execute t)
      compound
  in
  Kstats.observe t.kstats t.st_compound_ops (t.ops_executed - ops_before);
  Kperf.span_end perf ~pid ~arg:(t.ops_executed - ops_before) span;
  slots

type stats = {
  submits : int;
  ops_executed : int;
  backedges : int;
  user_calls : int;
  watchdog_kills : int;
  segment_loads : int;
  fd_resolved : int;
  fd_reused : int;
}

let stats (t : t) =
  {
    submits = t.submits;
    ops_executed = t.ops_executed;
    backedges = t.backedges;
    user_calls = t.user_calls;
    watchdog_kills = Cosy_safety.watchdog_kills t.safety;
    segment_loads = Cosy_safety.segment_loads t.safety;
    fd_resolved = t.fd_resolved;
    fd_reused = t.fd_reused;
  }
