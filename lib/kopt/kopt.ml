(* The kopt facade: optimizing admitted programs.

   One [t] per kernel sits between kverify's admission and execution.
   When a Cosy compound is submitted, kopt probes the per-process
   compiled-program cache (keyed by a structural hash of the compound's
   wire bytes); on a miss it runs kverify admission itself — identical
   charges — and, if the compound verifies, compiles it with {!Plan}
   and caches the result.  The returned thunk executes the specialized
   program: fd operands resolve once per distinct descriptor, adjacent
   contiguous transfers run as single bulk copies, read→write pairs
   dispatch splice-style, and ops inside proven counted loops run at the
   hoisted per-op rate.  Results are observably identical to the
   interpreter — same slot values, shared-buffer contents, errno
   sequence, and fd-table end state — only the cycle/copy accounting
   improves.

   For kring batches, {!ring_plan} admits via kverify and plans fused
   recv→send pairs plus completion-region coalescing (the CQ lives in
   the same shared mapping as the SQ, so the batch-end reply copy-out is
   pure accounting and can be elided). *)

module Plan = Plan
module Kernel = Ksim.Kernel
module Systable = Ksyscall.Systable
module Syscall = Ksyscall.Syscall
module Usyscall = Ksyscall.Usyscall
module Op = Cosy.Cosy_op
module Sbuf = Cosy.Shared_buffer
module Cx = Cosy.Cosy_exec

type t = {
  kernel : Kernel.t;
  sys : Systable.t;
  kv : Kverify.t;
  cache_capacity : int;
  cache : (int * string, Plan.t) Hashtbl.t;  (* (pid, digest) -> plan *)
  order : (int * string) Queue.t;            (* FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  mutable fd_resolved : int;
  mutable fd_reused : int;
  kstats : Kstats.t;
  s_hits : Kstats.counter;
  s_misses : Kstats.counter;
  s_compiles : Kstats.counter;
  s_invalidations : Kstats.counter;
  fault : Kfault.t;
  site_invalidate : Kfault.site;
}

let create ?(cache_capacity = 64) kv sys =
  if cache_capacity <= 0 then
    invalid_arg "Kopt.create: cache_capacity must be positive";
  let kernel = Systable.kernel sys in
  let kstats = Kernel.stats kernel in
  {
    kernel;
    sys;
    kv;
    cache_capacity;
    cache = Hashtbl.create 16;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    compiles = 0;
    fd_resolved = 0;
    fd_reused = 0;
    kstats;
    s_hits = Kstats.counter kstats "kopt.cache.hits";
    s_misses = Kstats.counter kstats "kopt.cache.misses";
    s_compiles = Kstats.counter kstats "kopt.cache.compiles";
    s_invalidations = Kstats.counter kstats "kopt.cache.invalidations";
    fault = Kernel.fault kernel;
    site_invalidate = Kfault.register (Kernel.fault kernel) "kopt.cache_invalidate";
  }

let hits t = t.hits
let misses t = t.misses
let compiles t = t.compiles
let fd_resolved t = t.fd_resolved
let fd_reused t = t.fd_reused
let cache_size t = Hashtbl.length t.cache

(* --- compile + per-process cache ---------------------------------------- *)

let try_plan t ~shared_size compound =
  let cost = Kernel.cost t.kernel in
  let clock = Kernel.clock t.kernel in
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_cache_probe;
  let pid = (Kernel.current t.kernel).Ksim.Kproc.pid in
  let key = (pid, Digest.string (Bytes.to_string compound.Cosy.Compound.buf)) in
  (* injected cache invalidation: the entry is dropped at the moment of
     the probe (as if the process's cache had been flushed), turning the
     hit into a miss — the compound recompiles, observably identical *)
  let probe = Hashtbl.find_opt t.cache key in
  let probe =
    match probe with
    | Some _ when Kfault.fire t.fault t.site_invalidate ->
        Hashtbl.remove t.cache key;
        Kstats.incr t.kstats t.s_invalidations;
        None
    | p -> p
  in
  match probe with
  | Some plan ->
      t.hits <- t.hits + 1;
      Kstats.incr t.kstats t.s_hits;
      Some plan
  | None -> (
      t.misses <- t.misses + 1;
      Kstats.incr t.kstats t.s_misses;
      (* admission runs here, with exactly the charges the plain
         verifier path would have paid *)
      match Kverify.compound_verdict t.kv ~shared_size compound with
      | Kverify.Checker.Rejected _ -> None
      | Kverify.Checker.Verified { ops = nops; loops } ->
          let perf = Kernel.perf t.kernel in
          let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name:"compile" in
          Ksim.Sim_clock.advance clock
            (nops * cost.Ksim.Cost_model.kopt_compile_op);
          (* the checker just decoded this compound; re-decoding here is
             covered by the per-op compile charge *)
          let ops, slot_count = Cosy.Compound.decode compound in
          let plan = Plan.compile ~shared_size ~loops ops ~slot_count in
          Kperf.span_end perf ~pid:0 ~arg:0 span;
          t.compiles <- t.compiles + 1;
          Kstats.incr t.kstats t.s_compiles;
          if Hashtbl.length t.cache >= t.cache_capacity then
            (match Queue.take_opt t.order with
            | Some old -> Hashtbl.remove t.cache old
            | None -> ());
          Hashtbl.replace t.cache key plan;
          Queue.add key t.order;
          Some plan)

(* --- the plan executor -------------------------------------------------- *)

(* Execute one original op of a pair whose group could not dispatch
   merged (a non-allow gate verdict), acting on the verdict already taken
   for it — the consult order matches the interpreter's. *)
let dispatch_decided t shared slots ~verdict ~req ~sink dst =
  let reply = Usyscall.apply_verdict t.sys verdict req in
  (match (reply, sink) with
  | Ok (Syscall.R_bytes data), Some o -> Sbuf.write shared ~off:o data
  | _ -> ());
  slots.(dst) <- Syscall.reply_to_retval reply

(* First operand is a file descriptor: eligible for resolution caching. *)
let fd_first = function
  | "close" | "read" | "write" | "pread" | "pwrite" | "lseek" | "fstat"
  | "fsync" ->
      true
  | _ -> false

let run_plan t cx (plan : Plan.t) =
  let kernel = t.kernel in
  let cost = Kernel.cost kernel in
  let clock = Kernel.clock kernel in
  let perf = Kernel.perf kernel in
  let shared = Cx.shared cx in
  let adv n = Ksim.Sim_clock.advance clock n in
  (* loop-invariant hoisting: the per-iteration decode/bounds checks of
     each proven counted loop run once, up front *)
  if plan.Plan.n_loops > 0 then
    adv (plan.Plan.n_loops * cost.Ksim.Cost_model.kopt_loop_hoist);
  let slots = Array.make plan.Plan.slot_count 0 in
  (* fd-resolution cache: each distinct descriptor value is resolved
     (and charged) once per execution; close evicts, so a reused fd
     number re-resolves *)
  let resolved : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let resolve_fd fdv =
    if Hashtbl.mem resolved fdv then begin
      t.fd_reused <- t.fd_reused + 1
    end
    else begin
      adv cost.Ksim.Cost_model.kopt_fd_resolve;
      t.fd_resolved <- t.fd_resolved + 1;
      Hashtbl.replace resolved fdv ()
    end
  in
  let ops_run = ref 0 in
  let backedges = ref 0 in
  let backedge () =
    incr backedges;
    (* admitted plans elide the watchdog (loops proven bounded), but
       the preemption checkpoint still runs, like the verified path *)
    Ksim.Scheduler.checkpoint (Kernel.sched kernel)
  in
  let pc = ref 0 in
  let running = ref true in
  let n = Array.length plan.Plan.instrs in
  while !running && !pc < n do
    let cur = !pc in
    match plan.Plan.instrs.(cur) with
    | Plan.I_skip -> raise (Cx.Exec_error "kopt: jump into merged pair")
    | Plan.I_op op -> (
        incr ops_run;
        let base =
          if plan.Plan.hoisted.(cur) then
            cost.Ksim.Cost_model.kopt_exec_op_hoisted
          else cost.Ksim.Cost_model.kopt_exec_op
        in
        match op with
        | Op.Set { dst; src } ->
            adv base;
            slots.(dst) <- Cx.int_arg slots src;
            incr pc
        | Op.Arith { dst; op; a; b } ->
            adv base;
            let va = Cx.int_arg slots a and vb = Cx.int_arg slots b in
            let v =
              match op with
              | Op.Aadd -> va + vb
              | Op.Asub -> va - vb
              | Op.Amul -> va * vb
              | Op.Adiv ->
                  if vb = 0 then raise (Cx.Exec_error "division by zero")
                  else va / vb
              | Op.Amod ->
                  if vb = 0 then raise (Cx.Exec_error "modulo by zero")
                  else va mod vb
              | Op.Aeq -> if va = vb then 1 else 0
              | Op.Ane -> if va <> vb then 1 else 0
              | Op.Alt -> if va < vb then 1 else 0
              | Op.Ale -> if va <= vb then 1 else 0
              | Op.Agt -> if va > vb then 1 else 0
              | Op.Age -> if va >= vb then 1 else 0
            in
            slots.(dst) <- v;
            incr pc
        | Op.Syscall { dst; sysno; args } ->
            adv cost.Ksim.Cost_model.kopt_exec_op;
            let name = Option.value ~default:"?" (Op.name_of_sysno sysno) in
            let fdv =
              if fd_first name then
                match args with
                | fd :: _ ->
                    let v = Cx.int_arg slots fd in
                    resolve_fd v;
                    Some v
                | [] -> None
              else None
            in
            slots.(dst) <- Cx.exec_syscall cx slots sysno args;
            (match (name, fdv) with
            | "close", Some v -> Hashtbl.remove resolved v
            | _ -> ());
            incr pc
        | Op.Jmp target ->
            adv base;
            if target <= cur then backedge ();
            pc := target
        | Op.Jz { cond; target } ->
            adv base;
            if Cx.int_arg slots cond = 0 then begin
              if target <= cur then backedge ();
              pc := target
            end
            else incr pc
        | Op.Call_user _ ->
            (* the checker rejects these at admission *)
            raise (Cx.Exec_error "kopt: user call in admitted plan")
        | Op.Halt ->
            adv base;
            running := false)
    | Plan.I_coalesce { kind; dst_a; dst_b; fd; off; len_a; len_b; foff } ->
        ops_run := !ops_run + 2;
        adv cost.Ksim.Cost_model.kopt_exec_op;
        let fdv = Cx.int_arg slots fd in
        resolve_fd fdv;
        let req_a, req_b =
          match kind with
          | Plan.G_read ->
              ( Syscall.Read { fd = fdv; len = len_a },
                Syscall.Read { fd = fdv; len = len_b } )
          | Plan.G_pread ->
              ( Syscall.Pread { fd = fdv; off = foff; len = len_a },
                Syscall.Pread { fd = fdv; off = foff + len_a; len = len_b } )
          | Plan.G_write ->
              let d = Sbuf.read shared ~off ~len:(len_a + len_b) in
              ( Syscall.Write { fd = fdv; data = Bytes.sub d 0 len_a },
                Syscall.Write { fd = fdv; data = Bytes.sub d len_a len_b } )
        in
        (* gate parity: one consult per original op, in original order —
           [Usyscall.verdict] charges the gate's probe cost, so this keeps
           cycle and automaton-state parity with the interpreter even
           though the pair may dispatch merged *)
        let d_a = Usyscall.verdict t.sys (Syscall.sysno_of_req req_a) in
        let d_b = Usyscall.verdict t.sys (Syscall.sysno_of_req req_b) in
        (match (d_a, d_b) with
        | Systable.Gate_allow, Systable.Gate_allow -> (
            let name =
              match kind with
              | Plan.G_read -> "bulk.read"
              | Plan.G_pread -> "bulk.pread"
              | Plan.G_write -> "bulk.write"
            in
            let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name in
            let len = len_a + len_b in
            let bulk =
              match kind with
              | Plan.G_read -> Syscall.Read { fd = fdv; len }
              | Plan.G_pread -> Syscall.Pread { fd = fdv; off = foff; len }
              | Plan.G_write ->
                  Syscall.Write { fd = fdv; data = Sbuf.read shared ~off ~len }
            in
            let reply = Usyscall.service t.sys bulk in
            Kperf.span_end perf ~pid:0 ~arg:0 span;
            (* sequential-position semantics split the merged transfer
               exactly where the pair's two would, and a read's payload
               lands contiguously from [off] *)
            let split n =
              let r_a = min len_a n in
              slots.(dst_a) <- r_a;
              slots.(dst_b) <- n - r_a
            in
            match reply with
            | Ok (Syscall.R_bytes data) ->
                Sbuf.write shared ~off data;
                split (Bytes.length data)
            | Ok (Syscall.R_int w) -> split w
            | Ok _ -> raise (Cx.Exec_error "kopt: unexpected bulk reply")
            | Error _ ->
                let rv = Syscall.reply_to_retval reply in
                slots.(dst_a) <- rv;
                slots.(dst_b) <- rv)
        | _ ->
            (* a non-allow verdict in the group: execute the original
               ops one by one with the verdicts already taken *)
            let sink_a, sink_b =
              match kind with
              | Plan.G_read | Plan.G_pread -> (Some off, Some (off + len_a))
              | Plan.G_write -> (None, None)
            in
            dispatch_decided t shared slots ~verdict:d_a ~req:req_a
              ~sink:sink_a dst_a;
            dispatch_decided t shared slots ~verdict:d_b ~req:req_b
              ~sink:sink_b dst_b);
        pc := cur + 2
    | Plan.I_fuse { dst_r; dst_w; fd_r; fd_w; off; len } ->
        ops_run := !ops_run + 2;
        adv cost.Ksim.Cost_model.kopt_fused_op;
        let span = Kperf.span_begin perf ~pid:0 ~arg:0 ~cat:"kopt" ~name:"splice.rw" in
        (try
           let fdrv = Cx.int_arg slots fd_r in
           resolve_fd fdrv;
           let req_r = Syscall.Read { fd = fdrv; len } in
           dispatch_decided t shared slots
             ~verdict:(Usyscall.verdict t.sys (Syscall.sysno_of_req req_r))
             ~req:req_r ~sink:(Some off) dst_r;
           let fdwv = Cx.int_arg slots fd_w in
           resolve_fd fdwv;
           (* the write sources the shared region after the read's
              deposit — including any stale suffix on a short read,
              exactly like the sequential pair *)
           let req_w =
             Syscall.Write { fd = fdwv; data = Sbuf.read shared ~off ~len }
           in
           dispatch_decided t shared slots
             ~verdict:(Usyscall.verdict t.sys (Syscall.sysno_of_req req_w))
             ~req:req_w ~sink:None dst_w
         with e ->
           Kperf.span_end perf ~pid:0 ~arg:0 span;
           raise e);
        Kperf.span_end perf ~pid:0 ~arg:0 span;
        pc := cur + 2
  done;
  (slots, !ops_run, !backedges)

(* --- admission hooks ----------------------------------------------------- *)

let admit_compound t cx =
  let shared_size = Sbuf.size (Cx.shared cx) in
  fun compound ->
    match try_plan t ~shared_size compound with
    | None -> Cx.Dynamic
    | Some plan -> Cx.Compiled (fun () -> run_plan t cx plan)

let ring_plan t reqs =
  match Kverify.admit_ring t.kv reqs with
  | None -> None
  | Some _ ->
      let arr = Array.of_list reqs in
      let n = Array.length arr in
      let fuse = Array.make n false in
      let i = ref 0 in
      while !i < n - 1 do
        match (arr.(!i), arr.(!i + 1)) with
        | Syscall.Recv { sock = s1; _ }, Syscall.Send { sock = s2; _ }
          when s1 = s2 ->
            fuse.(!i) <- true;
            i := !i + 2
        | _ -> incr i
      done;
      Some { Kring.fuse_next = fuse; coalesce_cq = true }
