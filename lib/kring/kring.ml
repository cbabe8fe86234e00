(* io_uring-style batched syscall submission (after AnyCall, and the
   modern endpoint of the paper's §2 amortization argument).

   User code encodes typed [Syscall.req]s where their entries lie in a
   submission queue backed by the Cosy shared buffer (no crossing, no
   intermediate buffer), then one
   [sys_ring_enter]-style trap drains the whole queue in kernel mode
   through the same service routines ordinary syscalls use — under the
   Cosy preemption watchdog, since arbitrary batch lengths keep the CPU
   in the kernel just like a compound.  Replies accumulate in the
   completion queue and are reaped from user mode without a crossing.

   Cost shape per batch of N: 1 crossing (plus the one-time ring setup),
   one copy-in of the packed requests, one copy-out of the packed
   replies — versus N crossings and N copy round-trips synchronously. *)

module Syscall = Ksyscall.Syscall
module Sysno = Ksyscall.Sysno

type completion = {
  seq : int;                  (* submission order, ring-wide *)
  sysno : Sysno.t;
  reply : Syscall.reply;
}

(* What admission decides about an accepted batch.  The empty plan
   (no fused pairs, no coalescing) is plain verified admission.
   [fuse_next.(i)] marks batch position [i] as the first half of a
   splice-style pair (recv→send on one socket): both entries drain
   under a single [kopt_fused_op] dispatch charge instead of two
   [ring_verified_op]s.  [coalesce_cq] treats the completion region as
   shared-mapped (it lives in the same zero-copy buffer as the SQ), so
   the batch-end reply copy-out is elided; the saved bytes land in
   [ring.opt.cq_bytes_saved] instead of the copy counters. *)
type plan = {
  fuse_next : bool array;
  coalesce_cq : bool;
}

type t = {
  sys : Ksyscall.Systable.t;
  shared : Cosy.Shared_buffer.t;      (* SQ backing store *)
  safety : Cosy.Cosy_safety.t;
  sq_entries : int;
  cq_entries : int;
  sq : (int * int * int) Queue.t;     (* seq, shared offset, wire len *)
  cq : completion Queue.t;
  mutable sq_bytes : int;             (* bump pointer into [shared] *)
  mutable next_seq : int;
  (* the admission stage: when set, each batch's requests are decoded
     once and judged before execution; [Some plan] drains those very
     requests on the cheap in-place path (no per-entry copy_from_user,
     no second decode, no watchdog).  [None] (the default) is today's
     path, bit-for-bit. *)
  mutable admit : (Syscall.req list -> plan option) option;
  mutable watchdog_elisions : int;
  mutable opt_fused : int;
  mutable opt_cq_saved : int;
  kstats : Kstats.t;
  st_submits : Kstats.counter;
  st_enters : Kstats.counter;
  st_completions : Kstats.counter;
  st_sq_full : Kstats.counter;
  st_crossings_saved : Kstats.counter;
  st_opt_fused : Kstats.counter;
  st_opt_cq_saved : Kstats.counter;
  st_partial : Kstats.counter;
  st_batch : Kstats.hist;
  fault : Kfault.t;
  site_partial : Kfault.site;
}

let create ?(sq_entries = 64) ?cq_entries ?(shared_size = 65536) ?policy sys =
  if sq_entries <= 0 then invalid_arg "Kring.create: sq_entries must be positive";
  let kernel = Ksyscall.Systable.kernel sys in
  let cost = Ksim.Kernel.cost kernel in
  let policy =
    match policy with
    | Some p -> p
    | None -> Cosy.Cosy_safety.default_policy cost
  in
  let kstats = Ksim.Kernel.stats kernel in
  let t =
    {
      sys;
      shared = Cosy.Shared_buffer.create ~stats:kstats shared_size;
      safety =
        Cosy.Cosy_safety.create ~fault:(Ksim.Kernel.fault kernel) ~policy
          ~clock:(Ksim.Kernel.clock kernel) ~cost ();
      sq_entries;
      cq_entries = (match cq_entries with Some n -> n | None -> 2 * sq_entries);
      sq = Queue.create ();
      cq = Queue.create ();
      sq_bytes = 0;
      next_seq = 0;
      admit = None;
      watchdog_elisions = 0;
      opt_fused = 0;
      opt_cq_saved = 0;
      kstats;
      st_submits = Kstats.counter kstats "ring.submits";
      st_enters = Kstats.counter kstats "ring.enters";
      st_completions = Kstats.counter kstats "ring.completions";
      st_sq_full = Kstats.counter kstats "ring.sq_full";
      st_crossings_saved = Kstats.counter kstats "ring.crossings_saved";
      st_opt_fused = Kstats.counter kstats "ring.opt.fused_pairs";
      st_opt_cq_saved = Kstats.counter kstats "ring.opt.cq_bytes_saved";
      st_partial = Kstats.counter kstats "ring.partial";
      st_batch = Kstats.histogram kstats "ring.batch.size";
      fault = Ksim.Kernel.fault kernel;
      site_partial = Kfault.register (Ksim.Kernel.fault kernel) "ring.partial_enter";
    }
  in
  (* sys_ring_setup: mapping the rings is one ordinary syscall, the
     last per-call crossing this ring's user will pay. *)
  Ksim.Kernel.charge_user kernel cost.Ksim.Cost_model.user_stub;
  Ksim.Kernel.enter_kernel kernel;
  Ksim.Kernel.charge_kernel kernel cost.Ksim.Cost_model.cosy_submit;
  Ksim.Kernel.exit_kernel kernel;
  t

let sq_depth t = Queue.length t.sq
let cq_depth t = Queue.length t.cq

(* Crash containment: drop everything still queued in the submission and
   completion rings — a dying process's in-flight batch state.  Returns
   how many entries were discarded.  Host-level bookkeeping only: no
   cycles, no kstats. *)
let discard_pending t =
  let n = Queue.length t.sq + Queue.length t.cq in
  Queue.clear t.sq;
  Queue.clear t.cq;
  t.sq_bytes <- 0;
  n
let sq_entries t = t.sq_entries
let cq_entries t = t.cq_entries
let shared t = t.shared
let set_admission t a = t.admit <- a
let watchdog_elisions t = t.watchdog_elisions
let fused_pairs t = t.opt_fused
let cq_bytes_saved t = t.opt_cq_saved

(* Queue one request (user mode, no crossing): encode it where its
   entry lies in the shared region and append an SQ entry.  Backpressure
   when either the entry cap or the backing store is exhausted — the
   caller should [enter] (and [reap]) and retry. *)
let push t req =
  if Queue.length t.sq >= t.sq_entries then begin
    Kstats.incr t.kstats t.st_sq_full;
    Error `Sq_full
  end
  else
    let len = Syscall.req_wire_size req in
    if t.sq_bytes + len > Cosy.Shared_buffer.size t.shared then begin
      Kstats.incr t.kstats t.st_sq_full;
      Error `Sq_full
    end
    else begin
      let off = t.sq_bytes in
      Cosy.Shared_buffer.note_written t.shared ~off ~len;
      ignore
        (Syscall.encode_req_into (Cosy.Shared_buffer.data t.shared) ~pos:off req);
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Queue.add (seq, off, len) t.sq;
      t.sq_bytes <- t.sq_bytes + len;
      Kstats.incr t.kstats t.st_submits;
      Ok seq
    end

(* Parse the SQ entry at [off, off+len) where it lies in the shared
   region, counted as a read of those bytes. *)
let decode_entry t ~off ~len =
  Cosy.Shared_buffer.note_read t.shared ~off ~len;
  fst (Syscall.decode_req (Cosy.Shared_buffer.data t.shared) ~off)

(* The batch's kernel stay, between the trap and the return.  Each
   entry is decoded (charged like a compound op), its request bytes
   charged as the batch's one copy-in, and dispatched through the
   in-kernel service path — so every op still counts, traces, and lands
   in the latency histograms.  Replies are packed into the CQ; their
   payload bytes are charged as one copy-out at the end.  [completed]
   counts the completions as they land. *)
let drain t sys completed =
  let kernel = Ksyscall.Systable.kernel sys in
  let cost = Ksim.Kernel.cost kernel in
  let clock = Ksim.Kernel.clock kernel in
  let perf = Ksim.Kernel.perf kernel in
  let pid = (Ksim.Kernel.current kernel).Ksim.Kproc.pid in
  Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.cosy_submit;
  Cosy.Cosy_safety.arm t.safety;
  (* admission: judge the queued requests before the first one
     executes.  The hook charges its own per-entry admission cost; an
     admitted batch drains parse-in-place from the sealed SQ region —
     no per-entry copy_from_user, the cheap [ring_verified_op] instead
     of a decode, and the watchdog elided (a straight-line batch of
     validated requests cannot run away) — plus whatever fusion and
     coalescing its plan asks for.  An admitted batch dispatches the
     very requests admission decoded and judged, so it decodes once,
     and bytes rewritten in the shared region after the check cannot
     change what runs.  Any batch the hook rejects — or that fails to
     decode at admission — falls back to today's watchdog path
     bit-for-bit, decoding each entry as it dispatches. *)
  let batch_plan, admitted =
    match t.admit with
    | None -> (None, [])
    | Some admit -> (
        match
          Queue.fold
            (fun acc (_, off, len) -> decode_entry t ~off ~len :: acc)
            [] t.sq
        with
        | rev_reqs -> (
            let reqs = List.rev rev_reqs in
            match admit reqs with
            | Some _ as plan -> (plan, reqs)
            | None -> (None, []))
        | exception _ -> (None, []))
  in
  let admitted = ref admitted in
  let verified = Option.is_some batch_plan in
  if verified then t.watchdog_elisions <- t.watchdog_elisions + 1;
  Kstats.incr t.kstats t.st_enters;
  let out_bytes = ref 0 in
  let pos = ref 0 in
  (* dispatch + complete one SQ entry, sans per-entry cost charges (the
     caller picked plain vs fused pricing).  The entry is read in place
     either way: parsed here, or taken as admission parsed it. *)
  let dispatch_one () =
    let seq, off, len = Queue.peek t.sq in
    let req =
      match !admitted with
      | req :: rest ->
          admitted := rest;
          Cosy.Shared_buffer.note_read t.shared ~off ~len;
          req
      | [] -> decode_entry t ~off ~len
    in
    let reply = Ksyscall.Usyscall.invoke_drained sys req in
    ignore (Queue.pop t.sq);
    Queue.add { seq; sysno = Syscall.sysno_of_req req; reply } t.cq;
    out_bytes := !out_bytes + Syscall.reply_copy_bytes reply;
    incr completed;
    incr pos;
    Kstats.incr t.kstats t.st_completions;
    (* between ops the preemptive kernel gets its chance, exactly
       like a compound's back-edge *)
    Ksim.Scheduler.checkpoint (Ksim.Kernel.sched kernel)
  in
  (* Any way a batch stops before draining its SQ — a kill (watchdog,
     flow gate), a memory fault, or an injected partial completion —
     counts in ring.partial and leaves a kperf instant whose arg names
     the index of the first op that did not complete. *)
  let note_partial () =
    Kstats.incr t.kstats t.st_partial;
    Kperf.instant perf ~pid ~arg:!pos ~cat:"ring" ~name:"partial"
  in
  let stop_partial = ref false in
  (try
     while
       (not !stop_partial)
       && (not (Queue.is_empty t.sq))
       && Queue.length t.cq < t.cq_entries
     do
       (* injected partial enter: the kernel stay is cut short after
          at least one completion (a zero-progress cut would make the
          caller's drain loop spin); the epilogue below runs normally
          and the SQ remainder survives for the next enter *)
       if !completed > 0 && Kfault.fire t.fault t.site_partial then begin
         note_partial ();
         stop_partial := true
       end
       else begin
         let fused =
           match batch_plan with
           | Some p ->
               !pos < Array.length p.fuse_next
               && p.fuse_next.(!pos)
               && Queue.length t.sq >= 2
               && t.cq_entries - Queue.length t.cq >= 2
           | None -> false
         in
         if fused then begin
           (* splice-style pair: one dispatch charge covers both halves *)
           Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.kopt_fused_op;
           t.opt_fused <- t.opt_fused + 1;
           Kstats.incr t.kstats t.st_opt_fused;
           dispatch_one ();
           dispatch_one ()
         end
         else begin
           let _, _, len = Queue.peek t.sq in
           if verified then
             Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.ring_verified_op
           else begin
             Ksim.Sim_clock.advance clock cost.Ksim.Cost_model.cosy_decode_op;
             (* the batch's copy-in, charged per entry as the kernel pulls
                it; the verified path reads the pre-validated shared region
                in place instead *)
             Ksim.Kernel.charge_copy_from_user kernel len
           end;
           dispatch_one ();
           if not verified then Cosy.Cosy_safety.watchdog_check t.safety
         end
       end
     done
   with
   | ( Ksim.Kernel.Watchdog_expired _ | Ksyscall.Usyscall.Flow_violation _
     | Ksim.Fault.Fault _ ) as e ->
       (* same fate as a runaway compound (§2.3): the stay's unwind kills
          the offender; completed CQ entries survive for reaping *)
       note_partial ();
       raise e);
  if Queue.is_empty t.sq then t.sq_bytes <- 0;
  match batch_plan with
  | Some p when p.coalesce_cq ->
      (* completions stay in the shared-mapped region: no copy-out, only
         accounting of what the unoptimized path would have copied *)
      if !out_bytes > 0 then begin
        t.opt_cq_saved <- t.opt_cq_saved + !out_bytes;
        Kstats.add t.kstats t.st_opt_cq_saved !out_bytes
      end
  | _ ->
      if !out_bytes > 0 then Ksim.Kernel.charge_copy_to_user kernel !out_bytes

(* sys_ring_enter: the single crossing that drains the submission
   queue, in the shared kernel stay ([Usyscall.stay]) under the Cosy
   watchdog.  A kill — watchdog expiry, flow-gate kill, contained memory
   fault — unwinds exactly like a runaway compound's, though already
   completed CQ entries survive for reaping.  Returns the number of
   completions produced. *)
let enter t =
  if Queue.is_empty t.sq then 0
  else begin
    let kernel = Ksyscall.Systable.kernel t.sys in
    let perf = Ksim.Kernel.perf kernel in
    let pid = (Ksim.Kernel.current kernel).Ksim.Kproc.pid in
    (* one span for the whole kernel stay; the per-request syscall spans
       dispatched below nest under it, which is what makes a kring batch
       legible in a flamegraph: one wide "ring:enter" frame fanning out
       into its drained syscalls *)
    let span =
      Kperf.span_begin perf ~pid ~arg:(Queue.length t.sq) ~cat:"ring"
        ~name:"enter"
    in
    Ksim.Kernel.charge_user kernel
      (Ksim.Kernel.cost kernel).Ksim.Cost_model.user_stub;
    let completed = ref 0 in
    Ksyscall.Usyscall.stay t.sys (Ksyscall.Usyscall.Ring completed) ~span
      (drain t) completed;
    Kstats.observe t.kstats t.st_batch !completed;
    Kstats.add t.kstats t.st_crossings_saved (max 0 (!completed - 1));
    Kperf.span_end perf ~pid ~arg:!completed span;
    !completed
  end

let reap t = Queue.take_opt t.cq

let reap_all t =
  let rec go acc =
    match Queue.take_opt t.cq with
    | None -> List.rev acc
    | Some c -> go (c :: acc)
  in
  go []

(* Convenience: push everything (entering whenever the SQ fills), then
   drain and reap — the batched equivalent of running [reqs] through
   the synchronous dispatcher one by one.  Completions are returned in
   submission order. *)
let run_batch t reqs =
  let acc = ref [] in
  (* loop until the SQ is drained: a partial enter (CQ filled up, or an
     injected kfault cut) leaves a remainder that the next enter picks
     up, so one logical drain may take several kernel stays *)
  let drain () =
    while sq_depth t > 0 do
      ignore (enter t);
      acc := List.rev_append (reap_all t) !acc
    done;
    acc := List.rev_append (reap_all t) !acc
  in
  (* completions land in the CQ in seq order, so [acc] holds them newest
     first *)
  List.iter
    (fun req ->
      let rec retry budget =
        match push t req with
        | Ok _ -> ()
        | Error `Sq_full when budget > 0 ->
            drain ();
            retry (budget - 1)
        | Error `Sq_full -> invalid_arg "Kring.run_batch: request never fits"
      in
      retry 2)
    reqs;
  drain ();
  List.rev !acc
