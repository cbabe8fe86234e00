(* User-level syscall dispatch and the kernel stay.  Every call is a
   typed [Syscall.req], and it reaches the kernel by one of three entry
   paths —

     Plain     the synchronous wrappers below ([invoke]; the §2.2
               consolidated calls are plain calls too): cross the
               boundary (charging entry/exit), run the in-kernel service
               routine, copy arguments and results across (charging
               per-byte costs), bump the syscall count, report a trace
               record;
     Ring      a drained kring entry ([invoke_drained]): already in
               kernel mode, no crossing or copy charges (the batch pays
               those), but the call still counts, traces and lands in the
               histograms;
     Compound  a Cosy op ([invoke_compound], or [invoke_compound_into]
               for a read landing in the shared buffer): gate verdict,
               then bare service; the compound's own bookkeeping wraps
               it.

   Interposition (kverify's syscall-flow gate) therefore happens in
   exactly one place, [verdict], whichever way a request reaches the
   kernel.  The kernel stay has one implementation too, [stay]: a plain
   call, a kring batch and a Cosy compound each occupy one, so a
   flow-gate kill, a watchdog expiry and a contained memory fault unwind
   the same way on every path.  The per-call functions at the bottom
   are thin builders over [invoke]; [sys_read_into] is the one plain
   call that passes its own service (a read landing in a caller
   buffer) to the same core.

   These are the "expensive" calls whose overhead the paper's both
   techniques — consolidation (§2.2) and Cosy (§2.3) — exist to avoid;
   the kring subsystem batches many [Syscall.req]s through a single
   crossing using the same [service] routine. *)

let path_bytes = Syscall.path_bytes

(* The in-kernel half of every syscall: map a typed request to its
   service routine.  Precondition: kernel mode.  No boundary or copy
   accounting happens here — [invoke] (one crossing per call) and
   Kring.enter (one crossing per batch) layer that on differently. *)
let ok_int = function Ok n -> Ok (Syscall.R_int n) | Error e -> Error e
let ok_unit = function Ok () -> Ok Syscall.R_unit | Error e -> Error e

let service sys (req : Syscall.req) : Syscall.reply =
  let open Syscall in
  match req with
  | Open { path; flags } -> ok_int (Sys_file.service_open sys ~path ~flags)
  | Close { fd } -> ok_unit (Sys_file.service_close sys ~fd)
  | Read { fd; len } ->
      Result.map (fun b -> R_bytes b) (Sys_file.service_read sys ~fd ~len)
  | Write { fd; data } -> ok_int (Sys_file.service_write sys ~fd ~data)
  | Pread { fd; off; len } ->
      Result.map (fun b -> R_bytes b) (Sys_file.service_pread sys ~fd ~off ~len)
  | Pwrite { fd; off; data } ->
      ok_int (Sys_file.service_pwrite sys ~fd ~off ~data)
  | Lseek { fd; off; whence } ->
      ok_int (Sys_file.service_lseek sys ~fd ~off ~whence)
  | Stat { path } ->
      Result.map (fun st -> R_stat st) (Sys_file.service_stat sys ~path)
  | Fstat { fd } ->
      Result.map (fun st -> R_stat st) (Sys_file.service_fstat sys ~fd)
  | Readdir { path } ->
      Result.map (fun es -> R_dirents es) (Sys_file.service_readdir sys ~path)
  | Mkdir { path } -> ok_int (Sys_file.service_mkdir sys ~path)
  | Unlink { path } -> ok_unit (Sys_file.service_unlink sys ~path)
  | Rename { src; dst } -> ok_unit (Sys_file.service_rename sys ~src ~dst)
  | Fsync { fd } -> ok_unit (Sys_file.service_fsync sys ~fd)
  | Getpid -> Ok (R_int (Sys_file.service_getpid sys))
  | Readdirplus { path } ->
      Result.map
        (fun es -> R_dirents_stats es)
        (Consolidated.service_readdirplus sys ~path)
  | Open_read_close { path; maxlen } ->
      Result.map
        (fun b -> R_bytes b)
        (Consolidated.service_open_read_close sys ~path ~maxlen)
  | Open_write_close { path; data; flags } ->
      ok_int (Consolidated.service_open_write_close sys ~path ~data ~flags)
  | Sendfile { fd; off; len } ->
      ok_int (Consolidated.service_sendfile sys ~fd ~off ~len)
  | Open_fstat { path; flags } ->
      Result.map
        (fun (fd, stat) -> R_fd_stat { fd; stat })
        (Consolidated.service_open_fstat sys ~path ~flags)
  | Socket -> Ok (R_int (Sys_net.service_socket sys))
  | Bind { sock; port } -> ok_unit (Sys_net.service_bind sys ~sock ~port)
  | Listen { sock; backlog } ->
      ok_unit (Sys_net.service_listen sys ~sock ~backlog)
  | Accept { sock } -> ok_int (Sys_net.service_accept sys ~sock)
  | Recv { sock; len } ->
      Result.map (fun b -> R_bytes b) (Sys_net.service_recv sys ~sock ~len)
  | Send { sock; data; off; len } ->
      ok_int (Sys_net.service_send sys ~sock ~data ~off ~len)
  | Epoll_create -> Ok (R_int (Sys_net.service_epoll_create sys))
  | Epoll_ctl { ep; sock; add; mask; cookie } ->
      ok_unit (Sys_net.service_epoll_ctl sys ~ep ~sock ~add ~mask ~cookie)
  | Epoll_wait { ep; max } ->
      Result.map
        (fun ready -> R_ready ready)
        (Sys_net.service_epoll_wait sys ~ep ~max)
  | Accept_recv { sock; len } ->
      Result.map
        (fun (fd, data) -> R_fd_bytes { fd; data })
        (Sys_net.service_accept_recv sys ~sock ~len)
  | Recv_send { sock; len; data } ->
      Result.map
        (fun (n, received) -> R_int_bytes { n; data = received })
        (Sys_net.service_recv_send sys ~sock ~len ~data)
  | Sendfile_sock { sock; fd; off; len } ->
      ok_int (Sys_net.service_sendfile_sock sys ~sock ~fd ~off ~len)

(* --- the gate ----------------------------------------------------------- *)

(* Raised when the admission gate returns [Gate_kill]: the syscall-flow
   automaton saw a forbidden transition under the Kill policy.  By the
   time it escapes the kernel stay, the offender is dead. *)
exception Flow_violation of { pid : int; sysno : Sysno.t }

let current_pid sys = (Ksim.Kernel.current (Systable.kernel sys)).Ksim.Kproc.pid

(* Consult the admission gate (if any) for the current process.
   Precondition: kernel mode, so any cycles the gate charges land as
   system time.  The [None] branch is the entire cost of a disabled
   verifier. *)
let verdict sys sysno =
  match Systable.gate sys with
  | None -> Systable.Gate_allow
  | Some g -> g ~pid:(current_pid sys) ~sysno

let flow_kill sys sysno = raise (Flow_violation { pid = current_pid sys; sysno })

(* Act on a verdict already taken for [req]: serve it, fail it with the
   gate's errno, or kill. *)
let apply_verdict sys verdict req =
  match verdict with
  | Systable.Gate_allow -> service sys req
  | Systable.Gate_deny e -> Error e
  | Systable.Gate_kill -> flow_kill sys (Syscall.sysno_of_req req)

(* A Cosy op: the compound already crossed and accounts per op itself,
   so only the gate interposes before the service routine. *)
let invoke_compound sys req =
  apply_verdict sys (verdict sys (Syscall.sysno_of_req req)) req

(* A Cosy read ([Sysno.Read], at the fd position; [off] unused) or
   pread whose bytes land in [into] at [pos] — the shared buffer — and
   not in a reply: the gate interposes exactly as in [invoke_compound],
   then the in-place service routine runs.  [Ok n] is the byte count. *)
let invoke_compound_into sys sysno ~fd ~off ~len ~into ~pos =
  match verdict sys sysno with
  | Systable.Gate_allow -> (
      match sysno with
      | Sysno.Read -> Sys_file.service_read_into sys ~fd ~len ~into ~pos
      | Sysno.Pread -> Sys_file.service_pread_into sys ~fd ~off ~len ~into ~pos
      | _ -> invalid_arg "Usyscall.invoke_compound_into: not a read")
  | Systable.Gate_deny e -> Error e
  | Systable.Gate_kill -> flow_kill sys sysno

(* --- the kernel stay ---------------------------------------------------- *)

(* Which entry path occupies a kernel stay; names the reasons its kills
   report. *)
type path =
  | Plain of Sysno.t  (* one synchronous syscall *)
  | Ring of int ref   (* a kring enter, with its completions so far *)
  | Compound          (* a Cosy submit *)

(* One [Plain] path per syscall number, built once, so a plain call's
   stay allocates no path. *)
let plain_paths =
  Array.init (List.length Sysno.all) (fun i ->
      match Sysno.of_int i with Some sysno -> Plain sysno | None -> assert false)

let plain sysno = plain_paths.(Sysno.to_int sysno)

(* The single unwind, for every way out of a stay by exception.  A kill
   — a flow-gate [Gate_kill], a watchdog expiry, or a kernel-mode memory
   fault while a reaper (kcrash) is installed — exits the kernel, reaps
   the offender (the process that entered, even if a preemption
   checkpoint rotated another onto the CPU), ends the span and
   re-raises, a contained fault as [Kernel.Oops].  Anything else exits
   the kernel, ends the span and re-raises. *)
let unwind k path ~(offender : Ksim.Kproc.t) ~span e =
  let pid = offender.Ksim.Kproc.pid in
  Ksim.Kernel.exit_kernel k;
  let reason =
    match e with
    | Flow_violation _ -> Some "flow-gate"
    | Ksim.Kernel.Watchdog_expired _ -> (
        (* plain calls arm no watchdog *)
        match path with
        | Ring _ -> Some "ring-watchdog"
        | Plain _ | Compound -> Some "cosy-watchdog")
    | Ksim.Fault.Fault _ when Ksim.Kernel.has_reaper k -> (
        match path with
        | Plain sysno -> Some ("fault in " ^ Sysno.to_string sysno)
        | Ring _ -> Some "ring-fault"
        | Compound -> Some "cosy-fault")
    | _ -> None
  in
  (match reason with
  | Some reason -> Ksim.Kernel.reap k offender ~reason
  | None -> ());
  Kperf.span_end (Ksim.Kernel.perf k) ~pid
    ~arg:(match path with Ring completed -> !completed | Plain _ | Compound -> 0)
    span;
  match e with
  | Ksim.Fault.Fault _ when reason <> None ->
      raise (Ksim.Kernel.Oops { pid; reason = "memory fault" })
  | _ -> raise e

(* One kernel stay: trap in, run [body sys x] in kernel mode, return to
   user mode.  The caller opened [span]; it closes it after its own
   post-exit bookkeeping, and [unwind] closes it on every way out by
   exception.  [body] takes its argument explicitly so that a plain
   call's stay allocates no closure. *)
let stay sys path ~span body x =
  let k = Systable.kernel sys in
  let offender = Ksim.Kernel.current k in
  Ksim.Kernel.enter_kernel k;
  match body sys x with
  | v ->
      Ksim.Kernel.exit_kernel k;
      v
  | exception e -> unwind k path ~offender ~span e

(* --- the counted dispatch core (Plain and Ring) ------------------------- *)

(* the libc stub, argument marshalling and errno handling run in user
   mode before and after the trap *)
let charge_stub k =
  Ksim.Kernel.charge_user k (Ksim.Kernel.cost k).Ksim.Cost_model.user_stub

let count_syscall k =
  let p = Ksim.Kernel.current k in
  p.Ksim.Kproc.syscalls <- p.Ksim.Kproc.syscalls + 1

(* Injected boundary faults on a plain call, consulted once the gate has
   allowed the request but before any work happens.

   EINTR restart: a signal lands during the entry path; like
   ERESTARTSYS, the kernel returns to user mode and the libc stub
   transparently re-issues the call — a full exit/enter round trip
   charged per restart (retry.eintr_restarts).  A plan hammering the
   site eventually exhausts the restart budget and the interruption
   surfaces as a clean [Error EINTR].

   Spurious EAGAIN: the wakeup raced the readiness check.  Only injected
   on [Recv]/[Accept] — the calls whose contract already includes
   would-block — so callers' existing retry loops absorb it
   (retry.eagain_injected).  It has the same budget of consecutive
   injections, after which one call goes through. *)
let rec eintr_restart sys n =
  if not (Kfault.fire (Systable.fault sys) (Systable.eintr_site sys)) then None
  else begin
    let k = Systable.kernel sys in
    Systable.count_eintr_restart sys;
    Kperf.instant (Ksim.Kernel.perf k) ~pid:(current_pid sys) ~arg:0
      ~cat:"retry" ~name:"eintr_restart";
    Ksim.Kernel.exit_kernel k;
    charge_stub k;
    Ksim.Kernel.enter_kernel k;
    count_syscall k;
    if n + 1 >= Systable.restart_budget then Some Kvfs.Vtypes.EINTR
    else eintr_restart sys (n + 1)
  end

let injected sys req =
  match eintr_restart sys 0 with
  | Some _ as eintr -> eintr
  | None -> (
      match req with
      | (Syscall.Recv _ | Syscall.Accept _) when Systable.inject_eagain sys ->
          Some Kvfs.Vtypes.EAGAIN
      | _ -> None)

(* Count, gate, serve and record one request, in kernel mode: [service]
   runs it once the gate allows it.  A plain call ([crossing]) also
   takes the injected boundary faults and pays its own copies: the
   arguments in unless the request was refused before copy-in, the
   [copy_out reply] result bytes out. *)
let serve sys ~crossing ~service ~copy_out req =
  let k = Systable.kernel sys in
  count_syscall k;
  let sysno = Syscall.sysno_of_req req in
  let refused =
    match verdict sys sysno with
    | Systable.Gate_allow -> if crossing then injected sys req else None
    | Systable.Gate_deny e -> Some e
    | Systable.Gate_kill -> flow_kill sys sysno
  in
  let reply = match refused with Some e -> Error e | None -> service sys req in
  let bin =
    if crossing && Option.is_none refused then Syscall.req_copy_bytes req else 0
  and bout = if crossing then copy_out reply else 0 in
  if bin > 0 then Ksim.Kernel.charge_copy_from_user k bin;
  if bout > 0 then Ksim.Kernel.charge_copy_to_user k bout;
  Systable.record sys ~sysno ~req ~bytes_in:bin
    ~bytes_out:bout ~ok:(Result.is_ok reply);
  reply

(* The core Plain and Ring share, for one [service] and its copy-out
   count: a kperf span around [serve], then the latency histogram.  A
   plain call wraps [serve] in its own stay, so its span covers the
   whole round trip, entry trap to exit — its self time in a flamegraph
   is exactly the boundary-crossing tax the paper's techniques exist to
   amortize.  A ring entry already runs inside its batch's stay.
   Applied to a service once, it gives a dispatcher whose calls
   allocate no closure. *)
let counted ~service ~copy_out =
  let serve_plain sys req = serve sys ~crossing:true ~service ~copy_out req in
  fun sys ~crossing req ->
    let k = Systable.kernel sys in
    let sysno = Syscall.sysno_of_req req in
    let t0 = Ksim.Kernel.now k in
    let perf = Ksim.Kernel.perf k in
    let pid = (Ksim.Kernel.current k).Ksim.Kproc.pid in
    let span =
      Kperf.span_begin perf ~pid ~arg:0 ~cat:"syscall" ~name:(Sysno.to_string sysno)
    in
    let reply =
      if crossing then begin
        charge_stub k;
        stay sys (plain sysno) ~span serve_plain req
      end
      else
        match serve sys ~crossing:false ~service ~copy_out req with
        | reply -> reply
        | exception (Flow_violation _ as e) ->
            (* the batch's stay unwinds it exactly like a watchdog expiry *)
            Kperf.span_end perf ~pid ~arg:0 span;
            raise e
    in
    Systable.observe_latency sys ~sysno ~cycles:(Ksim.Kernel.now k - t0);
    Kperf.span_end perf ~pid ~arg:0 span;
    reply

let dispatch = counted ~service ~copy_out:Syscall.reply_copy_bytes

(* Plain: one request, one round trip. *)
let invoke sys req = dispatch sys ~crossing:true req

(* Ring: one drained entry, inside its batch's stay. *)
let invoke_drained sys req = dispatch sys ~crossing:false req

(* --- reply extractors --------------------------------------------------- *)

(* The builders preserve the historical per-call result types; a shape
   mismatch would mean [service] broke its own contract. *)
let int_ok = function
  | Ok (Syscall.R_int n) -> Ok n
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_int"

let unit_ok = function
  | Ok Syscall.R_unit -> Ok ()
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_unit"

let bytes_ok = function
  | Ok (Syscall.R_bytes b) -> Ok b
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_bytes"

let stat_ok = function
  | Ok (Syscall.R_stat st) -> Ok st
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_stat"

let dirents_ok = function
  | Ok (Syscall.R_dirents es) -> Ok es
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_dirents"

let dirents_stats_ok = function
  | Ok (Syscall.R_dirents_stats es) -> Ok es
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_dirents_stats"

let fd_stat_ok = function
  | Ok (Syscall.R_fd_stat { fd; stat }) -> Ok (fd, stat)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_fd_stat"

let ready_ok = function
  | Ok (Syscall.R_ready r) -> Ok r
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_ready"

let fd_bytes_ok = function
  | Ok (Syscall.R_fd_bytes { fd; data }) -> Ok (fd, data)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_fd_bytes"

let int_bytes_ok = function
  | Ok (Syscall.R_int_bytes { n; data }) -> Ok (n, data)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_int_bytes"

(* --- thin per-call builders --------------------------------------------- *)

let sys_open sys ~path ~flags = int_ok (invoke sys (Syscall.Open { path; flags }))
let sys_close sys ~fd = unit_ok (invoke sys (Syscall.Close { fd }))
let sys_read sys ~fd ~len = bytes_ok (invoke sys (Syscall.Read { fd; len }))

(* [sys_read] whose bytes land in [into] at [pos] rather than in a fresh
   reply: the same plain call (stub, crossing, gate, injected faults,
   the bytes read copied out, a [Read { fd; len }] record and the
   latency histogram), through the same core.  [Ok n] is the byte
   count; bytes that do not fit at [pos] raise [Invalid_argument], so
   a read is never cut short silently. *)
let sys_read_into sys ~fd ~len ~into ~pos =
  let service sys _ =
    ok_int (Sys_file.service_read_into sys ~fd ~len ~into ~pos)
  and copy_out = function Ok (Syscall.R_int n) -> n | _ -> 0 in
  int_ok
    (counted ~service ~copy_out sys ~crossing:true (Syscall.Read { fd; len }))

let sys_write sys ~fd ~data = int_ok (invoke sys (Syscall.Write { fd; data }))

let sys_pread sys ~fd ~off ~len =
  bytes_ok (invoke sys (Syscall.Pread { fd; off; len }))

let sys_pwrite sys ~fd ~off ~data =
  int_ok (invoke sys (Syscall.Pwrite { fd; off; data }))

let sys_lseek sys ~fd ~off ~whence =
  int_ok (invoke sys (Syscall.Lseek { fd; off; whence }))

let sys_stat sys ~path = stat_ok (invoke sys (Syscall.Stat { path }))
let sys_fstat sys ~fd = stat_ok (invoke sys (Syscall.Fstat { fd }))
let sys_readdir sys ~path = dirents_ok (invoke sys (Syscall.Readdir { path }))
let sys_mkdir sys ~path = int_ok (invoke sys (Syscall.Mkdir { path }))
let sys_unlink sys ~path = unit_ok (invoke sys (Syscall.Unlink { path }))
let sys_rename sys ~src ~dst = unit_ok (invoke sys (Syscall.Rename { src; dst }))
let sys_fsync sys ~fd = unit_ok (invoke sys (Syscall.Fsync { fd }))

(* getpid cannot fail; routed through [invoke] like everything else so
   it shows up in the latency histograms. *)
let sys_getpid sys =
  match int_ok (invoke sys Syscall.Getpid) with
  | Ok pid -> pid
  | Error _ -> assert false

(* --- consolidated wrappers (E1/E2) ------------------------------------- *)

let sys_readdirplus sys ~path =
  dirents_stats_ok (invoke sys (Syscall.Readdirplus { path }))

let sys_open_read_close sys ~path ~maxlen =
  bytes_ok (invoke sys (Syscall.Open_read_close { path; maxlen }))

let sys_open_write_close sys ~path ~data ~flags =
  int_ok (invoke sys (Syscall.Open_write_close { path; data; flags }))

let sys_sendfile sys ~fd ~off ~len =
  int_ok (invoke sys (Syscall.Sendfile { fd; off; len }))

let sys_open_fstat sys ~path ~flags =
  fd_stat_ok (invoke sys (Syscall.Open_fstat { path; flags }))

(* --- socket wrappers (knet) --------------------------------------------- *)

let sys_socket sys =
  match int_ok (invoke sys Syscall.Socket) with
  | Ok fd -> fd
  | Error _ -> assert false

let sys_bind sys ~sock ~port = unit_ok (invoke sys (Syscall.Bind { sock; port }))

let sys_listen sys ~sock ~backlog =
  unit_ok (invoke sys (Syscall.Listen { sock; backlog }))

let sys_accept sys ~sock = int_ok (invoke sys (Syscall.Accept { sock }))
let sys_recv sys ~sock ~len = bytes_ok (invoke sys (Syscall.Recv { sock; len }))
let sys_send sys ~sock ~data ~off ~len =
  int_ok (invoke sys (Syscall.Send { sock; data; off; len }))

let sys_epoll_create sys =
  match int_ok (invoke sys Syscall.Epoll_create) with
  | Ok fd -> fd
  | Error _ -> assert false

let sys_epoll_ctl sys ~ep ~sock ~add ~mask ~cookie =
  unit_ok (invoke sys (Syscall.Epoll_ctl { ep; sock; add; mask; cookie }))

let sys_epoll_wait sys ~ep ~max =
  ready_ok (invoke sys (Syscall.Epoll_wait { ep; max }))

let sys_accept_recv sys ~sock ~len =
  fd_bytes_ok (invoke sys (Syscall.Accept_recv { sock; len }))

let sys_recv_send sys ~sock ~len ~data =
  int_bytes_ok (invoke sys (Syscall.Recv_send { sock; len; data }))

let sys_sendfile_sock sys ~sock ~fd ~off ~len =
  int_ok (invoke sys (Syscall.Sendfile_sock { sock; fd; off; len }))

let dirents_bytes = Syscall.dirents_bytes
