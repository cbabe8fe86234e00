(* The systematic resilience sweep.  See resilience.mli for the model.

   The standard workload is deliberately small (a dozen files, a few
   compounds, ten connections) so a full sweep — one fresh boot per
   (site, occurrence) — stays cheap enough to run in CI, while still
   reaching every fault site kfault registers: wrapfs slab allocation
   (kalloc.kmalloc), a direct vmalloc, inode-table block reads
   (the blockdev sites), the syscall boundary (syscall.eintr/eagain),
   the kopt compiled-program cache, the unverified Cosy watchdog, the
   ring's enter loop, and the knet wire sites. *)

type run_result = {
  r_cycles : int;
  r_digest : string;
  r_errs : string list;
  r_killed : int;
  r_escaped : string option;
  r_counts : (string * int * int) list;
  r_stats : string;
}

let errno_name_of_code code =
  match
    List.find_opt
      (fun e -> Kvfs.Vtypes.errno_code e = code)
      Kvfs.Vtypes.all_errnos
  with
  | Some e -> Kvfs.Vtypes.errno_to_string e
  | None -> Printf.sprintf "E?%d" code

(* Deterministic file payload, distinct per file. *)
let payload n =
  Bytes.init n (fun i -> Char.chr (32 + (((i * 7) + n) land 63)))

let nfiles = 12
let fname i = Printf.sprintf "/d/f%02d" i

(* Build the straight-line open/read/close compound the kopt phase
   submits twice (same bytes both times, so the second submit probes
   the compiled-program cache). *)
let build_compound () =
  let c = Cosy.Cosy_lib.create () in
  let buf = Cosy.Cosy_lib.alloc_shared c 1024 in
  let fd =
    Cosy.Cosy_lib.syscall c "open"
      [ Cosy.Cosy_op.Str (fname 0); Cosy.Cosy_op.Const 0 ]
  in
  let n =
    Cosy.Cosy_lib.syscall c "read"
      [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Shared buf; Cosy.Cosy_op.Const 1024 ]
  in
  ignore (Cosy.Cosy_lib.syscall c "close" [ Cosy.Cosy_op.Slot fd ]);
  (Cosy.Cosy_lib.finish c, fd, n)

(* A pure countdown loop: five back-edges, each one a watchdog check on
   the unverified path. *)
let build_loop_compound () =
  let c = Cosy.Cosy_lib.create () in
  let i = Cosy.Cosy_lib.set_fresh c (Cosy.Cosy_op.Const 6) in
  let top = Cosy.Cosy_lib.next_index c in
  Cosy.Cosy_lib.arith c ~dst:i Cosy.Cosy_op.Asub (Cosy.Cosy_op.Slot i)
    (Cosy.Cosy_op.Const 1);
  Cosy.Cosy_lib.jz c (Cosy.Cosy_op.Slot i) (Cosy.Cosy_lib.next_index c + 2);
  Cosy.Cosy_lib.jmp c top;
  (Cosy.Cosy_lib.finish c, i)

let net_config =
  {
    Workloads.Webserver.net_default_config with
    docs =
      {
        Workloads.Webserver.default_config with
        documents = 8;
        doc_size = 512;
        doc_size_spread = 256;
        dir = "/www";
      };
    conns = 10;
    requests_per_conn = 2;
    pipeline = 2;
  }

let default_run_config =
  { Core.Config.default with Core.Config.fs = Core.Wrapfs_kmalloc; optimize = true }

(* The crash-sweep system: durable journalfs (WAL + replay-on-mount)
   with oops containment installed. *)
let crash_config =
  {
    Core.Config.default with
    Core.Config.fs = Core.Journalfs;
    optimize = true;
    crash = Some Kcrash.default_config;
  }

(* Marker recorded in [r_escaped] when the armed crash point fires: the
   machine died at a durable-write boundary; remaining phases are
   skipped, exactly as power loss would skip them. *)
let power_loss_marker = "POWER_LOSS"

let run_with ?(plans = []) ?(config = default_run_config) () =
  let t = Core.boot_with config in
  (* kstats registries boot disabled; the report and the retry.*
     counters are part of the run's observable record, so turn them on *)
  Kstats.set_enabled (Core.stats t) true;
  let sys = Core.sys t in
  let kernel = Core.kernel t in
  let fault = Core.fault t in
  (* non-strict: the ring and Cosy sites register mid-run and pick the
     plan up at registration *)
  Kfault.arm ~strict:false fault plans;
  let buf = Buffer.create 4096 in
  let errs = ref [] in
  let killed = ref 0 in
  let escaped = ref None in
  let err phase e =
    errs := (phase ^ ":" ^ Kvfs.Vtypes.errno_to_string e) :: !errs
  in
  let note phase s = errs := (phase ^ ":" ^ s) :: !errs in
  (* Run one phase; clean failures are recorded, a watchdog kill counts
     as clean, anything else escaping is a violation and stops the
     workload (later phases would only report its consequences). *)
  let phase name f =
    match !escaped with
    | Some _ -> ()
    | None -> (
        try f () with
        | Core.Sys_error e -> err name e
        | Cosy.Cosy_safety.Watchdog_expired _ ->
            incr killed;
            note name "KILLED"
        | Ksyscall.Usyscall.Flow_violation _ ->
            incr killed;
            note name "FLOWKILL"
        | Ksim.Kernel.Oops _ ->
            (* contained kernel-mode fault: the offender died, its
               resources were reaped, everyone else is untouched *)
            incr killed;
            note name "OOPS"
        | Kvfs.Block_dev.Power_loss -> escaped := Some power_loss_marker
        | Workloads.Wutil.Workload_error m ->
            (* the workload harness surfaces clean errnos as exceptions;
               the errno text is in the message *)
            note name ("HARNESS[" ^ m ^ "]")
        | e -> escaped := Some (name ^ ": " ^ Printexc.to_string e))
  in
  let add_int n = Buffer.add_string buf (string_of_int n ^ ";") in

  (* Phase 1: build a small tree.  Wrapfs charges a slab allocation per
     file object (kalloc.kmalloc), the inode table costs block reads
     (the blockdev sites), and every crossing passes the EINTR site. *)
  phase "file.create" (fun () ->
      (match Ksyscall.Usyscall.sys_mkdir sys ~path:"/d" with
      | Ok _ -> ()
      | Error e -> err "file.create" e);
      for i = 0 to nfiles - 1 do
        match
          Ksyscall.Usyscall.sys_open sys ~path:(fname i) ~flags:Core.o_create
        with
        | Error e -> err "file.create" e
        | Ok fd ->
            (match
               Ksyscall.Usyscall.sys_write sys ~fd
                 ~data:(payload (700 + (37 * i)))
             with
            | Ok n -> add_int n
            | Error e -> err "file.write" e);
            (match Ksyscall.Usyscall.sys_close sys ~fd with
            | Ok () -> ()
            | Error e -> err "file.close" e)
      done);

  (* Phase 2: read it back; every byte lands in the digest. *)
  phase "file.read" (fun () ->
      for i = 0 to nfiles - 1 do
        match
          Ksyscall.Usyscall.sys_open sys ~path:(fname i) ~flags:Core.o_rdonly
        with
        | Error e -> err "file.read" e
        | Ok fd ->
            (match Ksyscall.Usyscall.sys_read sys ~fd ~len:max_int with
            | Ok b -> Buffer.add_bytes buf b
            | Error e -> err "file.read" e);
            ignore (Ksyscall.Usyscall.sys_close sys ~fd)
      done);

  (* Phase 2b: a wide, shallow tree of tiny files, then a stat pass.
     Inodes pack 32 to a block and only directory inode blocks are ever
     written, so stats of files past the first group read inode-table
     blocks the cache has never seen — the one place this workload
     misses the buffer cache and reaches the blockdev fault sites. *)
  phase "file.meta" (fun () ->
      (match Ksyscall.Usyscall.sys_mkdir sys ~path:"/m" with
      | Ok _ -> ()
      | Error e -> err "file.meta" e);
      for i = 0 to 129 do
        let path = Printf.sprintf "/m/t%03d" i in
        match
          Ksyscall.Usyscall.sys_open_write_close sys ~path
            ~data:(Bytes.make 1 'x')
            ~flags:Core.o_create
        with
        | Ok _ -> ()
        | Error e -> err "file.meta" e
      done;
      for i = 0 to 129 do
        match Ksyscall.Usyscall.sys_stat sys ~path:(Printf.sprintf "/m/t%03d" i) with
        | Ok st -> add_int st.Kvfs.Vtypes.st_size
        | Error e -> err "file.meta" e
      done);

  (* Phase 3: a direct vmalloc (kalloc.vmalloc); the caller handles the
     allocator's exception itself, as in-kernel callers must. *)
  phase "alloc.direct" (fun () ->
      let alloc = Ksim.Kernel.alloc kernel in
      try
        let area = Ksim.Kalloc.vmalloc alloc 16_384 in
        add_int area.Ksim.Kalloc.addr;
        Ksim.Kalloc.vfree alloc area.Ksim.Kalloc.addr
      with Ksim.Kalloc.Out_of_memory _ -> note "alloc.direct" "ENOMEM");

  (* Phase 4: the same compound twice through the optimizer — compile
     on the first submit, cache probe on the second (the
     kopt.cache_invalidate site fires on hits; an invalidated entry
     must recompile and still run). *)
  phase "cosy.opt" (fun () ->
      let exec = Core.cosy t in
      for _ = 1 to 2 do
        let compound, fd, n = build_compound () in
        let slots = Cosy.Cosy_exec.submit exec compound in
        if slots.(fd) < 0 then
          note "cosy.opt" (errno_name_of_code (-slots.(fd)))
        else if slots.(n) < 0 then
          note "cosy.opt" (errno_name_of_code (-slots.(n)))
        else add_int slots.(n)
      done);

  (* Phase 5: a plain, unverified extension running a loop — every
     back-edge is a watchdog check (cosy.watchdog_early). *)
  phase "cosy.plain" (fun () ->
      let plain = Cosy.Cosy_exec.create sys in
      let compound, i = build_loop_compound () in
      let slots = Cosy.Cosy_exec.submit plain compound in
      add_int slots.(i));

  (* Phase 6: a submission ring draining a batch of independent ops
     (ring.partial_enter fires between completions inside [enter]). *)
  phase "ring" (fun () ->
      let ring = Kring.create sys in
      let comps =
        Kring.run_batch ring
          [
            Ksyscall.Syscall.Open_read_close { path = fname 1; maxlen = 4096 };
            Ksyscall.Syscall.Stat { path = fname 2 };
            Ksyscall.Syscall.Open_read_close { path = fname 3; maxlen = 4096 };
            Ksyscall.Syscall.Getpid;
          ]
      in
      List.iter
        (fun (comp : Kring.completion) ->
          match comp.Kring.reply with
          | Ok (Ksyscall.Syscall.R_bytes b) -> Buffer.add_bytes buf b
          | Ok (Ksyscall.Syscall.R_int n) -> add_int n
          | Ok (Ksyscall.Syscall.R_stat st) -> add_int st.Kvfs.Vtypes.st_size
          | Ok _ -> Buffer.add_string buf "ok;"
          | Error e -> err "ring" e)
        comps);

  (* Phase 7: serve the document tree over knet (net.wire_drop,
     net.recv_short, syscall.eagain on the server's recv/accept). *)
  phase "net" (fun () ->
      Workloads.Webserver.net_setup ~config:net_config sys;
      let r = Workloads.Webserver.run_net ~config:net_config sys in
      Buffer.add_string buf r.Workloads.Webserver.n_digest;
      add_int r.Workloads.Webserver.n_served;
      add_int r.Workloads.Webserver.n_completed;
      (* clients that ran out of retransmits timed out *)
      if r.Workloads.Webserver.n_completed < net_config.conns then
        err "net" Kvfs.Vtypes.ETIMEDOUT);

  ( {
      r_cycles = Ksim.Kernel.now kernel;
      r_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      r_errs = List.rev !errs;
      r_killed = !killed;
      r_escaped = !escaped;
      r_counts = Kfault.counts fault;
      r_stats = Fmt.str "%a" Kstats.pp_report (Core.stats t);
    },
    t )

let run ?plans () = fst (run_with ?plans ())

type outcome = Identical | Degraded | Violation

let outcome_to_string = function
  | Identical -> "identical"
  | Degraded -> "degraded"
  | Violation -> "VIOLATION"

let classify ~baseline r =
  match r.r_escaped with
  | Some m -> (Violation, m)
  | None ->
      if r.r_digest = baseline.r_digest && r.r_errs = [] && r.r_killed = 0
      then (Identical, "")
      else if r.r_errs <> [] || r.r_killed > 0 then (Degraded, "")
      else (Violation, "payload digest changed with no error surfaced")

type sweep_row = {
  sw_site : string;
  sw_occurrence : int;
  sw_outcome : outcome;
  sw_errs : string list;
  sw_detail : string;
}

type sweep_result = {
  baseline : run_result;
  rows : sweep_row list;
  violations : int;
}

let sweep ?max_per_site ?(progress = fun _ _ _ _ -> ()) () =
  let baseline = run () in
  let counts =
    List.map (fun (name, occ, _) -> (name, occ)) baseline.r_counts
  in
  let points = Kfault.sweep_points ?max_per_site counts in
  let total = List.length points in
  let rows =
    List.mapi
      (fun idx (site, k) ->
        progress idx total site k;
        let r = run ~plans:[ { Kfault.site; trigger = Kfault.One_shot k } ] () in
        let outcome, detail = classify ~baseline r in
        {
          sw_site = site;
          sw_occurrence = k;
          sw_outcome = outcome;
          sw_errs = r.r_errs;
          sw_detail = detail;
        })
      points
  in
  let violations =
    List.length (List.filter (fun r -> r.sw_outcome = Violation) rows)
  in
  { baseline; rows; violations }

(* --- The crash-point sweep ------------------------------------------- *)

let crash_site = "blockdev.crash_point"

type crash_class = Consistent | Recovered | Corrupt

let crash_class_to_string = function
  | Consistent -> "consistent"
  | Recovered -> "recovered"
  | Corrupt -> "CORRUPT"

type crash_row = {
  cr_occurrence : int;
  cr_class : crash_class;
  cr_replayed : int;
  cr_torn : int;
  cr_fsck_errs : string list;
  cr_detail : string;
}

type crash_sweep_result = {
  cs_points : int;
  cs_rows : crash_row list;
  cs_corrupt : int;
}

(* One crash point: run the workload on a durable system until the
   armed [blockdev.crash_point] fires (power dies mid-durable-write),
   reboot from the persistent image alone, and judge the survivor:

   - fsck must come back clean (bitmap vs. reachability, link counts,
     no shared blocks);
   - a second replay must be a no-op (idempotence);
   - only then: [Recovered] if the replay discarded a torn tail,
     [Consistent] if the log was whole. *)
let crash_point (_site, k) =
  let r, t =
    run_with ~config:crash_config
      ~plans:[ { Kfault.site = crash_site; trigger = Kfault.One_shot k } ]
      ()
  in
  if r.r_escaped <> Some power_loss_marker then
    {
      cr_occurrence = k;
      cr_class = Corrupt;
      cr_replayed = 0;
      cr_torn = 0;
      cr_fsck_errs = [];
      cr_detail =
        (match r.r_escaped with
        | Some m -> "crash point eclipsed by: " ^ m
        | None -> "crash point never fired");
    }
  else
    let t2 = Core.reboot t in
    match Core.journalfs t2 with
    | None ->
        {
          cr_occurrence = k;
          cr_class = Corrupt;
          cr_replayed = 0;
          cr_torn = 0;
          cr_fsck_errs = [];
          cr_detail = "reboot lost the journalfs";
        }
    | Some j ->
        let info =
          match Kvfs.Journalfs.last_recover j with
          | Some i -> i
          | None ->
              {
                Kvfs.Journalfs.rec_scanned = 0;
                rec_replayed = 0;
                rec_skipped = 0;
                rec_aborted = 0;
                rec_torn = 0;
                rec_errors = [ "no replay ran on mount" ];
              }
        in
        let fsck_errs = Kvfs.Journalfs.fsck j in
        let again = Kvfs.Journalfs.replay j in
        let idempotent =
          again.Kvfs.Journalfs.rec_replayed = 0
          && again.Kvfs.Journalfs.rec_errors = []
        in
        let cls, detail =
          if fsck_errs <> [] then (Corrupt, "fsck failed")
          else if info.Kvfs.Journalfs.rec_errors <> [] then
            (Corrupt, String.concat "; " info.Kvfs.Journalfs.rec_errors)
          else if not idempotent then (Corrupt, "replay not idempotent")
          else if info.Kvfs.Journalfs.rec_torn > 0 then
            (Recovered, "torn tail discarded")
          else (Consistent, "")
        in
        {
          cr_occurrence = k;
          cr_class = cls;
          cr_replayed = info.Kvfs.Journalfs.rec_replayed;
          cr_torn = info.Kvfs.Journalfs.rec_torn;
          cr_fsck_errs = fsck_errs;
          cr_detail = detail;
        }

let crash_sweep ?max_per_site ?(progress = fun _ _ _ -> ()) () =
  (* counting mode: how many durable-write boundaries does the workload
     cross?  Each is one reachable crash point. *)
  let baseline, _ = run_with ~config:crash_config () in
  let occ =
    match
      List.find_opt (fun (name, _, _) -> name = crash_site) baseline.r_counts
    with
    | Some (_, occ, _) -> occ
    | None -> 0
  in
  let points = Kfault.sweep_points ?max_per_site [ (crash_site, occ) ] in
  let total = List.length points in
  let rows =
    List.mapi
      (fun idx (site, k) ->
        progress idx total k;
        crash_point (site, k))
      points
  in
  let corrupt =
    List.length (List.filter (fun r -> r.cr_class = Corrupt) rows)
  in
  { cs_points = occ; cs_rows = rows; cs_corrupt = corrupt }
