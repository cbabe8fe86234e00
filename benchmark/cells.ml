(* The four workloads.  Each repetition boots a fresh system through
   [Core.boot_with], sets it up (timed on the host clock as set-up),
   runs the measured phase through the public workload functions, then
   checks the outputs against an oracle that does not share the code
   under test. *)

module Web = Workloads.Webserver
module Pm = Workloads.Postmark
module Db = Workloads.Database

type params = {
  seed : int;
  scale : float;  (* 1.0 = full size; the smoke test uses 0.01 *)
  traced : bool;  (* kperf on, with the per-layer sink attached *)
}

(* One measured repetition, as seen from outside the simulator. *)
type rep = {
  seed : int;           (* the input seed this repetition ran *)
  ops : int;            (* responses, PostMark steps or record accesses *)
  attempted : int;      (* ops the workload was asked to perform *)
  failed : int;         (* ops lost to an unserved request or a failed oracle *)
  setup_s : float;      (* host seconds: boot + populate + init *)
  host_s : float;       (* host seconds of the measured phase *)
  sim_cycles : int;     (* simulated duration of the measured phase *)
  latencies : int array;  (* simulated latency samples, cycles *)
  times : Ksim.Kernel.times;  (* summed over the measured steps *)
  before : Probe.snapshot;
  after : Probe.snapshot;
  trace : Probe.tracer option;
  conns : int;          (* client connections (c10k), else 0 *)
}

let scaled (p : params) n = max 1 (int_of_float (Float.round (float_of_int n *. p.scale)))

let ok = Workloads.Wutil.ok

let boot (p : params) cfg =
  Core.boot_with { cfg with Core.Config.trace = Some p.traced }

(* Time the measured phase [f] on the host clock, with counter snapshots
   around it and, when traced, the per-layer sink attached. *)
let measure (p : params) t f =
  let tracer = if p.traced then Some (Probe.attach t) else None in
  let before = Probe.snapshot t in
  let h0 = Probe.host_now () in
  let r = f () in
  let host_s = Probe.host_now () -. h0 in
  let after = Probe.snapshot t in
  let trace = Option.map (Probe.finish t) tracer in
  (r, host_s, before, after, trace)

let read_file sys path =
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let data = ok (Ksyscall.Usyscall.sys_read sys ~fd ~len:max_int) in
  ok (Ksyscall.Usyscall.sys_close sys ~fd);
  data

(* ---------- c10k: one CPU, 10k open-loop connections -------------------- *)

(* The client digest recomputed from the document tree alone: per
   connection, MD5 over its responses framed as an 8-byte little-endian
   length and the body, then MD5 over the comma-joined hex digests. *)
let c10k_expected_digest sys (cfg : Web.net_config) =
  let docs =
    Array.init cfg.Web.docs.Web.documents (fun i ->
        Bytes.to_string (read_file sys (Web.doc_name cfg.Web.docs i)))
  in
  let frame body =
    let h = Bytes.create 8 in
    Bytes.set_int64_le h 0 (Int64.of_int (String.length body));
    Bytes.to_string h ^ body
  in
  let conn i =
    List.init cfg.Web.requests_per_conn (fun req ->
        frame docs.(Web.net_doc_index cfg ~conn:i ~req))
    |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  List.init cfg.Web.conns conn
  |> String.concat "," |> Digest.string |> Digest.to_hex

let c10k ~ring (p : params) =
  let h0 = Probe.host_now () in
  let t =
    boot p
      (if ring then { Core.Config.default with optimize = true }
       else Core.Config.default)
  in
  let sys = Core.sys t and k = Core.kernel t in
  let base = Web.net_default_config in
  let cfg =
    {
      base with
      Web.variant = (if ring then Web.Net_ring else Web.Net_naive);
      docs = { base.Web.docs with Web.seed = p.seed };
      conns = scaled p 10_000;
      make_ring = (if ring then Some (fun _ -> Core.ring t) else None);
    }
  in
  Web.net_setup ~config:cfg sys;
  let srv = Web.net_make ~config:cfg sys in
  (* the first step only initializes: listener, epoll set, traffic *)
  ignore (Web.net_step srv);
  let t_install = Ksim.Kernel.now k in
  let setup_s = Probe.host_now () -. h0 in
  let net = Core.net t and port = cfg.Web.port in
  let acct = Probe.steps k in
  let done_at = ref [] in
  let (), host_s, before, after, trace =
    measure p t (fun () ->
        let seen = ref 0 in
        let rec loop () =
          let more = Probe.step acct (fun () -> Web.net_step srv) in
          let c = Knet.Traffic.completed net ~port in
          for _ = !seen + 1 to c do
            done_at := Ksim.Kernel.now k :: !done_at
          done;
          seen := c;
          if more then loop ()
        in
        loop ())
  in
  let sim_cycles = Ksim.Kernel.now k - t_install in
  (* open loop: the k-th completion against the k-th scheduled dial, so
     time spent redialing after a backlog drop counts *)
  let latencies =
    Array.mapi
      (fun i at -> at - (t_install + cfg.Web.start + (i * cfg.Web.spacing)))
      (Array.of_list (List.rev !done_at))
  in
  let attempted = cfg.Web.conns * cfg.Web.requests_per_conn in
  let ops = Knet.Traffic.responses net ~port in
  let digest_ok =
    Knet.Traffic.digest net ~port = c10k_expected_digest sys cfg
    && Knet.Traffic.completed net ~port = cfg.Web.conns
  in
  {
    seed = p.seed;
    ops;
    attempted;
    failed = (if digest_ok then attempted - ops else attempted);
    setup_s;
    host_s;
    sim_cycles;
    latencies;
    times = Probe.times acct;
    before;
    after;
    trace;
    conns = cfg.Web.conns;
  }

(* ---------- postmark_smp4: four PostMark instances on four CPUs --------- *)

let postmark (p : params) =
  let h0 = Probe.host_now () in
  let t = boot p { Core.Config.default with ncpus = Some 4 } in
  let sys = Core.sys t in
  let base =
    {
      Pm.default_config with
      files = scaled p 500;
      transactions = scaled p 5_000;
      seed = p.seed;
    }
  in
  let insts =
    List.init 4 (fun i ->
        let config =
          { base with Pm.dir = Printf.sprintf "%s%d" base.Pm.dir i; seed = base.Pm.seed + i }
        in
        (config, Pm.make ~config sys))
  in
  let setup_s = Probe.host_now () -. h0 in
  let acct = Probe.steps (Core.kernel t) in
  let smp_insts =
    List.mapi
      (fun i (_, pm) ->
        {
          Workloads.Smp.name = Printf.sprintf "postmark%d" i;
          step = (fun () -> Probe.step acct (fun () -> Pm.step pm));
        })
      insts
  in
  let r, host_s, before, after, trace =
    measure p t (fun () -> Workloads.Smp.run sys smp_insts)
  in
  (* every file created is deleted again, leaving each directory empty *)
  let clean ((config : Pm.config), (pm : Pm.t)) =
    Pm.finished pm
    && pm.Pm.created = pm.Pm.deleted
    && List.for_all
         (fun d -> d.Kvfs.Vtypes.d_name = "." || d.Kvfs.Vtypes.d_name = "..")
         (ok (Ksyscall.Usyscall.sys_readdir sys ~path:config.Pm.dir))
  in
  let ops = r.Workloads.Smp.steps in
  {
    seed = p.seed;
    ops;
    attempted = ops;
    failed = (if List.for_all clean insts then 0 else ops);
    setup_s;
    host_s;
    sim_cycles = r.Workloads.Smp.makespan;
    latencies = Array.of_list acct.Probe.samples;
    times = Probe.times acct;
    before;
    after;
    trace;
    conns = 0;
  }

(* ---------- cosy_db: 1,000 Cosy database submits ------------------------ *)

(* Submit cost is a deterministic function of the record count and the
   lookup count alone, so with both fixed every seed reads the same
   simulated latencies.  The seed therefore draws the database size
   (990..1010 records; each submit scans all of them) and each submit's
   lookup count.  An update costs ~24x a read and happens at lookup i
   when i mod 100 < 10, so cost jumps for counts in (100, 110] and
   (200, 210]; counts are drawn from [115, 193] (mean 154), where every
   submit does exactly 20 updates and cost grows one read per lookup.
   Submit r of seed s starts its LCG probe sequence at s * stride + r,
   so runs with different seeds never share a sequence. *)
let db_seed_stride = 1_000_000

let db_rounds (p : params) =
  let rng = Workloads.Wutil.rng p.seed in
  let base =
    {
      Db.default_config with
      records = Workloads.Wutil.rand_range rng 990 1_010;
      record_size = 256;
      scans = 1;
      seed = p.seed * db_seed_stride;
    }
  in
  Array.init (scaled p 1_000) (fun r ->
      {
        base with
        Db.seed = base.Db.seed + r;
        lookups = Workloads.Wutil.rand_range rng 115 193;
      })

let db_accesses (cfg : Db.config) = cfg.Db.lookups + (cfg.Db.scans * cfg.Db.records)

(* The database image after the given submits, replayed without the
   simulator: each submit starts from a zeroed record buffer; a read
   loads the probed record into it and an update stores it back. *)
let db_reference rounds =
  let cfg0 = rounds.(0) in
  let rs = cfg0.Db.record_size and n = cfg0.Db.records in
  let img = Bytes.make (n * rs) 'd' and buf = Bytes.create rs in
  Array.iter
    (fun (cfg : Db.config) ->
      Bytes.fill buf 0 rs '\000';
      let state = ref cfg.Db.seed in
      for i = 0 to cfg.Db.lookups - 1 do
        state := ((Db.lcg_a * !state) + Db.lcg_c) mod Db.lcg_m;
        let off = (((!state mod n) + n) mod n) * rs in
        if i mod 100 >= cfg.Db.update_ratio then Bytes.blit img off buf 0 rs
        else Bytes.blit buf 0 img off rs
      done)
    rounds;
  img

let cosy_db (p : params) =
  let h0 = Probe.host_now () in
  let t = boot p Core.Config.default in
  let sys = Core.sys t in
  let rounds = db_rounds p in
  Db.setup ~config:rounds.(0) sys;
  let setup_s = Probe.host_now () -. h0 in
  let acct = Probe.steps (Core.kernel t) in
  let lost = ref 0 in
  let (), host_s, before, after, trace =
    measure p t (fun () ->
        Array.iter
          (fun cfg ->
            ignore
              (Probe.step acct (fun () ->
                   (match Db.run_cosy ~config:cfg sys with
                   | _, st ->
                       if st.Cosy.Cosy_exec.watchdog_kills > 0 then
                         lost := !lost + db_accesses cfg
                   | exception Cosy.Cosy_safety.Watchdog_expired _ ->
                       lost := !lost + db_accesses cfg);
                   true)))
          rounds)
  in
  let image_ok = read_file sys rounds.(0).Db.path = db_reference rounds in
  let attempted = Array.fold_left (fun acc cfg -> acc + db_accesses cfg) 0 rounds in
  {
    seed = p.seed;
    ops = attempted;
    attempted;
    failed = (if image_ok then !lost else attempted);
    setup_s;
    host_s;
    sim_cycles = acct.Probe.elapsed;
    latencies = Array.of_list acct.Probe.samples;
    times = Probe.times acct;
    before;
    after;
    trace;
    conns = 0;
  }

(* ---------- registry ----------------------------------------------------- *)

let all =
  [
    ("c10k_naive", c10k ~ring:false);
    ("c10k_ring_opt", c10k ~ring:true);
    ("postmark_smp4", postmark);
    ("cosy_db", cosy_db);
  ]
