(* A static-file web server loop: per request, resolve + open + read the
   document and "send" it (modelled as a copy back across the boundary,
   exactly the data movement sendfile/Cosy eliminate).  The Cosy variant
   runs open-read-close inside one compound per request with the document
   staged through the shared buffer. *)

type config = {
  documents : int;
  doc_size : int;
  doc_size_spread : int;
      (* when nonzero, document sizes are drawn (deterministically from
         [seed]) from [doc_size - spread, doc_size + spread] instead of
         being uniform.  Real document trees are heterogeneous; uniform
         sizes make every request cost identical, which lets concurrent
         server instances phase-lock around a contended dcache lock and
         understates contention in the SMP experiment (E13). *)
  requests : int;
  seed : int;
  dir : string;
}

let default_config =
  {
    documents = 50;
    doc_size = 16_384;
    doc_size_spread = 0;
    requests = 500;
    seed = 3;
    dir = "/www";
  }

type stats = {
  served : int;
  bytes_served : int;
  times : Ksim.Kernel.times;
}

let doc_name cfg i = Printf.sprintf "%s/doc%04d.html" cfg.dir i

let setup ?(config = default_config) sys =
  let cfg = config in
  let sizes = Wutil.rng cfg.seed in
  let doc_len _i =
    if cfg.doc_size_spread = 0 then cfg.doc_size
    else
      max 1
        (cfg.doc_size - cfg.doc_size_spread
        + Wutil.rand_int sizes ((2 * cfg.doc_size_spread) + 1))
  in
  ignore (Ksyscall.Usyscall.sys_mkdir sys ~path:cfg.dir);
  for i = 0 to cfg.documents - 1 do
    ignore
      (Wutil.ok
         (Ksyscall.Usyscall.sys_open_write_close sys ~path:(doc_name cfg i)
            ~data:(Wutil.payload (doc_len i))
            ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]))
  done

(* Stepper over the plain-serving loop, one request per [step], so the
   SMP driver can interleave several server instances across CPUs. *)
type t = {
  sys : Ksyscall.Systable.t;
  cfg : config;
  rng : Wutil.rng;
  mutable remaining : int;
  mutable served : int;
  mutable bytes : int;
}

let make_plain ?(config = default_config) sys =
  {
    sys;
    cfg = config;
    rng = Wutil.rng config.seed;
    remaining = config.requests;
    served = 0;
    bytes = 0;
  }

let step_plain t =
  if t.remaining = 0 then false
  else begin
    let cfg = t.cfg in
    let kernel = Ksyscall.Systable.kernel t.sys in
    let path = doc_name cfg (Wutil.rand_int t.rng cfg.documents) in
    let fd = Wutil.ok (Ksyscall.Usyscall.sys_open t.sys ~path ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
    let data = Wutil.ok (Ksyscall.Usyscall.sys_read t.sys ~fd ~len:max_int) in
    ignore (Wutil.ok (Ksyscall.Usyscall.sys_close t.sys ~fd));
    (* "send": the payload crosses back into the kernel for the NIC *)
    Ksim.Kernel.enter_kernel kernel;
    Ksim.Kernel.charge_copy_from_user kernel (Bytes.length data);
    Ksim.Kernel.exit_kernel kernel;
    t.served <- t.served + 1;
    t.bytes <- t.bytes + Bytes.length data;
    t.remaining <- t.remaining - 1;
    true
  end

let run_plain ?(config = default_config) sys =
  let kernel = Ksyscall.Systable.kernel sys in
  let t = make_plain ~config sys in
  let (), times =
    Ksim.Kernel.timed kernel (fun () -> while step_plain t do () done)
  in
  { served = t.served; bytes_served = t.bytes; times }

(* the sendfile syscall itself: open + sendfile + close per request. *)
let run_sendfile ?(config = default_config) sys =
  let cfg = config in
  let kernel = Ksyscall.Systable.kernel sys in
  let rng = Wutil.rng cfg.seed in
  let served = ref 0 and bytes = ref 0 in
  let body () =
    for _ = 1 to cfg.requests do
      let path = doc_name cfg (Wutil.rand_int rng cfg.documents) in
      let fd = Wutil.ok (Ksyscall.Usyscall.sys_open sys ~path ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
      let n =
        Wutil.ok (Ksyscall.Usyscall.sys_sendfile sys ~fd ~off:0 ~len:max_int)
      in
      ignore (Wutil.ok (Ksyscall.Usyscall.sys_close sys ~fd));
      served := !served + 1;
      bytes := !bytes + n
    done
  in
  let (), times = Ksim.Kernel.timed kernel body in
  { served = !served; bytes_served = !bytes; times }

(* Cosy: one compound per request; the document never visits user
   space. *)
let run_cosy ?(config = default_config) sys =
  let cfg = config in
  let kernel = Ksyscall.Systable.kernel sys in
  let exec = Cosy.Cosy_exec.create ~shared_size:(cfg.doc_size * 2) sys in
  let rng = Wutil.rng cfg.seed in
  let served = ref 0 and bytes = ref 0 in
  let body () =
    for _ = 1 to cfg.requests do
      let path = doc_name cfg (Wutil.rand_int rng cfg.documents) in
      let c = Cosy.Cosy_lib.create ~shared_size:(cfg.doc_size * 2) () in
      let buf = Cosy.Cosy_lib.alloc_shared c cfg.doc_size in
      let fd = Cosy.Cosy_lib.syscall c "open" [ Cosy.Cosy_op.Str path; Cosy.Cosy_op.Const 0 ] in
      let n =
        Cosy.Cosy_lib.syscall c "read"
          [ Cosy.Cosy_op.Slot fd; Cosy.Cosy_op.Shared buf; Cosy.Cosy_op.Const cfg.doc_size ]
      in
      ignore (Cosy.Cosy_lib.syscall c "close" [ Cosy.Cosy_op.Slot fd ]);
      let compound = Cosy.Cosy_lib.finish c in
      let slots = Cosy.Cosy_exec.submit exec compound in
      served := !served + 1;
      bytes := !bytes + slots.(n)
    done
  in
  let (), times = Ksim.Kernel.timed kernel body in
  ({ served = !served; bytes_served = !bytes; times }, Cosy.Cosy_exec.stats exec)

(* ---------- serving over knet sockets (E14) ----------------------------- *)

(* The same static documents, served to simulated clients over the knet
   socket stack behind a level-triggered epoll loop.  Four variants of
   the per-request data path, ordered by how much of the paper's §2.2
   (consolidation) and §2.3 (shared buffers / zero-copy) they apply:

   - [Net_naive]        open + read + close + send: every body crosses the
                        boundary twice (kernel->user on read, user->kernel
                        on send), four-plus crossings per request.  On
                        the host the read lands behind the 8-byte header
                        in one pooled response buffer, and sends leave
                        from a moving offset in it.
   - [Net_consolidated] open_read_close collapses the file side into one
                        crossing; recv_send overlaps reading the next
                        pipelined request with sending the previous
                        response; accept_recv picks up a connection and
                        its first bytes together.
   - [Net_sendfile]     headers are sent normally but bodies go through
                        sendfile(2)-to-socket: file pages read straight
                        into the socket's send queue, zero user copies.
   - [Net_ring]         sendfile bodies, with the per-socket syscalls
                        batched through the kring submission ring: one
                        crossing drains a whole round of recvs or sends.

   All four produce byte-identical response streams (asserted by the
   client-side digest), so crossing and copy-byte deltas are attributable
   to the data path alone. *)

type net_variant = Net_naive | Net_consolidated | Net_sendfile | Net_ring

let net_variant_name = function
  | Net_naive -> "naive"
  | Net_consolidated -> "consolidated"
  | Net_sendfile -> "sendfile"
  | Net_ring -> "ring"

type net_config = {
  variant : net_variant;
  docs : config;             (* document tree: count, sizes, seed, dir *)
  conns : int;               (* client connections over the whole run *)
  requests_per_conn : int;
  pipeline : int;            (* client requests in flight per connection *)
  port : int;
  backlog : int;             (* listen(2) backlog *)
  epoll_batch : int;         (* max events per epoll_wait *)
  spacing : int;             (* client inter-arrival gap, cycles *)
  think : int;               (* client think time between requests *)
  start : int;               (* cycles before the first connection *)
  make_ring : (Ksyscall.Systable.t -> Kring.t) option;
      (* Net_ring only: how to build the submission ring.  Harnesses
         that want admission/optimization attached (Core.ring wiring)
         pass their own factory; [None] keeps the plain default. *)
  shed : bool;
      (* graceful load shedding: when the accept backlog overflows (a
         drop burst, e.g. under injected wire faults the retransmit
         storm keeps connections alive longer), serve the next few
         requests as header-only empty-body responses instead of the
         document — cheap enough to drain the backlog before more
         arrivals are refused.  Off by default: with [shed = false] the
         response stream is byte-identical to a server without the
         feature. *)
}

let net_default_config =
  {
    variant = Net_naive;
    docs =
      { default_config with
        documents = 24; doc_size = 2048; doc_size_spread = 1024 };
    conns = 100;
    requests_per_conn = 2;
    pipeline = 2;
    port = 80;
    backlog = 64;
    epoll_batch = 64;
    spacing = 2_000;
    think = 1_000;
    start = 1_000;
    make_ring = None;
    shed = false;
  }

let net_setup ?(config = net_default_config) sys = setup ~config:config.docs sys

(* Which document connection [conn]'s [req]-th request asks for; shared
   (via Traffic.req_of) between the generator and nothing else — the
   server learns it by parsing the request line. *)
let net_doc_index cfg ~conn ~req =
  let h =
    (cfg.docs.seed * 0x9E3779B1)
    lxor (conn * 2654435761)
    lxor (req * 40503)
  in
  (h land max_int) mod cfg.docs.documents

(* Every document's request line, indexed by document: built once per
   install instead of formatted per request. *)
let net_request_lines cfg =
  Array.init cfg.docs.documents (fun i -> Printf.sprintf "GET %d\n" i)

(* Responses are framed as an 8-byte little-endian body length followed
   by the body; the traffic generator parses the same frame. *)
let net_header len =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int len);
  b

let net_chunk = 4096  (* recv size per readiness event *)

type pending =
  | Pbytes of Bytes.t
  | Pbuf of { pb : Bytes.t; mutable pb_off : int; pb_stop : int }
      (* a pooled response buffer (naive only): header and body lie in
         [pb.[pb_off .. pb_stop - 1]]; a partial send moves [pb_off] *)
  | Pfile of { pf_fd : int; mutable pf_off : int; mutable pf_left : int }

type nconn = {
  nc_fd : int;
  mutable nc_partial : string;    (* bytes received after the last full
                                     line; thousands of connections wait
                                     at once, so no per-conn [Buffer] *)
  mutable nc_pending : pending list;  (* response data not yet queued *)
  mutable nc_out : bool;          (* EP_OUT interest currently registered *)
  mutable nc_eof : bool;          (* peer FIN seen and receive side drained *)
}

type net_t = {
  nsys : Ksyscall.Systable.t;
  ncfg : net_config;
  mutable nlisten : int;          (* listener fd; -1 before lazy init *)
  mutable nep : int;              (* epoll fd *)
  mutable nring : Kring.t option; (* Net_ring only *)
  mutable ndocs : (int * int) array;  (* doc -> (cached fd, size) *)
  npaths : string array;          (* doc -> path, built once *)
  nconns : (int, nconn) Hashtbl.t;    (* conn fd -> state *)
  nbuf_size : int;                (* naive: header + the largest document *)
  nfree : Bytes.t Stack.t;        (* naive: response buffers to reuse *)
  mutable ninit : bool;
  mutable nserved : int;          (* responses generated *)
  mutable nsent : int;            (* bytes queued into socket send buffers *)
  mutable nshed : int;            (* header-only responses served *)
  mutable ndrops_seen : int;      (* backlog drops already accounted *)
  mutable nshed_budget : int;     (* responses left to shed this burst *)
  mutable nshed_counter : Kstats.counter option;  (* web.shed_responses *)
}

type net_stats = {
  n_served : int;
  n_sent : int;
  n_completed : int;   (* connections fully served, client's view *)
  n_drops : int;       (* accept-backlog overflows *)
  n_shed : int;        (* header-only responses under load shedding *)
  n_digest : string;   (* client-side digest of every response stream *)
  n_times : Ksim.Kernel.times;
}

let net_make ?(config = net_default_config) sys =
  {
    nsys = sys;
    ncfg = config;
    nlisten = -1;
    nep = -1;
    nring = None;
    ndocs = [||];
    npaths = Array.init config.docs.documents (doc_name config.docs);
    nconns = Hashtbl.create 64;
    nbuf_size = 8 + config.docs.doc_size + config.docs.doc_size_spread;
    nfree = Stack.create ();
    ninit = false;
    nserved = 0;
    nsent = 0;
    nshed = 0;
    ndrops_seen = 0;
    nshed_budget = 0;
    nshed_counter = None;
  }

(* Lazy init on the first [net_step] so the fds land in the stepping
   process's descriptor table (matters under the SMP driver, where each
   instance runs in its own process). *)
let net_init t =
  let sys = t.nsys and cfg = t.ncfg in
  let s = Ksyscall.Usyscall.sys_socket sys in
  Wutil.ok (Ksyscall.Usyscall.sys_bind sys ~sock:s ~port:cfg.port);
  Wutil.ok (Ksyscall.Usyscall.sys_listen sys ~sock:s ~backlog:cfg.backlog);
  t.nlisten <- s;
  t.nep <- Ksyscall.Usyscall.sys_epoll_create sys;
  Wutil.ok
    (Ksyscall.Usyscall.sys_epoll_ctl sys ~ep:t.nep ~sock:s ~add:true
       ~mask:Knet.ep_in ~cookie:s);
  (match cfg.variant with
  | Net_sendfile | Net_ring ->
      (* the frame header needs the size before the body is sent, and
         sendfile reuses one long-lived fd per document *)
      t.ndocs <-
        Array.init cfg.docs.documents (fun i ->
            let fd, st =
              Wutil.ok
                (Ksyscall.Usyscall.sys_open_fstat sys
                   ~path:t.npaths.(i) ~flags:[ Kvfs.Vfs.O_RDONLY ])
            in
            (fd, st.Kvfs.Vtypes.st_size))
  | Net_naive | Net_consolidated -> ());
  (match cfg.variant with
  | Net_ring ->
      t.nring <-
        Some
          (match cfg.make_ring with
          | Some make -> make sys
          | None -> Kring.create sys)
  | Net_naive | Net_consolidated | Net_sendfile -> ());
  let lines = net_request_lines cfg in
  Knet.Traffic.install
    (Ksyscall.Systable.net sys)
    {
      Knet.Traffic.port = cfg.port;
      conns = cfg.conns;
      requests_per_conn = cfg.requests_per_conn;
      pipeline = cfg.pipeline;
      start = cfg.start;
      spacing = cfg.spacing;
      think = cfg.think;
      req_of = (fun ~conn ~req -> lines.(net_doc_index cfg ~conn ~req));
    };
  if cfg.shed then
    t.nshed_counter <-
      Some
        (Kstats.counter
           (Ksim.Kernel.stats (Ksyscall.Systable.kernel sys))
           "web.shed_responses");
  t.ninit <- true

let net_fail e =
  raise (Wutil.Workload_error
           ("webserver/net: unexpected errno " ^ Kvfs.Vtypes.errno_to_string e))

(* Pull complete request lines out of the connection's partial line
   followed by [data], keeping any trailing partial line. *)
let net_take_lines cs data =
  let s =
    match cs.nc_partial with
    | "" -> Bytes.to_string data
    | p -> p ^ Bytes.to_string data
  in
  let lines = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  cs.nc_partial <-
    (if !start = String.length s then ""
     else String.sub s !start (String.length s - !start));
  List.rev !lines

let net_parse_doc line =
  match String.index_opt line ' ' with
  | Some sp ->
      int_of_string (String.sub line (sp + 1) (String.length line - sp - 1))
  | None ->
      raise (Wutil.Workload_error ("webserver/net: bad request " ^ line))

(* Load shedding: each accept-backlog drop beyond what we have already
   accounted buys a small budget of header-only responses.  Shedding a
   request skips the whole file side (no open/read/sendfile) and sends
   an 8-byte empty-body frame, so the event loop gets back to accepting
   before the backlog refills. *)
let net_check_shed t =
  if t.ncfg.shed then begin
    let net = Ksyscall.Systable.net t.nsys in
    (* both congestion signals the NIC exposes: connections refused at
       the backlog, and wire frames lost and retransmitted *)
    let drops =
      Knet.Traffic.drops net ~port:t.ncfg.port
      + Knet.Traffic.retransmits net ~port:t.ncfg.port
    in
    if drops > t.ndrops_seen then begin
      t.nshed_budget <- t.nshed_budget + (4 * (drops - t.ndrops_seen));
      t.ndrops_seen <- drops
    end
  end;
  t.nshed_budget > 0

(* Produce one response's pending items.  This is where the variants
   differ on the file side of the request. *)
let net_queue_response t cs idx =
  let sys = t.nsys in
  if net_check_shed t then begin
    t.nshed_budget <- t.nshed_budget - 1;
    t.nshed <- t.nshed + 1;
    (match t.nshed_counter with
    | Some c -> Kstats.incr (Ksim.Kernel.stats (Ksyscall.Systable.kernel sys)) c
    | None -> ());
    cs.nc_pending <- cs.nc_pending @ [ Pbytes (net_header 0) ];
    t.nserved <- t.nserved + 1
  end
  else begin
  (match t.ncfg.variant with
  | Net_naive ->
      let path = t.npaths.(idx) in
      let fd =
        Wutil.ok (Ksyscall.Usyscall.sys_open sys ~path ~flags:[ Kvfs.Vfs.O_RDONLY ])
      in
      (* the body lands behind the header's 8 bytes, in a response
         buffer of [nbuf_size] bytes (no document [setup] writes is
         longer); its last send puts it back on [nfree] *)
      let b =
        if Stack.is_empty t.nfree then Bytes.create t.nbuf_size
        else Stack.pop t.nfree
      in
      let n =
        Wutil.ok
          (Ksyscall.Usyscall.sys_read_into sys ~fd ~len:max_int ~into:b ~pos:8)
      in
      ignore (Wutil.ok (Ksyscall.Usyscall.sys_close sys ~fd));
      Bytes.set_int64_le b 0 (Int64.of_int n);
      cs.nc_pending <-
        cs.nc_pending @ [ Pbuf { pb = b; pb_off = 0; pb_stop = 8 + n } ]
  | Net_consolidated ->
      let path = t.npaths.(idx) in
      let body =
        Wutil.ok (Ksyscall.Usyscall.sys_open_read_close sys ~path ~maxlen:max_int)
      in
      cs.nc_pending <-
        cs.nc_pending
        @ [ Pbytes (Bytes.cat (net_header (Bytes.length body)) body) ]
  | Net_sendfile | Net_ring ->
      let fd, size = t.ndocs.(idx) in
      cs.nc_pending <-
        cs.nc_pending
        @ [ Pbytes (net_header size);
            Pfile { pf_fd = fd; pf_off = 0; pf_left = size } ]);
    t.nserved <- t.nserved + 1
  end

(* Feed received bytes to the request parser; empty bytes from a plain
   recv mean end-of-stream. *)
let net_feed t cs data =
  if Bytes.length data = 0 then cs.nc_eof <- true
  else begin
    List.iter
      (fun line -> net_queue_response t cs (net_parse_doc line))
      (net_take_lines cs data)
  end

(* EP_OUT interest is registered only while there is pending output —
   otherwise a level-triggered loop would spin on always-writable
   sockets.  Re-adding replaces the mask, epoll_ctl(MOD) style. *)
let net_set_out t cs want =
  if want <> cs.nc_out then begin
    let mask = if want then Knet.ep_in lor Knet.ep_out else Knet.ep_in in
    Wutil.ok
      (Ksyscall.Usyscall.sys_epoll_ctl t.nsys ~ep:t.nep ~sock:cs.nc_fd
         ~add:true ~mask ~cookie:cs.nc_fd);
    cs.nc_out <- want
  end

let net_close_conn t cs =
  ignore
    (Ksyscall.Usyscall.sys_epoll_ctl t.nsys ~ep:t.nep ~sock:cs.nc_fd ~add:false
       ~mask:0 ~cookie:0);
  ignore (Wutil.ok (Ksyscall.Usyscall.sys_close t.nsys ~fd:cs.nc_fd));
  Hashtbl.remove t.nconns cs.nc_fd

(* Push pending output into the socket until it would block; on
   backpressure register EP_OUT and resume when the socket drains. *)
let rec net_flush t cs =
  match cs.nc_pending with
  | [] -> if cs.nc_eof then net_close_conn t cs else net_set_out t cs false
  | Pbytes b :: rest -> (
      match
        Ksyscall.Usyscall.sys_send t.nsys ~sock:cs.nc_fd ~data:b ~off:0
          ~len:(Bytes.length b)
      with
      | Ok n when n = Bytes.length b ->
          t.nsent <- t.nsent + n;
          cs.nc_pending <- rest;
          net_flush t cs
      | Ok n ->
          t.nsent <- t.nsent + n;
          cs.nc_pending <- Pbytes (Bytes.sub b n (Bytes.length b - n)) :: rest;
          net_set_out t cs true
      | Error Kvfs.Vtypes.ENOBUFS -> net_set_out t cs true
      | Error e -> net_fail e)
  | Pbuf p :: rest -> (
      let len = p.pb_stop - p.pb_off in
      match
        Ksyscall.Usyscall.sys_send t.nsys ~sock:cs.nc_fd ~data:p.pb
          ~off:p.pb_off ~len
      with
      | Ok n when n = len ->
          t.nsent <- t.nsent + n;
          cs.nc_pending <- rest;
          Stack.push p.pb t.nfree;
          net_flush t cs
      | Ok n ->
          t.nsent <- t.nsent + n;
          p.pb_off <- p.pb_off + n;
          net_set_out t cs true
      | Error Kvfs.Vtypes.ENOBUFS -> net_set_out t cs true
      | Error e -> net_fail e)
  | Pfile pf :: rest -> (
      match
        Ksyscall.Usyscall.sys_sendfile_sock t.nsys ~sock:cs.nc_fd ~fd:pf.pf_fd
          ~off:pf.pf_off ~len:pf.pf_left
      with
      | Ok 0 -> net_set_out t cs true
      | Ok n ->
          t.nsent <- t.nsent + n;
          pf.pf_off <- pf.pf_off + n;
          pf.pf_left <- pf.pf_left - n;
          if pf.pf_left = 0 then cs.nc_pending <- rest;
          net_flush t cs
      | Error Kvfs.Vtypes.ENOBUFS -> net_set_out t cs true
      | Error e -> net_fail e)

let net_add_conn t fd =
  let cs =
    { nc_fd = fd; nc_partial = ""; nc_pending = [];
      nc_out = false; nc_eof = false }
  in
  Hashtbl.replace t.nconns fd cs;
  Wutil.ok
    (Ksyscall.Usyscall.sys_epoll_ctl t.nsys ~ep:t.nep ~sock:fd ~add:true
       ~mask:Knet.ep_in ~cookie:fd);
  cs

(* Drain the accept backlog.  The consolidated variant picks up the
   connection and its first request bytes in one crossing. *)
let net_accept_all t =
  let continue = ref true in
  while !continue do
    match t.ncfg.variant with
    | Net_consolidated -> (
        match
          Ksyscall.Usyscall.sys_accept_recv t.nsys ~sock:t.nlisten
            ~len:net_chunk
        with
        | Ok (fd, data) ->
            let cs = net_add_conn t fd in
            (* empty here means "no bytes yet", not EOF: a client FIN
               can only follow its final response *)
            if Bytes.length data > 0 then net_feed t cs data;
            net_flush t cs
        | Error Kvfs.Vtypes.EAGAIN -> continue := false
        | Error e -> net_fail e)
    | Net_naive | Net_sendfile | Net_ring -> (
        match Ksyscall.Usyscall.sys_accept t.nsys ~sock:t.nlisten with
        | Ok fd -> ignore (net_add_conn t fd)
        | Error Kvfs.Vtypes.EAGAIN -> continue := false
        | Error e -> net_fail e)
  done

(* One readable connection, synchronous variants.  Consolidated overlaps
   the recv with sending the head of the pending queue when there is
   one (recv_send folds an empty recv into Ok, so EOF is confirmed with
   a plain recv when the event carries HUP). *)
let net_handle_readable t cs mask =
  (match (t.ncfg.variant, cs.nc_pending) with
  | Net_consolidated, Pbytes b :: rest ->
      let sent, data =
        Wutil.ok
          (Ksyscall.Usyscall.sys_recv_send t.nsys ~sock:cs.nc_fd ~len:net_chunk
             ~data:b)
      in
      t.nsent <- t.nsent + sent;
      if sent = Bytes.length b then cs.nc_pending <- rest
      else if sent > 0 then
        cs.nc_pending <- Pbytes (Bytes.sub b sent (Bytes.length b - sent)) :: rest;
      if Bytes.length data > 0 then net_feed t cs data
      else if mask land Knet.ep_hup <> 0 then begin
        match Ksyscall.Usyscall.sys_recv t.nsys ~sock:cs.nc_fd ~len:net_chunk with
        | Ok b -> net_feed t cs b
        | Error Kvfs.Vtypes.EAGAIN -> ()
        | Error e -> net_fail e
      end
  | _ -> (
      match Ksyscall.Usyscall.sys_recv t.nsys ~sock:cs.nc_fd ~len:net_chunk with
      | Ok data -> net_feed t cs data
      | Error Kvfs.Vtypes.EAGAIN -> ()
      | Error e -> net_fail e));
  net_flush t cs

(* Ring variant: batch this round's recvs through one ring crossing,
   then repeatedly batch one head-of-queue send (or sendfile) per
   connection — never two in-flight items from the same connection, so
   per-connection byte order is preserved even under partial sends. *)
let net_step_ring t ring events =
  let readable =
    List.filter_map
      (fun (cookie, mask) ->
        if cookie = t.nlisten || mask land (Knet.ep_in lor Knet.ep_hup) = 0
        then None
        else
          Option.map (fun cs -> cs) (Hashtbl.find_opt t.nconns cookie))
      events
  in
  let comps =
    Kring.run_batch ring
      (List.map
         (fun cs -> Ksyscall.Syscall.Recv { sock = cs.nc_fd; len = net_chunk })
         readable)
  in
  List.iter2
    (fun cs (comp : Kring.completion) ->
      match comp.Kring.reply with
      | Ok (Ksyscall.Syscall.R_bytes data) -> net_feed t cs data
      | Error Kvfs.Vtypes.EAGAIN -> ()
      | Error e -> net_fail e
      | Ok _ -> assert false)
    readable comps;
  (* a drained connection with nothing left to send never enters the
     send batches below, so close it here or its HUP stays ready *)
  List.iter
    (fun cs ->
      if cs.nc_eof && cs.nc_pending = [] && Hashtbl.mem t.nconns cs.nc_fd then
        net_close_conn t cs)
    readable;
  (* flush requests raised by EP_OUT events through the same batcher *)
  let writable =
    List.filter_map
      (fun (cookie, mask) ->
        if cookie = t.nlisten || mask land Knet.ep_out = 0 then None
        else Hashtbl.find_opt t.nconns cookie)
      events
  in
  let active =
    ref
      (List.sort_uniq
         (fun a b -> compare a.nc_fd b.nc_fd)
         (List.filter (fun cs -> cs.nc_pending <> []) (readable @ writable)))
  in
  while !active <> [] do
    let batch =
      List.map
        (fun cs ->
          match cs.nc_pending with
          | Pbytes b :: _ ->
              Ksyscall.Syscall.Send
                { sock = cs.nc_fd; data = b; off = 0; len = Bytes.length b }
          | Pfile pf :: _ ->
              Ksyscall.Syscall.Sendfile_sock
                { sock = cs.nc_fd; fd = pf.pf_fd; off = pf.pf_off;
                  len = pf.pf_left }
          | Pbuf _ :: _ | [] -> assert false)
        !active
    in
    let comps = Kring.run_batch ring batch in
    let next = ref [] in
    List.iter2
      (fun cs (comp : Kring.completion) ->
        let blocked =
          match (cs.nc_pending, comp.Kring.reply) with
          | Pbytes b :: rest, Ok (Ksyscall.Syscall.R_int n) ->
              t.nsent <- t.nsent + n;
              if n = Bytes.length b then begin
                cs.nc_pending <- rest;
                false
              end
              else begin
                if n > 0 then
                  cs.nc_pending <-
                    Pbytes (Bytes.sub b n (Bytes.length b - n)) :: rest;
                true
              end
          | Pfile pf :: rest, Ok (Ksyscall.Syscall.R_int n) ->
              t.nsent <- t.nsent + n;
              pf.pf_off <- pf.pf_off + n;
              pf.pf_left <- pf.pf_left - n;
              if pf.pf_left = 0 then begin
                cs.nc_pending <- rest;
                false
              end
              else n = 0
          | _, Error Kvfs.Vtypes.ENOBUFS -> true
          | _, Error e -> net_fail e
          | _, Ok _ -> assert false
        in
        if blocked then net_set_out t cs true
        else if cs.nc_pending <> [] then next := cs :: !next
        else if cs.nc_eof then net_close_conn t cs
        else net_set_out t cs false)
      !active comps;
    active := List.rev !next
  done

let net_done t =
  t.ninit
  && Knet.Traffic.completed (Ksyscall.Systable.net t.nsys) ~port:t.ncfg.port
     = t.ncfg.conns
  && Hashtbl.length t.nconns = 0

(* One epoll round.  [false] when every connection has been served and
   closed (checked before blocking, so the loop terminates instead of
   sleeping on an exhausted event heap). *)
let net_step t =
  if not t.ninit then begin
    net_init t;
    true
  end
  else if net_done t then false
  else begin
    let events =
      Wutil.ok
        (Ksyscall.Usyscall.sys_epoll_wait t.nsys ~ep:t.nep
           ~max:t.ncfg.epoll_batch)
    in
    if events = [] then false (* traffic exhausted; nothing left to serve *)
    else begin
      if
        List.exists
          (fun (c, m) -> c = t.nlisten && m land Knet.ep_in <> 0)
          events
      then net_accept_all t;
      (match t.nring with
      | Some ring -> net_step_ring t ring events
      | None ->
          List.iter
            (fun (cookie, mask) ->
              if cookie <> t.nlisten then
                match Hashtbl.find_opt t.nconns cookie with
                | None -> ()
                | Some cs ->
                    if mask land (Knet.ep_in lor Knet.ep_hup) <> 0 then
                      net_handle_readable t cs mask
                    else if mask land Knet.ep_out <> 0 then net_flush t cs)
            events);
      true
    end
  end

let run_net ?(config = net_default_config) sys =
  let kernel = Ksyscall.Systable.kernel sys in
  let t = net_make ~config sys in
  let (), times =
    Ksim.Kernel.timed kernel (fun () -> while net_step t do () done)
  in
  (* release the listener, epoll instance and cached document fds so a
     rerun on the same system can rebind the port *)
  ignore (Ksyscall.Usyscall.sys_close sys ~fd:t.nlisten);
  ignore (Ksyscall.Usyscall.sys_close sys ~fd:t.nep);
  Array.iter (fun (fd, _) -> ignore (Ksyscall.Usyscall.sys_close sys ~fd)) t.ndocs;
  let knet = Ksyscall.Systable.net sys in
  {
    n_served = t.nserved;
    n_sent = t.nsent;
    n_completed = Knet.Traffic.completed knet ~port:config.port;
    n_drops = Knet.Traffic.drops knet ~port:config.port;
    n_shed = t.nshed;
    n_digest = Knet.Traffic.digest knet ~port:config.port;
    n_times = times;
  }
