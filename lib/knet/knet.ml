(* knet: deterministic, cycle-accounted sockets for the simulated kernel.

   The server half (listeners, backlogs, bounded per-connection buffers,
   level-triggered epoll) is real data structures; the client half is a
   discrete-event traffic generator on a global min-heap keyed by
   (due-cycle, insertion-seq), so a run is a deterministic function of
   the installed traffic specs and the cost model.  Blocking epoll_wait
   advances the simulated clock as I/O wait — the process is asleep on a
   wait queue until the "NIC" delivers something interesting. *)

module Kernel = Ksim.Kernel
module Kproc = Ksim.Kproc
module Instrument = Ksim.Instrument
module V = Kvfs.Vtypes

let handle_base = 0x4000_0000
let ep_in = 1
let ep_out = 2
let ep_hup = 4

let backlog_drop = Instrument.custom "net-backlog-drop"

(* Free byte buffers, one free list per size class: class [k] holds
   buffers of exactly [min_cap lsl k] bytes.  A request pops only from
   its own class, so a small free buffer is never popped, found too
   small and pushed back.  Each socket stack owns its pool ([t.pool]),
   so two kernels never share a buffer. *)
module Pool = struct
  type t = Bytes.t list array

  let min_cap = 256

  (* 256 B .. 1 GB: far past any queue bound *)
  let create () : t = Array.make 23 []

  let class_of len =
    let k = ref 0 in
    while min_cap lsl !k < len do
      incr k
    done;
    !k

  (* A buffer of at least [len] bytes, recycled when the class has one. *)
  let take p len =
    let k = class_of len in
    match p.(k) with
    | b :: rest ->
        p.(k) <- rest;
        b
    | [] -> Bytes.create (min_cap lsl k)

  let give p b =
    let k = class_of (Bytes.length b) in
    p.(k) <- b :: p.(k)

  (* Every free buffer, each checked to be exactly its class's size. *)
  let free_buffers p =
    Array.to_list p
    |> List.mapi (fun k free ->
           List.map (fun b -> (Bytes.length b = min_cap lsl k, b)) free)
    |> List.concat
end

(* A byte FIFO over pooled storage: the live bytes are
   [buf.[off .. off + len - 1]].  A queue takes its storage from the pool
   on its first push and hands it back on [release]; in between it grows
   by moving to the next size class. *)
module Bq = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create () = { buf = Bytes.empty; off = 0; len = 0 }
  let length q = q.len

  let release pool q =
    if Bytes.length q.buf > 0 then Pool.give pool q.buf;
    q.buf <- Bytes.empty;
    q.off <- 0;
    q.len <- 0

  (* Room for [n] more bytes at the tail: slide the live bytes to the
     front when that is enough, else move them to a bigger buffer. *)
  let reserve pool q n =
    let need = q.len + n in
    let cap = Bytes.length q.buf in
    if q.off + need > cap then
      if need <= cap then begin
        Bytes.blit q.buf q.off q.buf 0 q.len;
        q.off <- 0
      end
      else begin
        let b = Pool.take pool need in
        let len = q.len in
        Bytes.blit q.buf q.off b 0 len;
        release pool q;
        q.buf <- b;
        q.len <- len
      end

  let push_sub pool q s pos n =
    reserve pool q n;
    Bytes.blit_string s pos q.buf (q.off + q.len) n;
    q.len <- q.len + n

  let push_bytes_sub pool q b pos n =
    reserve pool q n;
    Bytes.blit b pos q.buf (q.off + q.len) n;
    q.len <- q.len + n

  (* Consume a prefix in place. *)
  let drop q n =
    q.off <- q.off + n;
    q.len <- q.len - n;
    if q.len = 0 then q.off <- 0

  let take q n =
    let n = min n q.len in
    let b = Bytes.sub q.buf q.off n in
    drop q n;
    b
end

module Heap = struct
  (* Binary min-heap on (due, seq): FIFO among events due the same cycle. *)
  type 'a t = { mutable arr : (int * int * 'a) option array; mutable len : int }

  let create () = { arr = Array.make 64 None; len = 0 }
  let is_empty h = h.len = 0
  let get h i = match h.arr.(i) with Some e -> e | None -> assert false

  let less (d1, s1, _) (d2, s2, _) = d1 < d2 || (d1 = d2 && s1 < s2)

  let push h due seq ev =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) None in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- Some (due, seq, ev);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if less (get h !i) (get h p) then begin
        let tmp = h.arr.(!i) in
        h.arr.(!i) <- h.arr.(p);
        h.arr.(p) <- tmp;
        i := p;
        true
      end
      else false
    do
      ()
    done

  (* [peek] and [pop] hand out the stored cell itself, so neither
     allocates; slot 0 is [None] whenever the heap is empty. *)
  let peek h = h.arr.(0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- None;
      let i = ref 0 in
      let continue = ref (h.len > 1) in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && less (get h l) (get h !smallest) then smallest := l;
        if r < h.len && less (get h r) (get h !smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!i) in
          h.arr.(!i) <- h.arr.(!smallest);
          h.arr.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      top
    end
end

(* One simulated client driving one connection. *)
type client = {
  cl_seq : int;                      (* arrival index within its port *)
  cl_port : int;
  cl_total : int;                    (* requests it will issue *)
  cl_pipeline : int;
  cl_think : int;
  cl_req_of : int -> string;
  mutable cl_conn : int;             (* conn sock id; -1 before connect *)
  mutable cl_sent : int;
  mutable cl_done : int;
  cl_hdr : Bytes.t;                  (* 8-byte response length accumulator *)
  mutable cl_hdr_got : int;
  mutable cl_body_left : int;
  cl_sent_at : int Queue.t;          (* client-side send instants, FIFO *)
  cl_span : int Queue.t;             (* kperf async span ids, same FIFO *)
  cl_resp : Bq.t;                    (* raw response stream until digest *)
  mutable cl_finished : bool;
  mutable cl_fails : int;            (* consecutive failures, drives backoff *)
  mutable cl_drops : int;            (* consecutive wire drops of the head
                                        frame, bounded by [wire_retries] *)
  mutable cl_txq : string list;      (* unacked tx data, strict FIFO: a
                                        retransmitted frame keeps its place
                                        at the head, so later pipelined
                                        frames cannot overtake it *)
}

type conn = {
  cn_id : int;
  cn_port : int;
  cn_recv : Bq.t;                    (* client -> server *)
  cn_send : Bq.t;                    (* server -> client, awaiting drain *)
  mutable cn_peer_closed : bool;
  mutable cn_closed : bool;
  mutable cn_accepted : bool;
  mutable cn_drain_scheduled : bool;
  mutable cn_client : client option;
}

type listener = {
  l_id : int;
  l_port : int;
  mutable l_backlog : int;
  l_queue : int Queue.t;             (* conn ids awaiting accept *)
  mutable l_drops : int;
}

type sock =
  | S_new of { mutable sn_port : int }
  | S_listen of listener
  | S_conn of conn

(* An epoll interest set indexed by socket id.  Ids are dense and never
   reused, so walking the arrays upward from [ep_low] visits the
   registrations in creation order without a fold or a sort. *)
type ep = {
  mutable ep_mask : int array;       (* per sock id; -1 = not registered *)
  mutable ep_cookie : int array;
  mutable ep_count : int;            (* registered sockets *)
  mutable ep_low : int;              (* no registration below this id *)
}

type ev =
  | Ev_connect of client
  | Ev_deliver of client
      (* a delivery tick: the payload lives in [cl_txq], not the event,
         so per-connection byte order survives retransmit delays *)
  | Ev_drain of int

type port_state = {
  ps_conns : int;
  mutable ps_completed : int;
  mutable ps_responses : int;
  mutable ps_drops : int;
  mutable ps_retrans : int;          (* wire frames lost and re-sent *)
  ps_digests : string array;         (* per-connection, arrival order *)
}

type t = {
  kn : Kernel.t;
  rcvbuf : int;
  sndbuf : int;
  socks : (int, sock) Hashtbl.t;
  eps : (int, ep) Hashtbl.t;
  ports : (int, int) Hashtbl.t;      (* port -> listener sock id *)
  heap : ev Heap.t;
  mutable seq : int;                 (* heap insertion tiebreaker *)
  mutable next_id : int;
  traffic : (int, port_state) Hashtbl.t;
  mutable stage : Bytes.t;           (* shared transmit staging region *)
  pool : Pool.t;                     (* free queue storage *)
  mutable touched_a : int;           (* sock ids the last event may have *)
  mutable touched_b : int;           (* made ready; -1 = none *)
  (* kstats handles *)
  stats : Kstats.t;
  st_conns : Kstats.counter;
  st_accepts : Kstats.counter;
  st_drops : Kstats.counter;
  st_sendq_full : Kstats.counter;
  st_rcvq_full : Kstats.counter;
  st_bytes_in : Kstats.counter;
  st_bytes_out : Kstats.counter;
  st_epoll_waits : Kstats.counter;
  st_epoll_wakeups : Kstats.counter;
  st_sendfile_bytes : Kstats.counter;
  st_stage_hw : Kstats.gauge;
  st_latency : Kstats.hist;
  st_redials : Kstats.counter;
  st_retransmits : Kstats.counter;
  st_backoff_cycles : Kstats.counter;
  fault : Kfault.t;
  site_wire_drop : Kfault.site;
  site_recv_short : Kfault.site;
}

let create ?(rcvbuf = 16 * 1024) ?(sndbuf = 32 * 1024) kn =
  let stats = Kernel.stats kn in
  {
    kn;
    rcvbuf;
    sndbuf;
    socks = Hashtbl.create 64;
    eps = Hashtbl.create 4;
    ports = Hashtbl.create 4;
    heap = Heap.create ();
    seq = 0;
    next_id = 1;
    traffic = Hashtbl.create 4;
    stage = Bytes.create 0;
    pool = Pool.create ();
    touched_a = -1;
    touched_b = -1;
    stats;
    st_conns = Kstats.counter stats "net.conns";
    st_accepts = Kstats.counter stats "net.accepts";
    st_drops = Kstats.counter stats "net.backlog_drops";
    st_sendq_full = Kstats.counter stats "net.sendq_full";
    st_rcvq_full = Kstats.counter stats "net.rcvq_full";
    st_bytes_in = Kstats.counter stats "net.bytes_in";
    st_bytes_out = Kstats.counter stats "net.bytes_out";
    st_epoll_waits = Kstats.counter stats "net.epoll.waits";
    st_epoll_wakeups = Kstats.counter stats "net.epoll.wakeups";
    st_sendfile_bytes = Kstats.counter stats "net.sendfile.bytes";
    st_stage_hw = Kstats.gauge stats "net.sendfile.stage_high_water";
    st_latency = Kstats.histogram stats "net.request.latency";
    st_redials = Kstats.counter stats "retry.net_redials";
    st_retransmits = Kstats.counter stats "retry.net_retransmits";
    st_backoff_cycles = Kstats.counter stats "retry.net_backoff_cycles";
    fault = Kernel.fault kn;
    site_wire_drop = Kfault.register (Kernel.fault kn) "net.wire_drop";
    site_recv_short = Kfault.register (Kernel.fault kn) "net.recv_short";
  }

let kernel t = t.kn
let now t = Kernel.now t.kn
let charge t = Kernel.charge_kernel t.kn (Kernel.cost t.kn).net_op
let wire t = (Kernel.cost t.kn).wire_latency

let push_ev t due ev =
  t.seq <- t.seq + 1;
  Heap.push t.heap (max due (now t)) t.seq ev

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let pending_events t = t.heap.Heap.len

(* ---------- client side (runs at event-processing time) ---------- *)

let port_state t port = Hashtbl.find_opt t.traffic port

let schedule_request t cl ~req ~send_at =
  Queue.push send_at cl.cl_sent_at;
  (* a request outlives any single syscall — send, kernel-side service,
     drain, client rx can each happen in different kernel stays — so it
     is an *async* span, keyed by id on its own Perfetto track *)
  Queue.push
    (Kperf.async_begin (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"net"
       ~name:"request" ())
    cl.cl_span;
  cl.cl_txq <- cl.cl_txq @ [ cl.cl_req_of req ];
  push_ev t (send_at + wire t) (Ev_deliver cl)

let response_done t cl =
  cl.cl_done <- cl.cl_done + 1;
  (match Queue.take_opt cl.cl_sent_at with
  | Some sent -> Kstats.observe t.stats t.st_latency (now t - sent)
  | None -> ());
  (match Queue.take_opt cl.cl_span with
  | Some span -> Kperf.async_end (Kernel.perf t.kn) ~arg:cl.cl_port span
  | None -> ());
  (match port_state t cl.cl_port with
  | Some ps -> ps.ps_responses <- ps.ps_responses + 1
  | None -> ());
  if cl.cl_done >= cl.cl_total then begin
    cl.cl_finished <- true;
    (match port_state t cl.cl_port with
    | Some ps ->
        let q = cl.cl_resp in
        ps.ps_digests.(cl.cl_seq) <-
          Digest.to_hex (Digest.subbytes q.Bq.buf q.Bq.off q.Bq.len);
        ps.ps_completed <- ps.ps_completed + 1
    | None -> ());
    Bq.release t.pool cl.cl_resp;
    (* FIN rides the final ack: the server sees EOF once it drains. *)
    match Hashtbl.find_opt t.socks cl.cl_conn with
    | Some (S_conn c) -> c.cn_peer_closed <- true
    | _ -> ()
  end
  else if cl.cl_sent < cl.cl_total then begin
    let send_at = now t + cl.cl_think in
    schedule_request t cl ~req:cl.cl_sent ~send_at;
    cl.cl_sent <- cl.cl_sent + 1
  end

(* Parse [len] drained bytes of [b] from [off] against the
   8-byte-length + body framing. *)
let client_rx t cl b off len =
  Bq.push_bytes_sub t.pool cl.cl_resp b off len;
  let stop = off + len in
  let pos = ref off in
  while !pos < stop && not cl.cl_finished do
    if cl.cl_body_left > 0 then begin
      let n = min cl.cl_body_left (stop - !pos) in
      cl.cl_body_left <- cl.cl_body_left - n;
      pos := !pos + n;
      if cl.cl_body_left = 0 then response_done t cl
    end
    else begin
      let n = min (8 - cl.cl_hdr_got) (stop - !pos) in
      Bytes.blit b !pos cl.cl_hdr cl.cl_hdr_got n;
      cl.cl_hdr_got <- cl.cl_hdr_got + n;
      pos := !pos + n;
      if cl.cl_hdr_got = 8 then begin
        cl.cl_body_left <- Int64.to_int (Bytes.get_int64_le cl.cl_hdr 0);
        cl.cl_hdr_got <- 0;
        if cl.cl_body_left = 0 then response_done t cl
      end
    end
  done

(* ---------- NIC-side injection ---------- *)

type connect_result = C_ok of int * int | C_drop of int | C_refused

let connect_attempt t ~port ~client =
  match Hashtbl.find_opt t.ports port with
  | None -> C_refused
  | Some lid -> (
      match Hashtbl.find_opt t.socks lid with
      | Some (S_listen l) when l.l_backlog > 0 ->
          if Queue.length l.l_queue >= l.l_backlog then begin
            l.l_drops <- l.l_drops + 1;
            Kstats.incr t.stats t.st_drops;
            (match port_state t port with
            | Some ps -> ps.ps_drops <- ps.ps_drops + 1
            | None -> ());
            Instrument.emit ~obj:port ~value:l.l_drops ~kind:backlog_drop
              ~file:"knet.ml" ~line:0 ();
            Kperf.instant (Kernel.perf t.kn) ~arg:port ~cat:"net"
              ~name:"backlog_drop" ();
            C_drop lid
          end
          else begin
            let id = fresh_id t in
            let c =
              {
                cn_id = id;
                cn_port = port;
                cn_recv = Bq.create ();
                cn_send = Bq.create ();
                cn_peer_closed = false;
                cn_closed = false;
                cn_accepted = false;
                cn_drain_scheduled = false;
                cn_client = client;
              }
            in
            Hashtbl.replace t.socks id (S_conn c);
            Queue.push id l.l_queue;
            Kstats.incr t.stats t.st_conns;
            C_ok (lid, id)
          end
      | _ -> C_refused)

let inject_connect t ~port =
  match connect_attempt t ~port ~client:None with
  | C_ok (_, id) -> Some id
  | C_drop _ | C_refused -> None

(* Errno-carrying variant: the two rejection paths are distinct — a SYN
   dropped by a full backlog looks like a timeout to the client, while a
   port nobody listens on is actively refused. *)
let inject_connect_result t ~port =
  match connect_attempt t ~port ~client:None with
  | C_ok (_, id) -> Ok id
  | C_drop _ -> Error V.ETIMEDOUT
  | C_refused -> Error V.ECONNREFUSED

let deliver_bytes t c s pos len =
  let space = t.rcvbuf - Bq.length c.cn_recv in
  let n = min space len in
  if n < len then Kstats.incr t.stats t.st_rcvq_full;
  if n > 0 then begin
    Bq.push_sub t.pool c.cn_recv s pos n;
    Kstats.add t.stats t.st_bytes_in n
  end;
  n

let inject_bytes t ~sock s =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) when not c.cn_closed ->
      deliver_bytes t c s 0 (String.length s)
  | _ -> 0

let inject_fin t ~sock =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) -> c.cn_peer_closed <- true
  | _ -> ()

(* ---------- event processing ---------- *)

(* Exponential backoff for a client's consecutive failures: the first
   retry keeps the historical 4*wire delay, each further consecutive
   failure doubles it (capped at 32*wire), and any success resets the
   streak.  The extra wait is pure simulated elapsed time — the client
   is asleep, not burning CPU — counted in retry.net_backoff_cycles. *)
let backoff_delay t cl =
  let base = 4 * wire t in
  let d = base * (1 lsl min cl.cl_fails 3) in
  if d > base then Kstats.add t.stats t.st_backoff_cycles (d - base);
  cl.cl_fails <- cl.cl_fails + 1;
  d

(* Retransmits a client makes for one frame before it gives up, as
   Linux's tcp_retries2 does. *)
let wire_retries = 15

(* The retransmit budget ran out: the client abandons the connection the
   way TCP times one out (retry.net_timeouts, registered on first use).
   It stops reading, so later drains are discarded, its open request
   spans end, and the server sees the peer gone. *)
let time_out t cl c =
  Kstats.incr t.stats (Kstats.counter t.stats "retry.net_timeouts");
  cl.cl_finished <- true;
  cl.cl_txq <- [];
  Bq.release t.pool cl.cl_resp;
  Queue.iter
    (fun span -> Kperf.async_end (Kernel.perf t.kn) ~arg:cl.cl_port span)
    cl.cl_span;
  Queue.clear cl.cl_span;
  c.cn_peer_closed <- true

let touch t a b =
  t.touched_a <- a;
  t.touched_b <- b

(* Records in [touched_a]/[touched_b] the sock ids whose readiness the
   event may have changed. *)
let process_event t = function
  | Ev_connect cl -> (
      match connect_attempt t ~port:cl.cl_port ~client:(Some cl) with
      | C_ok (lid, id) ->
          cl.cl_fails <- 0;
          cl.cl_conn <- id;
          let burst = min cl.cl_pipeline cl.cl_total in
          for k = 0 to burst - 1 do
            (* tiny per-request skew keeps deliveries ordered *)
            schedule_request t cl ~req:k ~send_at:(now t + (k * 16))
          done;
          cl.cl_sent <- burst;
          touch t lid id
      | C_drop lid ->
          (* client backs off and redials *)
          Kstats.incr t.stats t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          touch t lid (-1)
      | C_refused ->
          Kstats.incr t.stats t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          touch t (-1) (-1))
  | Ev_deliver cl -> (
      match (Hashtbl.find_opt t.socks cl.cl_conn, cl.cl_txq) with
      | Some (S_conn c), data :: rest when not c.cn_closed ->
          if Kfault.fire t.fault t.site_wire_drop then begin
            cl.cl_drops <- cl.cl_drops + 1;
            if cl.cl_drops > wire_retries then time_out t cl c
            else begin
              (* the frame vanishes on the wire; the client's retransmit
                 timer re-sends the whole payload after a backoff.  The
                 data stays at the head of the tx queue, so pipelined
                 frames behind it wait their turn, as TCP's sequence
                 numbers would make them *)
              Kstats.incr t.stats t.st_retransmits;
              (match port_state t cl.cl_port with
              | Some ps -> ps.ps_retrans <- ps.ps_retrans + 1
              | None -> ());
              Kperf.instant (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"retry"
                ~name:"net.retransmit" ();
              push_ev t (now t + backoff_delay t cl) (Ev_deliver cl)
            end;
            touch t c.cn_id (-1)
          end
          else begin
            cl.cl_fails <- 0;
            cl.cl_drops <- 0;
            let len = String.length data in
            let n = deliver_bytes t c data 0 len in
            if n < len then begin
              cl.cl_txq <- String.sub data n (len - n) :: rest;
              push_ev t (now t + (max 1 (wire t / 4))) (Ev_deliver cl)
            end
            else cl.cl_txq <- rest;
            touch t c.cn_id (-1)
          end
      | _ -> touch t (-1) (-1))
  | Ev_drain id -> (
      match Hashtbl.find_opt t.socks id with
      | Some (S_conn c) ->
          c.cn_drain_scheduled <- false;
          let q = c.cn_send in
          let n = Bq.length q in
          if n > 0 then begin
            (* the client reads the queued bytes where they lie *)
            Kstats.add t.stats t.st_bytes_out n;
            (match c.cn_client with
            | Some cl when not cl.cl_finished -> client_rx t cl q.buf q.off n
            | _ -> ());
            Bq.drop q n
          end;
          touch t id (-1)
      | None | Some (S_new _) | Some (S_listen _) -> touch t (-1) (-1))

let pump t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.heap with
    | Some (due, _, _) when due <= now t ->
        (match Heap.pop t.heap with
        | Some (_, _, ev) -> process_event t ev
        | None -> ())
    | _ -> continue := false
  done

(* Advance the clock (I/O wait) to the next event and process it. *)
let advance_and_process t =
  match Heap.pop t.heap with
  | None -> touch t (-1) (-1)
  | Some (due, _, ev) ->
      if due > now t then Kernel.charge_io t.kn (due - now t);
      process_event t ev

let step t =
  if Heap.is_empty t.heap then false
  else begin
    advance_and_process t;
    true
  end

(* ---------- socket operations ---------- *)

let socket t =
  charge t;
  let id = fresh_id t in
  Hashtbl.replace t.socks id (S_new { sn_port = 0 });
  id

let bind t ~sock ~port =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if port <= 0 then Error V.EINVAL
      else if Hashtbl.mem t.ports port then Error V.EADDRINUSE
      else begin
        s.sn_port <- port;
        Hashtbl.replace t.ports port sock;
        Ok ()
      end
  | Some (S_listen _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let listen t ~sock ~backlog =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if s.sn_port = 0 then Error V.EINVAL
      else if backlog <= 0 then Error V.EINVAL
      else begin
        Hashtbl.replace t.socks sock
          (S_listen
             {
               l_id = sock;
               l_port = s.sn_port;
               l_backlog = backlog;
               l_queue = Queue.create ();
               l_drops = 0;
             });
        Ok ()
      end
  | Some (S_listen l) ->
      l.l_backlog <- backlog;
      Ok ()
  | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let accept t ~sock =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_listen l) -> (
      match Queue.take_opt l.l_queue with
      | Some id ->
          (match Hashtbl.find_opt t.socks id with
          | Some (S_conn c) -> c.cn_accepted <- true
          | _ -> ());
          Kstats.incr t.stats t.st_accepts;
          Kperf.instant (Kernel.perf t.kn) ~arg:id ~cat:"net" ~name:"accept"
            ();
          Ok id
      | None -> Error V.EAGAIN)
  | Some (S_new _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let conn_of t sock =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) -> Ok c
  | Some (S_new _) | Some (S_listen _) -> Error V.ENOTSOCK
  | None -> Error V.EBADF

let recv t ~sock ~len =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> Bytes.empty)
  | Ok c ->
      let avail = Bq.length c.cn_recv in
      if avail = 0 then
        if c.cn_peer_closed then Ok Bytes.empty else Error V.EAGAIN
      else begin
        let want = min (max 0 len) avail in
        (* injected short read: the NIC handed over only part of the
           queued bytes; callers loop on recv, so streams stay intact *)
        let want =
          if want > 1 && Kfault.fire t.fault t.site_recv_short then
            (want + 1) / 2
          else want
        in
        Ok (Bq.take c.cn_recv want)
      end

let schedule_drain t c =
  if (not c.cn_drain_scheduled) && Bq.length c.cn_send > 0 then begin
    c.cn_drain_scheduled <- true;
    push_ev t (now t + wire t) (Ev_drain c.cn_id)
  end

let send_space t ~sock =
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> Ok (t.sndbuf - Bq.length c.cn_send)

let append_out t c data len =
  let space = t.sndbuf - Bq.length c.cn_send in
  let n = min space len in
  if n = 0 && len > 0 then begin
    Kstats.incr t.stats t.st_sendq_full;
    (* a completely full send queue is its own condition (ENOBUFS),
       distinct from the would-block EAGAIN of an empty recv queue *)
    Error V.ENOBUFS
  end
  else begin
    if n < len then Kstats.incr t.stats t.st_sendq_full;
    Bq.push_bytes_sub t.pool c.cn_send data 0 n;
    schedule_drain t c;
    Ok n
  end

let send t ~sock ~data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> append_out t c data (Bytes.length data)

(* Zero-copy transmit: the payload reaches the send queue through the
   kernel-owned staging region instead of a user buffer, so no
   copy_{from,to}_user bytes are charged (the DMA cost is the caller's,
   mirroring Consolidated.service_sendfile). *)
let send_kernel t ~sock data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c ->
      let len = Bytes.length data in
      if Bytes.length t.stage < len then begin
        let cap = max 4096 len in
        t.stage <- Bytes.create cap
      end;
      Bytes.blit data 0 t.stage 0 len;
      Kstats.set t.stats t.st_stage_hw len;
      let r = append_out t c t.stage len in
      (match r with
      | Ok n -> Kstats.add t.stats t.st_sendfile_bytes n
      | Error _ -> ());
      r

(* ---------- epoll ---------- *)

let interest e id = if id < Array.length e.ep_mask then e.ep_mask.(id) else -1

let ep_add e id mask cookie =
  let len = Array.length e.ep_mask in
  if id >= len then begin
    let grow a fill =
      let b = Array.make (max (id + 1) (max 64 (2 * len))) fill in
      Array.blit a 0 b 0 len;
      b
    in
    e.ep_mask <- grow e.ep_mask (-1);
    e.ep_cookie <- grow e.ep_cookie 0
  end;
  if e.ep_mask.(id) < 0 then begin
    e.ep_count <- e.ep_count + 1;
    if id < e.ep_low then e.ep_low <- id
  end;
  (* readiness only ever has these bits, so masking keeps every answer
     and leaves -1 free to mean "not registered" *)
  e.ep_mask.(id) <- mask land (ep_in lor ep_out lor ep_hup);
  e.ep_cookie.(id) <- cookie

let ep_del e id =
  if interest e id >= 0 then begin
    e.ep_mask.(id) <- -1;
    e.ep_count <- e.ep_count - 1;
    if e.ep_count = 0 then e.ep_low <- max_int
  end

(* A closed connection's queues hand their storage back to the pool. *)
let close_conn t c =
  c.cn_closed <- true;
  Bq.release t.pool c.cn_recv;
  Bq.release t.pool c.cn_send;
  Hashtbl.remove t.socks c.cn_id

let close t ~sock =
  charge t;
  Hashtbl.iter (fun _ e -> ep_del e sock) t.eps;
  if Hashtbl.mem t.eps sock then Hashtbl.remove t.eps sock
  else
    match Hashtbl.find_opt t.socks sock with
    | None -> ()
    | Some (S_new s) ->
        if s.sn_port <> 0 && Hashtbl.find_opt t.ports s.sn_port = Some sock
        then Hashtbl.remove t.ports s.sn_port;
        Hashtbl.remove t.socks sock
    | Some (S_listen l) ->
        if Hashtbl.find_opt t.ports l.l_port = Some sock then
          Hashtbl.remove t.ports l.l_port;
        Queue.iter
          (fun id ->
            match Hashtbl.find_opt t.socks id with
            | Some (S_conn c) -> close_conn t c
            | _ -> ())
          l.l_queue;
        Hashtbl.remove t.socks sock
    | Some (S_conn c) -> close_conn t c

let epoll_create t =
  charge t;
  let id = fresh_id t in
  Hashtbl.replace t.eps id
    { ep_mask = [||]; ep_cookie = [||]; ep_count = 0; ep_low = max_int };
  id

let epoll_ctl t ~ep ~sock ~op =
  charge t;
  match Hashtbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e -> (
      match op with
      | `Add (mask, cookie) ->
          if not (Hashtbl.mem t.socks sock) then Error V.EBADF
          else begin
            ep_add e sock mask cookie;
            Ok ()
          end
      | `Del ->
          ep_del e sock;
          Ok ())

let ready_mask t id =
  match Hashtbl.find_opt t.socks id with
  | Some (S_listen l) -> if Queue.length l.l_queue > 0 then ep_in else 0
  | Some (S_conn c) ->
      let m = ref 0 in
      if Bq.length c.cn_recv > 0 || c.cn_peer_closed then m := !m lor ep_in;
      if c.cn_peer_closed then m := !m lor ep_hup;
      if t.sndbuf - Bq.length c.cn_send > 0 then m := !m lor ep_out;
      !m
  | Some (S_new _) | None -> 0

(* HUP is delivered whether requested or not, as in epoll(7). *)
let effective_ready t id mask = ready_mask t id land (mask lor ep_hup)

(* The first [max] ready registrations in id order.  The walk starts at
   the low-water id (raised here past any freed prefix) and stops at
   [max] hits or once every registration has been seen. *)
let scan t e max =
  let acc = ref [] and hits = ref 0 and seen = ref 0 and id = ref e.ep_low in
  while !hits < max && !seen < e.ep_count do
    let mask = e.ep_mask.(!id) in
    if mask >= 0 then begin
      if !seen = 0 then e.ep_low <- !id;
      incr seen;
      let r = effective_ready t !id mask in
      if r <> 0 then begin
        incr hits;
        acc := (e.ep_cookie.(!id), r) :: !acc
      end
    end;
    incr id
  done;
  List.rev !acc

let epoll_wait t ~ep ~max =
  charge t;
  Kstats.incr t.stats t.st_epoll_waits;
  match Hashtbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e ->
      pump t;
      let r = scan t e max in
      if r <> [] || Heap.is_empty t.heap then Ok r
      else begin
        (* Nothing ready: sleep on the wait queue until the traffic
           generator wakes us.  Only sockets an event touched are
           re-checked, so a 10k-interest set is not rescanned per
           event. *)
        let p = Kernel.current t.kn in
        let saved = p.Kproc.state in
        p.Kproc.state <- Kproc.Blocked;
        let woken = ref false in
        let ready id =
          id >= 0
          &&
          let mask = interest e id in
          mask >= 0 && effective_ready t id mask <> 0
        in
        while (not !woken) && not (Heap.is_empty t.heap) do
          advance_and_process t;
          if ready t.touched_a || ready t.touched_b then woken := true
        done;
        p.Kproc.state <- saved;
        Kstats.incr t.stats t.st_epoll_wakeups;
        Ok (scan t e max)
      end

(* ---------- pool consistency ---------- *)

(* Every queue that can still be written: both queues of each socket in
   the table, and the response stream of each client a connection or a
   pending event still refers to.  Quadratic: a test-time check. *)
let pool_consistent t =
  let queues = ref [] in
  let add q = if not (List.memq q !queues) then queues := q :: !queues in
  Hashtbl.iter
    (fun _ -> function
      | S_conn c ->
          add c.cn_recv;
          add c.cn_send;
          Option.iter (fun cl -> add cl.cl_resp) c.cn_client
      | S_new _ | S_listen _ -> ())
    t.socks;
  for i = 0 to t.heap.Heap.len - 1 do
    match Heap.get t.heap i with
    | _, _, (Ev_connect cl | Ev_deliver cl) -> add cl.cl_resp
    | _, _, Ev_drain _ -> ()
  done;
  let live =
    List.filter_map
      (fun q -> if Bytes.length q.Bq.buf > 0 then Some q.Bq.buf else None)
      !queues
  in
  let sized, free = List.split (Pool.free_buffers t.pool) in
  let rec distinct = function
    | [] -> true
    | b :: rest -> (not (List.memq b rest)) && distinct rest
  in
  List.for_all Fun.id sized && distinct (live @ free)

(* ---------- traffic generation ---------- *)

module Traffic = struct
  type spec = {
    port : int;
    conns : int;
    requests_per_conn : int;
    pipeline : int;
    start : int;
    spacing : int;
    think : int;
    req_of : conn:int -> req:int -> string;
  }

  let default =
    {
      port = 80;
      conns = 100;
      requests_per_conn = 2;
      pipeline = 2;
      start = 1_000;
      spacing = 2_000;
      think = 0;
      req_of = (fun ~conn ~req -> Printf.sprintf "GET %d:%d\n" conn req);
    }

  let install t spec =
    if spec.conns <= 0 || spec.requests_per_conn <= 0 then
      invalid_arg "Knet.Traffic.install";
    let ps =
      {
        ps_conns = spec.conns;
        ps_completed = 0;
        ps_responses = 0;
        ps_drops = 0;
        ps_retrans = 0;
        ps_digests = Array.make spec.conns "";
      }
    in
    Hashtbl.replace t.traffic spec.port ps;
    for i = 0 to spec.conns - 1 do
      let cl =
        {
          cl_seq = i;
          cl_port = spec.port;
          cl_total = spec.requests_per_conn;
          cl_pipeline = max 1 spec.pipeline;
          cl_think = spec.think;
          cl_req_of = (fun req -> spec.req_of ~conn:i ~req);
          cl_conn = -1;
          cl_sent = 0;
          cl_done = 0;
          cl_hdr = Bytes.create 8;
          cl_hdr_got = 0;
          cl_body_left = 0;
          cl_sent_at = Queue.create ();
          cl_span = Queue.create ();
          cl_txq = [];
          cl_resp = Bq.create ();
          cl_finished = false;
          cl_fails = 0;
          cl_drops = 0;
        }
      in
      push_ev t (now t + spec.start + (i * spec.spacing)) (Ev_connect cl)
    done

  let completed t ~port =
    match port_state t port with Some ps -> ps.ps_completed | None -> 0

  let responses t ~port =
    match port_state t port with Some ps -> ps.ps_responses | None -> 0

  let drops t ~port =
    match port_state t port with Some ps -> ps.ps_drops | None -> 0

  let retransmits t ~port =
    match port_state t port with Some ps -> ps.ps_retrans | None -> 0

  let digest t ~port =
    match port_state t port with
    | Some ps ->
        Digest.to_hex
          (Digest.string (String.concat "," (Array.to_list ps.ps_digests)))
    | None -> Digest.to_hex (Digest.string "")
end
