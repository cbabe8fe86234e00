(* knet: deterministic, cycle-accounted sockets for the simulated kernel.

   The server half (listeners, backlogs, bounded per-connection buffers,
   level-triggered epoll) is real data structures; the client half is a
   discrete-event traffic generator on one event queue ordered by
   (due-cycle, insertion-seq) — sorted FIFO lanes, one per push delay in
   effect ([Lanes]) — so a run is a deterministic function of the
   installed traffic specs and the cost model.  Blocking epoll_wait
   advances the simulated clock as I/O wait — the process is asleep on a
   wait queue until the "NIC" delivers something interesting. *)

module Kernel = Ksim.Kernel
module Kproc = Ksim.Kproc
module Int_table = Ksim.Int_table
module Instrument = Ksim.Instrument
module V = Kvfs.Vtypes

let handle_base = 0x4000_0000
let ep_in = 1
let ep_out = 2
let ep_hup = 4

let backlog_drop = Instrument.custom "net-backlog-drop"

(* Free byte buffers, one free stack per size class: class [k] holds
   buffers of exactly [min_cap lsl k] bytes.  A request pops only from
   its own class, so a small free buffer is never popped, found too
   small and pushed back.  A stack is an array with a count, so handing
   a buffer back allocates nothing.  Each socket stack owns its pool
   ([t.pool]), so two kernels never share a buffer. *)
module Pool = struct
  type stack = { mutable items : Bytes.t array; mutable n : int }
  type t = stack array

  (* Small: a connection's queue often holds one request line, and
     thousands of connections wait at once. *)
  let min_cap = 16

  (* 16 B .. 1 GB: far past any queue bound *)
  let create () : t = Array.init 27 (fun _ -> { items = [||]; n = 0 })

  let class_of len =
    let k = ref 0 in
    while min_cap lsl !k < len do
      incr k
    done;
    !k

  (* A buffer of at least [len] bytes, recycled when the class has one. *)
  let take p len =
    let k = class_of len in
    let s = p.(k) in
    if s.n = 0 then Bytes.create (min_cap lsl k)
    else begin
      s.n <- s.n - 1;
      let b = s.items.(s.n) in
      s.items.(s.n) <- Bytes.empty;
      b
    end

  let give p b =
    let s = p.(class_of (Bytes.length b)) in
    if s.n = Array.length s.items then begin
      let items = Array.make (max 8 (2 * s.n)) Bytes.empty in
      Array.blit s.items 0 items 0 s.n;
      s.items <- items
    end;
    s.items.(s.n) <- b;
    s.n <- s.n + 1

  (* Every free buffer, each checked to be exactly its class's size. *)
  let free_buffers p =
    Array.to_list p
    |> List.mapi (fun k s ->
           List.init s.n (fun i ->
               let b = s.items.(i) in
               (Bytes.length b = min_cap lsl k, b)))
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

(* The traffic generator's event queue: sorted FIFO lanes on (due, seq)
   (the interface has the cost model).  The clock never goes back and
   events are pushed at [now + d] for a handful of delays, so events
   pushed with the same delay arrive in key order: a push appends to the
   lane whose tail is the greatest key below its own, and a pop takes
   the least head.  Keys and events sit in parallel arrays, so a push
   boxes nothing and compares ints. *)
module Lanes = struct
  type 'a lane = {
    mutable due : int array;
    mutable seq : int array;
    mutable evs : 'a array;          (* capacity a power of two, or 0 *)
    mutable head : int;              (* slot of the lane's least entry *)
    mutable len : int;
  }

  type 'a t = {
    mutable lanes : 'a lane array;   (* [0, live) hold entries, then the
                                        [made - live] empty ones *)
    mutable live : int;
    mutable made : int;
    mutable best : int;              (* live lane with the least head *)
    mutable len : int;
    dummy : 'a;
  }

  let min_cap = 16

  (* A drained lane keeps storage up to this many slots. *)
  let keep_cap = 256

  let empty_lane () = { due = [||]; seq = [||]; evs = [||]; head = 0; len = 0 }

  let create dummy =
    { lanes = [||]; live = 0; made = 0; best = -1; len = 0; dummy }

  let length q = q.len
  let is_empty q = q.len = 0
  let width q = q.made

  let tail l = (l.head + l.len - 1) land (Array.length l.due - 1)

  (* Move the lane's entries to [n >= l.len] slots. *)
  let resize dummy l n =
    let cap = Array.length l.due in
    let due = Array.make n 0 and seq = Array.make n 0 in
    let evs = Array.make n dummy in
    for k = 0 to l.len - 1 do
      let j = (l.head + k) land (cap - 1) in
      due.(k) <- l.due.(j);
      seq.(k) <- l.seq.(j);
      evs.(k) <- l.evs.(j)
    done;
    l.due <- due;
    l.seq <- seq;
    l.evs <- evs;
    l.head <- 0

  (* The first empty lane, made live. *)
  let open_lane q =
    if q.live = q.made then begin
      if q.made = Array.length q.lanes then
        q.lanes <-
          Array.init
            (max 4 (2 * q.made))
            (fun i -> if i < q.made then q.lanes.(i) else empty_lane ());
      q.made <- q.made + 1
    end;
    q.live <- q.live + 1;
    q.live - 1

  (* The live lane with the least head; -1 when none is live. *)
  let least q =
    let best = ref (-1) and bd = ref 0 and bs = ref 0 in
    for i = 0 to q.live - 1 do
      let l = q.lanes.(i) in
      let d = l.due.(l.head) and s = l.seq.(l.head) in
      if !best < 0 || d < !bd || (d = !bd && s < !bs) then begin
        best := i;
        bd := d;
        bs := s
      end
    done;
    !best

  let grow dummy l = resize dummy l (max min_cap (2 * Array.length l.due))

  let push q d s ev =
    let pick = ref (-1) and pd = ref 0 and ps = ref 0 in
    for i = 0 to q.live - 1 do
      let l = q.lanes.(i) in
      let j = tail l in
      let td = l.due.(j) and ts = l.seq.(j) in
      if
        (td < d || (td = d && ts < s))
        && (!pick < 0 || td > !pd || (td = !pd && ts > !ps))
      then begin
        pick := i;
        pd := td;
        ps := ts
      end
    done;
    let i = if !pick >= 0 then !pick else open_lane q in
    let l = q.lanes.(i) in
    if l.len = Array.length l.due then grow q.dummy l;
    let j = (l.head + l.len) land (Array.length l.due - 1) in
    l.due.(j) <- d;
    l.seq.(j) <- s;
    l.evs.(j) <- ev;
    l.len <- l.len + 1;
    q.len <- q.len + 1;
    if l.len = 1 then begin
      (* a new head: it leads if it is below the old least head *)
      let b = if q.best < 0 then l else q.lanes.(q.best) in
      let bd = b.due.(b.head) in
      if q.best < 0 || d < bd || (d = bd && s < b.seq.(b.head)) then
        q.best <- i
    end

  (* The least head's due; the queue must not be empty. *)
  let top_due q =
    let l = q.lanes.(q.best) in
    l.due.(l.head)

  (* A drained lane [i] moves behind the live ones. *)
  let retire q i =
    let l = q.lanes.(i) in
    l.head <- 0;
    if Array.length l.due > keep_cap then begin
      l.due <- [||];
      l.seq <- [||];
      l.evs <- [||]
    end;
    let last = q.live - 1 in
    q.lanes.(i) <- q.lanes.(last);
    q.lanes.(last) <- l;
    q.live <- last

  (* Remove and return the least entry; the queue must not be empty. *)
  let pop q =
    let l = q.lanes.(q.best) in
    let h = l.head in
    let ev = l.evs.(h) in
    l.evs.(h) <- q.dummy;
    l.head <- (h + 1) land (Array.length l.due - 1);
    l.len <- l.len - 1;
    q.len <- q.len - 1;
    if l.len = 0 then retire q q.best
    else if Array.length l.due > keep_cap && 4 * l.len < Array.length l.due
    then
      (* a lane that never drains (it takes new events as fast as it
         gives them) halves once a quarter full, so a burst's storage
         goes back while it lasts *)
      resize q.dummy l (Array.length l.due / 2);
    q.best <- least q;
    ev

  (* Every pending event, in no particular order. *)
  let iter f q =
    for i = 0 to q.live - 1 do
      let l = q.lanes.(i) in
      for k = 0 to l.len - 1 do
        f l.evs.((l.head + k) land (Array.length l.due - 1))
      done
    done

  (* [x] is stored in some slot, live or vacated: a test-time check that
     popped events are unreachable. *)
  let holds q x =
    Array.exists (fun l -> Array.exists (fun e -> e == x) l.evs) q.lanes
end

(* A port's client population, as [Traffic.install] takes it. *)
type traffic_spec = {
  port : int;
  conns : int;
  requests_per_conn : int;
  pipeline : int;
  start : int;
  spacing : int;
  think : int;
  req_of : conn:int -> req:int -> string;
}

(* One simulated client driving one connection.  It carries its own
   event, built once, so a redial or a delivery pushes an existing
   value, and it shares its port's spec. *)
type client = {
  cl_seq : int;                      (* arrival index within its port *)
  cl_spec : traffic_spec;
  mutable cl_conn : int;             (* conn sock id; -1 before connect *)
  mutable cl_sent : int;             (* requests scheduled so far *)
  mutable cl_done : int;
  mutable cl_hdr : int;              (* response length, little-endian
                                        bytes so far *)
  mutable cl_hdr_got : int;
  mutable cl_body_left : int;
  cl_inflight : int array;           (* requests [cl_acked, cl_sent): the
                                        send instant and kperf async span
                                        of request r at [2 * (r mod
                                        pipeline)] and the slot after *)
  mutable cl_acked : int;
  cl_resp : Bq.t;                    (* raw response stream until digest *)
  mutable cl_finished : bool;
  mutable cl_fails : int;            (* consecutive failures, drives backoff *)
  mutable cl_drops : int;            (* consecutive wire drops of the head
                                        frame, bounded by [wire_retries] *)
  mutable cl_tx : int;               (* unacked tx data: requests
                                        [cl_tx, cl_sent), strict FIFO, the
                                        head from byte [cl_tx_off] on; a
                                        retransmitted frame keeps its place
                                        at the head, so later pipelined
                                        frames cannot overtake it *)
  mutable cl_tx_off : int;
  mutable cl_ev : ev;                (* [Ev_client] of this client *)
}

and ev =
  | Ev_client of client
      (* a connect attempt until the client is connected, a delivery
         tick after: no client has both pending, so one event serves.
         A tick's payload is the head of the client's tx queue, not the
         event, so per-connection byte order survives retransmit
         delays *)
  | Ev_drain of int

(* A placeholder event: the queue's vacated slots and a client's event
   fields before [install] fills them.  A static constant, so it is
   never in the minor heap. *)
let no_ev = Ev_drain (-1)

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
  cn_drain : ev;                     (* [Ev_drain] of this conn *)
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

(* An epoll interest set indexed by socket id.  Ids are never reused,
   and the registered ids form a doubly linked list in ascending order
   ([ep_next]/[ep_prev], -1 at the ends), so a scan visits the
   registrations in creation order and skips closed ids without a
   fold, a sort or a walk over dead slots. *)
type ep = {
  mutable ep_mask : int array;       (* per sock id; -1 = not registered *)
  mutable ep_cookie : int array;
  mutable ep_next : int array;       (* next registered id above *)
  mutable ep_prev : int array;       (* next registered id below *)
  mutable ep_low : int;              (* least registered id; -1 = none *)
  mutable ep_high : int;             (* greatest registered id *)
  mutable ep_walked : int;           (* slots the last scan read *)
}

type port_state = {
  ps_conns : int;
  mutable ps_completed : int;
  mutable ps_responses : int;
  mutable ps_drops : int;
  mutable ps_retrans : int;          (* wire frames lost and re-sent *)
  ps_digests : string array;         (* per-connection raw digest, arrival
                                        order; "" until completed *)
}

(* One memoised response stream: its bytes and their raw digest. *)
type memo_entry = { m_bytes : Bytes.t; m_digest : string }

type t = {
  kn : Kernel.t;
  rcvbuf : int;
  sndbuf : int;
  mutable socks : sock option array; (* by id; ids are never reused *)
  eps : ep Int_table.t;              (* by epoll id *)
  ports : int Int_table.t;           (* port -> listener sock id *)
  events : ev Lanes.t;
  mutable seq : int;                 (* event insertion tiebreaker *)
  mutable next_id : int;
  traffic : port_state Int_table.t;  (* by port *)
  pool : Pool.t;                     (* free queue storage *)
  memo : memo_entry list Int_table.t;
                                     (* finished streams by length *)
  mutable memo_bytes : int;          (* stream bytes the memo holds *)
  mutable memo_hits : int;
  mutable touched_a : int;           (* sock ids the last event may have *)
  mutable touched_b : int;           (* made ready; -1 = none *)
  mutable attempt_lid : int;         (* listener of the last connect
                                        attempt; -1 = refused *)
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
    socks = Array.make 64 None;
    eps = Int_table.create 4;
    ports = Int_table.create 4;
    events = Lanes.create no_ev;
    seq = 0;
    next_id = 1;
    traffic = Int_table.create 4;
    pool = Pool.create ();
    memo = Int_table.create 64;
    memo_bytes = 0;
    memo_hits = 0;
    touched_a = -1;
    touched_b = -1;
    attempt_lid = -1;
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
  Lanes.push t.events (max due (now t)) t.seq ev

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let memo_bytes t = t.memo_bytes
let memo_hits t = t.memo_hits
let pending_events t = Lanes.length t.events
let event_lanes t = Lanes.width t.events

(* The next size of an id-indexed table of [len] slots: ids are never
   reused, so the tables only grow, and 1.5x leaves less slack than
   doubling where ten thousand ids pass. *)
let grown len = len + (len / 2)

(* The socket table: a lookup returns the stored option, so it hashes
   and allocates nothing; ids past the table are absent. *)
let find_sock t id =
  if id >= 0 && id < Array.length t.socks then t.socks.(id) else None

let set_sock t id s =
  let len = Array.length t.socks in
  if id >= len then begin
    let b = Array.make (max (id + 1) (grown len)) None in
    Array.blit t.socks 0 b 0 len;
    t.socks <- b
  end;
  t.socks.(id) <- Some s

(* Only for an id [find_sock] found. *)
let clear_sock t id = t.socks.(id) <- None

(* ---------- client side (runs at event-processing time) ---------- *)

let port_state t port = Int_table.find_opt t.traffic port

(* Requests in flight never outnumber the pipeline: a client sends at
   most [pipeline] at connect and one more per response. *)
let inflight_slot cl r = 2 * (r mod (Array.length cl.cl_inflight / 2))

(* Schedule the client's next request, [cl_sent], to leave at
   [send_at]. *)
let schedule_request t cl ~send_at =
  let i = inflight_slot cl cl.cl_sent in
  cl.cl_inflight.(i) <- send_at;
  (* a request outlives any single syscall — send, kernel-side service,
     drain, client rx can each happen in different kernel stays — so it
     is an *async* span, keyed by id on its own Perfetto track *)
  cl.cl_inflight.(i + 1) <-
    Kperf.async_begin (Kernel.perf t.kn) ~pid:0 ~arg:cl.cl_spec.port
      ~cat:"net" ~name:"request";
  cl.cl_sent <- cl.cl_sent + 1;
  push_ev t (send_at + wire t) cl.cl_ev

(* ---------- the stream digest memo ---------- *)

(* Stream bytes the memo may hold: far above the distinct streams of a
   C10K input (72 streams, ~330 KB), far below its peak heap.  Streams
   of one length are few there (a document pair in either order), and
   a lookup compares with at most [memo_per_len] of them. *)
let memo_cap = 1 lsl 20
let memo_per_len = 8

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [a] equals [b.[off .. off + length a - 1]]: word by word on unboxed
   64-bit loads, then the sub-word tail byte by byte. *)
let equal_sub a b off =
  let len = Bytes.length a in
  let words = len - (len land 7) in
  let i = ref 0 in
  while !i < words && get64u a !i = get64u b (off + !i) do
    i := !i + 8
  done;
  if !i < words then false
  else begin
    while !i < len && Bytes.unsafe_get a !i = Bytes.unsafe_get b (off + !i) do
      incr i
    done;
    !i = len
  end

(* The digest of the entry whose bytes equal [q]'s; "" when none (a raw
   digest is 16 bytes). *)
let rec memo_find q = function
  | [] -> ""
  | e :: rest ->
      if equal_sub e.m_bytes q.Bq.buf q.Bq.off then e.m_digest
      else memo_find q rest

(* The raw MD5 of a finished client's stream.  A stream byte-equal to a
   memoised one reuses its digest, so MD5 runs once per distinct stream
   and a repeat costs one compare and allocates nothing; any other
   stream is hashed, and kept while the memo is under its cap. *)
let stream_digest t q =
  let len = q.Bq.len in
  let bucket =
    match Int_table.find t.memo len with l -> l | exception Not_found -> []
  in
  match memo_find q bucket with
  | "" ->
      let d = Digest.subbytes q.Bq.buf q.Bq.off len in
      if t.memo_bytes + len <= memo_cap && List.length bucket < memo_per_len
      then begin
        let e = { m_bytes = Bytes.sub q.Bq.buf q.Bq.off len; m_digest = d } in
        Int_table.replace t.memo len (e :: bucket);
        t.memo_bytes <- t.memo_bytes + len
      end;
      d
  | d ->
      t.memo_hits <- t.memo_hits + 1;
      d

let response_done t cl =
  cl.cl_done <- cl.cl_done + 1;
  let spec = cl.cl_spec in
  if cl.cl_acked < cl.cl_sent then begin
    let i = inflight_slot cl cl.cl_acked in
    cl.cl_acked <- cl.cl_acked + 1;
    Kstats.observe t.stats t.st_latency (now t - cl.cl_inflight.(i));
    Kperf.async_end (Kernel.perf t.kn) ~pid:0 ~arg:spec.port
      cl.cl_inflight.(i + 1)
  end;
  (* per-event port lookups use [find]: [find_opt] boxes a [Some] *)
  (match Int_table.find t.traffic spec.port with
  | ps -> ps.ps_responses <- ps.ps_responses + 1
  | exception Not_found -> ());
  if cl.cl_done >= spec.requests_per_conn then begin
    cl.cl_finished <- true;
    (match port_state t spec.port with
    | Some ps ->
        ps.ps_digests.(cl.cl_seq) <- stream_digest t cl.cl_resp;
        ps.ps_completed <- ps.ps_completed + 1
    | None -> ());
    Bq.release t.pool cl.cl_resp;
    (* FIN rides the final ack: the server sees EOF once it drains. *)
    match find_sock t cl.cl_conn with
    | Some (S_conn c) -> c.cn_peer_closed <- true
    | _ -> ()
  end
  else if cl.cl_sent < spec.requests_per_conn then
    schedule_request t cl ~send_at:(now t + spec.think)

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
      (* one header byte; the top bit of the 64 falls off, as
         [Int64.to_int] drops it *)
      let byte = Char.code (Bytes.get b !pos) in
      cl.cl_hdr <- cl.cl_hdr lor (byte lsl (8 * cl.cl_hdr_got));
      cl.cl_hdr_got <- cl.cl_hdr_got + 1;
      incr pos;
      if cl.cl_hdr_got = 8 then begin
        cl.cl_body_left <- cl.cl_hdr;
        cl.cl_hdr <- 0;
        cl.cl_hdr_got <- 0;
        if cl.cl_body_left = 0 then response_done t cl
      end
    end
  done

(* ---------- NIC-side injection ---------- *)

(* A connect attempt's result: the new conn's id, or one of these two
   codes.  The attempt leaves the listener it reached in
   [t.attempt_lid] (-1 when refused). *)
let conn_dropped = -1
let conn_refused = -2

let connect_attempt t ~port =
  t.attempt_lid <- -1;
  match Int_table.find t.ports port with
  | exception Not_found -> conn_refused
  | lid -> (
      match find_sock t lid with
      | Some (S_listen l) when l.l_backlog > 0 ->
          t.attempt_lid <- lid;
          if Queue.length l.l_queue >= l.l_backlog then begin
            l.l_drops <- l.l_drops + 1;
            Kstats.incr t.stats t.st_drops;
            (match Int_table.find t.traffic port with
            | ps -> ps.ps_drops <- ps.ps_drops + 1
            | exception Not_found -> ());
            Instrument.emit ~pid:0 ~obj:port ~value:l.l_drops ~kind:backlog_drop
              ~file:"knet.ml" ~line:0 ();
            Kperf.instant (Kernel.perf t.kn) ~pid:0 ~arg:port ~cat:"net"
              ~name:"backlog_drop";
            conn_dropped
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
                cn_client = None;
                cn_drain = Ev_drain id;
              }
            in
            set_sock t id (S_conn c);
            Queue.push id l.l_queue;
            Kstats.incr t.stats t.st_conns;
            id
          end
      | _ -> conn_refused)

let inject_connect t ~port =
  let id = connect_attempt t ~port in
  if id >= 0 then Some id else None

(* Errno-carrying variant: the two rejection paths are distinct — a SYN
   dropped by a full backlog looks like a timeout to the client, while a
   port nobody listens on is actively refused. *)
let inject_connect_result t ~port =
  let id = connect_attempt t ~port in
  if id >= 0 then Ok id
  else if id = conn_dropped then Error V.ETIMEDOUT
  else Error V.ECONNREFUSED

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
  match find_sock t sock with
  | Some (S_conn c) when not c.cn_closed ->
      deliver_bytes t c s 0 (String.length s)
  | _ -> 0

let inject_fin t ~sock =
  match find_sock t sock with
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
  cl.cl_tx <- cl.cl_sent;
  cl.cl_tx_off <- 0;
  Bq.release t.pool cl.cl_resp;
  for r = cl.cl_acked to cl.cl_sent - 1 do
    Kperf.async_end (Kernel.perf t.kn) ~pid:0 ~arg:cl.cl_spec.port
      cl.cl_inflight.(inflight_slot cl r + 1)
  done;
  cl.cl_acked <- cl.cl_sent;
  c.cn_peer_closed <- true

let touch t a b =
  t.touched_a <- a;
  t.touched_b <- b

(* Records in [touched_a]/[touched_b] the sock ids whose readiness the
   event may have changed. *)
let process_event t = function
  | Ev_client cl when cl.cl_conn < 0 ->
      let id = connect_attempt t ~port:cl.cl_spec.port in
      if id >= 0 then begin
        (match find_sock t id with
        | Some (S_conn c) -> c.cn_client <- Some cl
        | _ -> ());
        cl.cl_fails <- 0;
        cl.cl_conn <- id;
        let burst =
          min (max 1 cl.cl_spec.pipeline) cl.cl_spec.requests_per_conn
        in
        for k = 0 to burst - 1 do
          (* tiny per-request skew keeps deliveries ordered *)
          schedule_request t cl ~send_at:(now t + (k * 16))
        done;
        touch t t.attempt_lid id
      end
      else begin
        (* dropped or refused: the client backs off and redials *)
        Kstats.incr t.stats t.st_redials;
        push_ev t (now t + backoff_delay t cl) cl.cl_ev;
        touch t t.attempt_lid (-1)
      end
  | Ev_client cl -> (
      match find_sock t cl.cl_conn with
      | Some (S_conn c) when cl.cl_tx < cl.cl_sent && not c.cn_closed ->
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
              (match Int_table.find t.traffic cl.cl_spec.port with
              | ps -> ps.ps_retrans <- ps.ps_retrans + 1
              | exception Not_found -> ());
              Kperf.instant (Kernel.perf t.kn) ~pid:0 ~arg:cl.cl_spec.port
                ~cat:"retry" ~name:"net.retransmit";
              push_ev t (now t + backoff_delay t cl) cl.cl_ev
            end;
            touch t c.cn_id (-1)
          end
          else begin
            cl.cl_fails <- 0;
            cl.cl_drops <- 0;
            let data = cl.cl_spec.req_of ~conn:cl.cl_seq ~req:cl.cl_tx in
            let off = cl.cl_tx_off in
            let len = String.length data - off in
            let n = deliver_bytes t c data off len in
            if n < len then begin
              cl.cl_tx_off <- off + n;
              push_ev t (now t + (max 1 (wire t / 4))) cl.cl_ev
            end
            else begin
              cl.cl_tx <- cl.cl_tx + 1;
              cl.cl_tx_off <- 0
            end;
            touch t c.cn_id (-1)
          end
      | _ -> touch t (-1) (-1))
  | Ev_drain id -> (
      match find_sock t id with
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
  while (not (Lanes.is_empty t.events)) && Lanes.top_due t.events <= now t do
    process_event t (Lanes.pop t.events)
  done

(* Advance the clock (I/O wait) to the next event and process it. *)
let advance_and_process t =
  if Lanes.is_empty t.events then touch t (-1) (-1)
  else begin
    let due = Lanes.top_due t.events in
    let ev = Lanes.pop t.events in
    if due > now t then Kernel.charge_io t.kn (due - now t);
    process_event t ev
  end

let step t =
  if Lanes.is_empty t.events then false
  else begin
    advance_and_process t;
    true
  end

(* ---------- socket operations ---------- *)

let socket t =
  charge t;
  let id = fresh_id t in
  set_sock t id (S_new { sn_port = 0 });
  id

let bind t ~sock ~port =
  charge t;
  match find_sock t sock with
  | Some (S_new s) ->
      if port <= 0 then Error V.EINVAL
      else if Int_table.mem t.ports port then Error V.EADDRINUSE
      else begin
        s.sn_port <- port;
        Int_table.replace t.ports port sock;
        Ok ()
      end
  | Some (S_listen _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let listen t ~sock ~backlog =
  charge t;
  match find_sock t sock with
  | Some (S_new s) ->
      if s.sn_port = 0 then Error V.EINVAL
      else if backlog <= 0 then Error V.EINVAL
      else begin
        set_sock t sock
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
  match find_sock t sock with
  | Some (S_listen l) -> (
      match Queue.take_opt l.l_queue with
      | Some id ->
          (match find_sock t id with
          | Some (S_conn c) -> c.cn_accepted <- true
          | _ -> ());
          Kstats.incr t.stats t.st_accepts;
          Kperf.instant (Kernel.perf t.kn) ~pid:0 ~arg:id ~cat:"net"
            ~name:"accept";
          Ok id
      | None -> Error V.EAGAIN)
  | Some (S_new _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let conn_of t sock =
  match find_sock t sock with
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
    push_ev t (now t + wire t) c.cn_drain
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

(* Zero-copy transmit: [fill] writes the payload straight into the send
   queue's tail, so no user buffer and no copy_{from,to}_user bytes are
   involved (the DMA cost is the caller's, mirroring
   Consolidated.service_sendfile).  The queue's room is reserved first;
   [net_op] is charged only after the fill, and only when it wrote a
   byte, so the file read's charges come first. *)
let send_kernel t ~sock ~len fill =
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c ->
      let q = c.cn_send in
      let room = min (t.sndbuf - Bq.length q) len in
      if room <= 0 then Ok 0
      else begin
        Bq.reserve t.pool q room;
        match fill q.Bq.buf (q.Bq.off + q.Bq.len) room with
        | Error _ as e -> e
        | Ok n when n < 0 || n > room ->
            invalid_arg "Knet.send_kernel: fill wrote outside its room"
        | Ok 0 -> Ok 0
        | Ok n ->
            charge t;
            q.Bq.len <- q.Bq.len + n;
            Kstats.set t.stats t.st_stage_hw n;
            Kstats.add t.stats t.st_sendfile_bytes n;
            schedule_drain t c;
            Ok n
      end

(* ---------- epoll ---------- *)

let interest e id = if id < Array.length e.ep_mask then e.ep_mask.(id) else -1

(* Link unregistered [id] into the registration list between [p] and
   [n] (-1: an end). *)
let link e p id n =
  e.ep_prev.(id) <- p;
  e.ep_next.(id) <- n;
  if p < 0 then e.ep_low <- id else e.ep_next.(p) <- id;
  if n < 0 then e.ep_high <- id else e.ep_prev.(n) <- id

let ep_add e id mask cookie =
  let len = Array.length e.ep_mask in
  if id >= len then begin
    let grow a fill =
      let b = Array.make (max (id + 1) (max 64 (grown len))) fill in
      Array.blit a 0 b 0 len;
      b
    in
    e.ep_mask <- grow e.ep_mask (-1);
    e.ep_cookie <- grow e.ep_cookie 0;
    e.ep_next <- grow e.ep_next (-1);
    e.ep_prev <- grow e.ep_prev (-1)
  end;
  if e.ep_mask.(id) < 0 then begin
    (* the registered id below [id] (-1: none); sockets register in
       creation order, so it is nearly always the highest, and
       otherwise a walk down finds it *)
    let p =
      if e.ep_low < 0 || id < e.ep_low then -1
      else if id > e.ep_high then e.ep_high
      else begin
        let p = ref (id - 1) in
        while e.ep_mask.(!p) < 0 do
          decr p
        done;
        !p
      end
    in
    link e p id (if p < 0 then e.ep_low else e.ep_next.(p))
  end;
  (* readiness only ever has these bits, so masking keeps every answer
     and leaves -1 free to mean "not registered" *)
  e.ep_mask.(id) <- mask land (ep_in lor ep_out lor ep_hup);
  e.ep_cookie.(id) <- cookie

let ep_del e id =
  if interest e id >= 0 then begin
    e.ep_mask.(id) <- -1;
    let p = e.ep_prev.(id) and n = e.ep_next.(id) in
    if p < 0 then e.ep_low <- n else e.ep_next.(p) <- n;
    if n < 0 then e.ep_high <- p else e.ep_prev.(n) <- p
  end

(* A closed connection's queues hand their storage back to the pool. *)
let close_conn t c =
  c.cn_closed <- true;
  Bq.release t.pool c.cn_recv;
  Bq.release t.pool c.cn_send;
  clear_sock t c.cn_id

(* Unbind [port] if [sock] holds it. *)
let release_port t port sock =
  match Int_table.find t.ports port with
  | lid -> if lid = sock then Int_table.remove t.ports port
  | exception Not_found -> ()

let close t ~sock =
  charge t;
  Int_table.fold (fun _ e () -> ep_del e sock) t.eps ();
  if Int_table.mem t.eps sock then Int_table.remove t.eps sock
  else
    match find_sock t sock with
    | None -> ()
    | Some (S_new s) ->
        release_port t s.sn_port sock;
        clear_sock t sock
    | Some (S_listen l) ->
        release_port t l.l_port sock;
        Queue.iter
          (fun id ->
            match find_sock t id with
            | Some (S_conn c) -> close_conn t c
            | _ -> ())
          l.l_queue;
        clear_sock t sock
    | Some (S_conn c) -> close_conn t c

let epoll_create t =
  charge t;
  let id = fresh_id t in
  Int_table.replace t.eps id
    {
      ep_mask = [||];
      ep_cookie = [||];
      ep_next = [||];
      ep_prev = [||];
      ep_low = -1;
      ep_high = -1;
      ep_walked = 0;
    };
  id

let epoll_ctl t ~ep ~sock ~op =
  charge t;
  match Int_table.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e -> (
      match op with
      | `Add (mask, cookie) ->
          if find_sock t sock = None then Error V.EBADF
          else begin
            ep_add e sock mask cookie;
            Ok ()
          end
      | `Del ->
          ep_del e sock;
          Ok ())

let ready_mask t id =
  match find_sock t id with
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

(* The first [left] ready registrations from [id] on, in id order: a
   walk along the registration list that stops at [left] hits or at its
   end, building the list front to back. *)
let[@tail_mod_cons] rec collect t e id left =
  if left <= 0 || id < 0 then []
  else begin
    e.ep_walked <- e.ep_walked + 1;
    let r = effective_ready t id e.ep_mask.(id) in
    if r <> 0 then (e.ep_cookie.(id), r) :: collect t e e.ep_next.(id) (left - 1)
    else collect t e e.ep_next.(id) left
  end

let scan t e max =
  e.ep_walked <- 0;
  collect t e e.ep_low max

(* A touched id (-1: none) is registered with [e] and ready. *)
let touched_ready t e id =
  id >= 0
  &&
  let mask = interest e id in
  mask >= 0 && effective_ready t id mask <> 0

let epoll_wait t ~ep ~max =
  charge t;
  Kstats.incr t.stats t.st_epoll_waits;
  match Int_table.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e ->
      pump t;
      let r = scan t e max in
      if r <> [] || Lanes.is_empty t.events then Ok r
      else begin
        (* Nothing ready: sleep on the wait queue until the traffic
           generator wakes us.  Only sockets an event touched are
           re-checked, so a 10k-interest set is not rescanned per
           event. *)
        let p = Kernel.current t.kn in
        let saved = p.Kproc.state in
        p.Kproc.state <- Kproc.Blocked;
        let woken = ref false in
        while (not !woken) && not (Lanes.is_empty t.events) do
          advance_and_process t;
          if touched_ready t e t.touched_a || touched_ready t e t.touched_b
          then woken := true
        done;
        p.Kproc.state <- saved;
        Kstats.incr t.stats t.st_epoll_wakeups;
        Ok (scan t e max)
      end

(* Slots the last scan of epoll instance [ep] read; 0 for an unknown
   id. *)
let epoll_scan_slots t ~ep =
  match Int_table.find_opt t.eps ep with Some e -> e.ep_walked | None -> 0

(* ---------- pool consistency ---------- *)

(* Every queue that can still be written: both queues of each socket in
   the table, and the response stream of each client a connection or a
   pending event still refers to.  Quadratic: a test-time check. *)
let pool_consistent t =
  let queues = ref [] in
  let add q = if not (List.memq q !queues) then queues := q :: !queues in
  Array.iter
    (function
      | Some (S_conn c) ->
          add c.cn_recv;
          add c.cn_send;
          Option.iter (fun cl -> add cl.cl_resp) c.cn_client
      | Some (S_new _ | S_listen _) | None -> ())
    t.socks;
  Lanes.iter
    (function
      | Ev_client cl -> add cl.cl_resp | Ev_drain _ -> ())
    t.events;
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
  type spec = traffic_spec = {
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
    Int_table.replace t.traffic spec.port ps;
    for i = 0 to spec.conns - 1 do
      let cl =
        {
          cl_seq = i;
          cl_spec = spec;
          cl_conn = -1;
          cl_sent = 0;
          cl_done = 0;
          cl_hdr = 0;
          cl_hdr_got = 0;
          cl_body_left = 0;
          cl_inflight = Array.make (2 * max 1 spec.pipeline) 0;
          cl_acked = 0;
          cl_tx = 0;
          cl_tx_off = 0;
          cl_resp = Bq.create ();
          cl_finished = false;
          cl_fails = 0;
          cl_drops = 0;
          cl_ev = no_ev;
        }
      in
      (* built once here, not per redial or per delivery; a [let rec]
         record would cost a second, dummy copy of the client *)
      cl.cl_ev <- Ev_client cl;
      push_ev t (now t + spec.start + (i * spec.spacing)) cl.cl_ev
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
        let hex d = if d = "" then d else Digest.to_hex d in
        Digest.to_hex
          (Digest.string
             (String.concat "," (Array.to_list (Array.map hex ps.ps_digests))))
    | None -> Digest.to_hex (Digest.string "")
end
