(** knet: a deterministic, cycle-accounted socket layer on top of ksim.

    The stack simulates the server-visible half of TCP well enough for
    the paper's accounting: listening sockets with bounded accept
    backlogs, per-connection bounded send/receive buffers, and a
    level-triggered epoll-style readiness multiplexer.  The client side
    is a discrete-event traffic generator: connection attempts, request
    bytes and NIC drains are events on one queue ordered by due cycle
    ({!Lanes}), processed in deterministic order interleaved with the
    scheduler — an [epoll_wait] with nothing ready blocks by advancing
    the clock (as I/O wait, like a process asleep on a wait queue) to
    the next network event.

    Socket ids live in their own namespace; the syscall layer maps them
    into per-process fd tables at [handle_base + id] so a close(2) can
    tell a socket from a VFS file handle.

    {b Queue storage.}  Each byte queue (a connection's receive and
    send queues, a simulated client's response stream) is one [Bytes.t]
    with an offset and a length.  Capacities are powers of two from
    16 B.  A queue takes its storage from the stack's pool on its first
    push; when it outgrows it, the live bytes move to a buffer of the
    next size class and the old one goes back.  The pool keeps one free
    stack per size class, and it belongs to one [t], so two kernels
    never share a buffer.  Storage goes back to the pool when the queue
    is done: on {!close} of a connection, for connections still queued
    on a closing listener, and for a client's response stream once it
    is digested or the client times out.  The ownership rule is that a
    buffer is either in exactly one live queue or on exactly one free
    list, never both ({!pool_consistent}).  NIC drains hand the client
    the queued bytes in place, and the client digest reads its stream
    in place; only {!recv} copies, into the caller's fresh buffer.
    None of this moves a simulated cycle or byte count. *)

type t

(** [create kernel] builds an empty stack and registers its [net.*]
    kstats on the kernel's registry.  [rcvbuf]/[sndbuf] bound each
    connection's receive and send queues in bytes. *)
val create : ?rcvbuf:int -> ?sndbuf:int -> Ksim.Kernel.t -> t

val kernel : t -> Ksim.Kernel.t

(** Offset distinguishing socket ids from VFS handles in fd tables. *)
val handle_base : int

(** {1 Readiness mask bits} *)

(** readable: queued bytes, queued accepts, or EOF *)
val ep_in : int

(** writable: room in the send buffer *)
val ep_out : int

(** peer closed its end *)
val ep_hup : int

(** {1 Socket operations}

    Each charges [net_op] kernel cycles.  These are the kernel halves of
    the syscalls; [Sys_net] wraps them behind the boundary. *)

val socket : t -> int

val bind : t -> sock:int -> port:int -> (unit, Kvfs.Vtypes.errno) result
val listen : t -> sock:int -> backlog:int -> (unit, Kvfs.Vtypes.errno) result

(** Pop one queued connection; [EAGAIN] when the backlog is empty. *)
val accept : t -> sock:int -> (int, Kvfs.Vtypes.errno) result

(** Up to [len] bytes from the receive queue.  [Ok] of empty bytes means
    end-of-stream (peer closed and queue drained); [EAGAIN] means no
    bytes yet. *)
val recv : t -> sock:int -> len:int -> (Bytes.t, Kvfs.Vtypes.errno) result

(** [send t ~sock ~data ~off ~len] queues [data]'s [len] bytes from
    [off] toward the peer, copying them into the send queue; returns how
    many fit, a prefix of the range ([ENOBUFS] if the send buffer is
    completely full — counted in [net.sendq_full].  Distinct from the
    would-block [EAGAIN] of {!recv}/{!accept}).  A caller that resends
    the rest passes the same buffer at [off + n].
    @raise Invalid_argument when [off, off + len) is not within [data]. *)
val send :
  t -> sock:int -> data:Bytes.t -> off:int -> len:int ->
  (int, Kvfs.Vtypes.errno) result

(** Free bytes in the send buffer (0 for a full queue). *)
val send_space : t -> sock:int -> (int, Kvfs.Vtypes.errno) result

(** Kernel-internal send used by the socket sendfile path:
    [send_kernel t ~sock ~len fill] reserves [room = min len space]
    bytes at the tail of the connection's send queue and calls
    [fill buf pos room], which writes the payload straight into
    [buf.[pos .. pos + room - 1]] (the page cache read lands in the
    queue, no copy in between) and returns how many bytes it wrote.
    Those bytes join the queue, count in [net.sendfile.bytes] and set
    [net.sendfile.stage_high_water]; no user-copy bytes are charged.
    [net_op] is charged after the fill, and only when it wrote a byte:
    an empty room or a 0-byte fill returns [Ok 0] and charges nothing,
    a fill error is returned as is.  A full queue is [Ok 0], not
    [ENOBUFS].  [EBADF]/[ENOTSOCK] for a socket that is not an open
    connection, without a call to [fill].
    @raise Invalid_argument when [fill] reports more than [room] bytes
    or a negative count. *)
val send_kernel :
  t ->
  sock:int ->
  len:int ->
  (Bytes.t -> int -> int -> (int, Kvfs.Vtypes.errno) result) ->
  (int, Kvfs.Vtypes.errno) result

(** Close a socket, epoll instance or listener (idempotent).  Closing a
    listener releases its port and drops the queued connections. *)
val close : t -> sock:int -> unit

(** {1 Epoll} *)

val epoll_create : t -> int

val epoll_ctl :
  t ->
  ep:int ->
  sock:int ->
  op:[ `Add of int * int  (** interest mask, user cookie *) | `Del ] ->
  (unit, Kvfs.Vtypes.errno) result

(** Level-triggered wait: returns up to [max] ready [(cookie, mask)]
    pairs in socket-creation order.  The registered ids are a linked
    list in id order, so the host work of one scan is proportional to
    [max] plus the registered sockets it passes that are not ready;
    closed or never-registered ids cost nothing.  When nothing is ready
    but network events are pending, blocks the current process (clock
    advances as I/O wait) until an event makes a registered socket
    ready; returns [[]] only when the event queue is exhausted and
    nothing is ready. *)
val epoll_wait :
  t -> ep:int -> max:int -> ((int * int) list, Kvfs.Vtypes.errno) result

(** Slots (socket ids) the last readiness scan of epoll instance [ep]
    read; 0 for an unknown id.  For the scan-cost guard in the tests. *)
val epoll_scan_slots : t -> ep:int -> int

(** {1 NIC-side injection}

    The raw interface the traffic generator drives; exposed so unit
    tests can hand-craft wire activity.  [inject_connect] returns the
    new connection's socket id, or [None] when the backlog was full
    (counted in [net.backlog_drops] and reported as a
    ["net-backlog-drop"] event naming the port). *)

val inject_connect : t -> port:int -> int option

(** Like {!inject_connect} but with the rejection reason: [ETIMEDOUT]
    when the backlog dropped the SYN (the client times out), and
    [ECONNREFUSED] when no listener owns the port. *)
val inject_connect_result : t -> port:int -> (int, Kvfs.Vtypes.errno) result

(** Returns how many bytes fit in the receive buffer. *)
val inject_bytes : t -> sock:int -> string -> int

val inject_fin : t -> sock:int -> unit

(** {1 Traffic generation} *)

module Traffic : sig
  type spec = {
    port : int;                (** listener the clients dial *)
    conns : int;               (** concurrent client connections *)
    requests_per_conn : int;
    pipeline : int;            (** requests in flight per connection *)
    start : int;               (** cycles until the first connection *)
    spacing : int;             (** inter-arrival gap between connections *)
    think : int;               (** client delay before the next request *)
    req_of : conn:int -> req:int -> string;
        (** request bytes for connection [conn]'s [req]-th request;
            must be deterministic *)
  }

  val default : spec

  (** Schedule [spec.conns] connection attempts on the event queue.
      Clients expect responses framed as an 8-byte little-endian body
      length followed by the body; each completed response feeds the
      [net.request.latency] histogram and a per-connection stream
      digest, and the final response triggers the client's FIN. *)
  val install : t -> spec -> unit

  (** Connections fully served (client got every response, sent FIN). *)
  val completed : t -> port:int -> int

  (** Responses completed across all of the port's connections. *)
  val responses : t -> port:int -> int

  val drops : t -> port:int -> int

  (** Wire frames lost to injected faults and re-sent after backoff —
      the congestion signal a server's load-shedding can watch.  A
      client re-sends one frame at most 15 times in a row; after that
      it abandons the connection as a TCP timeout would (counted in
      [retry.net_timeouts]), and the server sees the peer gone. *)
  val retransmits : t -> port:int -> int

  (** Digest over every connection's full response byte stream, in
      connection-arrival order — equal iff two runs served byte-identical
      streams.  Each stream's MD5 is exact: a finished stream that is
      byte-for-byte equal to one in the stack's memo reuses that
      stream's digest, and any other stream is hashed. *)
  val digest : t -> port:int -> string
end

(** {2 The stream digest memo}

    Each stack keeps the finished streams it has hashed, keyed by
    length, with their raw digests, so MD5 runs once per distinct
    stream and a repeat costs one word-wise compare.  Streams go in
    while the memo holds at most [memo_cap] bytes (and at most a few
    streams of one length); past that, streams are hashed and not
    kept. *)

val memo_cap : int

(** Stream bytes the memo holds. *)
val memo_bytes : t -> int

(** Finished streams whose digest came from the memo. *)
val memo_hits : t -> int

(** Network events not yet delivered. *)
val pending_events : t -> int

(** The most lanes the event queue has had open at once ({!Lanes.width}). *)
val event_lanes : t -> int

(** Process every event due at or before the current clock. *)
val pump : t -> unit

(** Advance the clock (as I/O wait) to the next pending event and
    process it; [false] when the event queue is empty. *)
val step : t -> bool

(** The traffic generator's event queue, exposed for its model tests:
    sorted FIFO lanes on [(due, seq)].  [pop] returns the entry with the
    least [due], the least [seq] among equal dues; [(due, seq)] is a
    strict total order, so the pop sequence does not depend on how the
    entries are spread over lanes.

    Each lane is a ring (parallel [int] arrays of dues and seqs and an
    array of events) whose entries are in key order.  [push] appends to
    the lane whose tail is the greatest key below the new one; when the
    new key is below every tail it takes an empty lane, or opens one.
    [pop] takes the least head across the open lanes, so it costs
    O(lanes), and [push] costs the same plus an amortized ring append;
    [top_due] is O(1).  The open lanes never outnumber the longest
    decreasing run of pushed keys.  The queue is meant for a monotone
    clock: when every push is at [now + d] and [now] never goes back,
    such a run has strictly decreasing delays, so the number of lanes
    is at most the number of distinct push delays + 1, the extra lane
    for a run of increasing keys pushed at once ({!Traffic.install}'s
    arrivals).  Any order of pushes stays correct; it only opens more
    lanes.

    A slot that no longer holds a pending entry holds [dummy].  A lane
    that drains gives back storage over 256 slots, and one over 256
    slots that falls to a quarter full halves, so a burst (the 10k
    install-time arrivals) holds memory only while it lasts. *)
module Lanes : sig
  type 'a t

  (** An empty queue whose vacated slots hold [dummy]. *)
  val create : 'a -> 'a t

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  (** [push q due seq x]; the [seq]s of pending entries must differ. *)
  val push : 'a t -> int -> int -> 'a -> unit

  (** The least entry's due; the queue must not be empty. *)
  val top_due : 'a t -> int

  (** Remove and return the least entry; the queue must not be empty. *)
  val pop : 'a t -> 'a

  (** The most lanes open at once so far. *)
  val width : 'a t -> int

  (** [x] is physically in some slot, pending or not. *)
  val holds : 'a t -> 'a -> bool
end

(** The pool's ownership rule holds: no buffer is both in a live queue
    and on a free stack, none is on a free stack twice, no two live queues
    share one, and every free buffer is its size class's exact size.
    Quadratic in the number of buffers; meant for tests. *)
val pool_consistent : t -> bool
