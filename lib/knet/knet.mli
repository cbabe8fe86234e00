(** knet: a deterministic, cycle-accounted socket layer on top of ksim.

    The stack simulates the server-visible half of TCP well enough for
    the paper's accounting: listening sockets with bounded accept
    backlogs, per-connection bounded send/receive buffers, and a
    level-triggered epoll-style readiness multiplexer.  The client side
    is a discrete-event traffic generator: connection attempts, request
    bytes and NIC drains are events on a global heap ordered by due
    cycle, processed in deterministic order interleaved with the
    scheduler — an [epoll_wait] with nothing ready blocks by advancing
    the clock (as I/O wait, like a process asleep on a wait queue) to
    the next network event.

    Socket ids live in their own namespace; the syscall layer maps them
    into per-process fd tables at [handle_base + id] so a close(2) can
    tell a socket from a VFS file handle.

    {b Queue storage.}  Each byte queue (a connection's receive and
    send queues, a simulated client's response stream) is one [Bytes.t]
    with an offset and a length.  Capacities are powers of two from
    256 B.  A queue takes its storage from the stack's pool on its first
    push; when it outgrows it, the live bytes move to a buffer of the
    next size class and the old one goes back.  The pool keeps one free
    list per size class, and it belongs to one [t], so two kernels
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

(** Queue bytes toward the peer; returns how many fit ([ENOBUFS] if the
    send buffer is completely full — counted in [net.sendq_full].
    Distinct from the would-block [EAGAIN] of {!recv}/{!accept}). *)
val send : t -> sock:int -> data:Bytes.t -> (int, Kvfs.Vtypes.errno) result

(** Free bytes in the send buffer (0 for a full queue). *)
val send_space : t -> sock:int -> (int, Kvfs.Vtypes.errno) result

(** Kernel-internal send used by the socket sendfile path: the payload
    was staged from the page cache through the shared transmit region,
    so no user-copy bytes are charged; counted in [net.sendfile.bytes]. *)
val send_kernel : t -> sock:int -> Bytes.t -> (int, Kvfs.Vtypes.errno) result

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
    pairs in socket-creation order.  The interest set is indexed by
    socket id, so the host work of one scan is proportional to [max]
    plus the registrations it skips (not ready, or ids freed below
    them), not to the size of the interest set.  When nothing is ready
    but network events are pending, blocks the current process (clock
    advances as I/O wait) until an event makes a registered socket
    ready; returns [[]] only when the traffic heap is exhausted and
    nothing is ready. *)
val epoll_wait :
  t -> ep:int -> max:int -> ((int * int) list, Kvfs.Vtypes.errno) result

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

  (** Schedule [spec.conns] connection attempts on the event heap.
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
      streams. *)
  val digest : t -> port:int -> string
end

(** Network events not yet delivered. *)
val pending_events : t -> int

(** Process every event due at or before the current clock. *)
val pump : t -> unit

(** Advance the clock (as I/O wait) to the next pending event and
    process it; [false] when the heap is empty. *)
val step : t -> bool

(** The pool's ownership rule holds: no buffer is both in a live queue
    and on a free list, none is on a free list twice, no two live queues
    share one, and every free buffer is its size class's exact size.
    Quadratic in the number of buffers; meant for tests. *)
val pool_consistent : t -> bool
