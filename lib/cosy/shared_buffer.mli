(** The zero-copy shared buffer (§2.3): a region mapped into both the
    user and kernel address spaces, so data produced by one syscall
    inside a compound is consumed by the next without crossing the
    boundary.  Both sides see the same bytes; neither pays a
    [copy_{to,from}_user]. *)

type t

(** [create ?stats size] builds the buffer.  When [stats] is given, the
    buffer registers [cosy.shared.*] traffic counters and a high-water
    gauge in it.
    @raise Invalid_argument on non-positive size. *)
val create : ?stats:Kstats.t -> int -> t

val size : t -> int

(** All accessors raise [Invalid_argument] when the range leaves the
    buffer. *)

val write : t -> off:int -> Bytes.t -> unit
val read : t -> off:int -> len:int -> Bytes.t
val write_string : t -> off:int -> string -> unit
val read_string : t -> off:int -> len:int -> string

(** {1 In-place access}

    For in-kernel code that reads or writes the buffer's bytes where they
    lie — a file read landing straight in the buffer, a ring entry parsed
    without a copy.  Such code reports its traffic with [note_read] and
    [note_written], which count exactly as [read] and [write] of the
    same range would (bytes read, bytes written, high water). *)

(** The buffer's backing bytes, shared, not copied. *)
val data : t -> Bytes.t

val note_read : t -> off:int -> len:int -> unit
val note_written : t -> off:int -> len:int -> unit

(** Highest byte offset ever written (for reporting). *)
val high_water : t -> int
