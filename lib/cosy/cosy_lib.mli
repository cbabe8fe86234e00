(** Cosy-Lib: the utility layer that builds compounds (§2.3).

    Cosy-GCC rewrites marked C code into calls to these builders;
    applications may also use them directly.  The builder hands out
    result slots — an op whose input is another op's output simply
    references its slot, which is how "dependencies among parameters of
    the Cosy operations" are resolved. *)

type t

(** [create ~shared_size ()] starts an empty compound whose zero-copy
    staging space is [shared_size] bytes (default 64 KiB). *)
val create : ?shared_size:int -> unit -> t

(** Ops emitted so far. *)
val op_count : t -> int

(** Index the next emitted op will get (for jump targets). *)
val next_index : t -> int

(** Reserve a fresh result slot. *)
val fresh_slot : t -> int

(** Reserve [len] bytes of the shared buffer; returns the offset.
    @raise Invalid_argument when the buffer is exhausted. *)
val alloc_shared : t -> int -> int

(** Emit [dst := src]. *)
val set : t -> dst:int -> Cosy_op.arg -> unit

(** Emit a set into a fresh slot; returns the slot. *)
val set_fresh : t -> Cosy_op.arg -> int

(** Emit [dst := a op b]. *)
val arith : t -> dst:int -> Cosy_op.arith -> Cosy_op.arg -> Cosy_op.arg -> unit

val arith_fresh : t -> Cosy_op.arith -> Cosy_op.arg -> Cosy_op.arg -> int

exception Unknown_syscall of string

(** Emit a syscall op; returns its result slot.
    @raise Unknown_syscall for names outside {!Cosy_op.syscalls}. *)
val syscall : t -> string -> Cosy_op.arg list -> int

(** Emit a user-function call (executed in the kernel under the active
    protection mode); returns its result slot. *)
val call_user : t -> string -> Cosy_op.arg list -> int

(** Unconditional jump to an op index. *)
val jmp : t -> int -> unit

(** Jump when the argument is zero. *)
val jz : t -> Cosy_op.arg -> int -> unit

(** Retarget the jump emitted at index [at] (emit-then-backpatch).
    @raise Invalid_argument if [at] is out of range or not a jump. *)
val patch_jump : t -> at:int -> target:int -> unit

(** Append the final [Halt] and encode. *)
val finish : t -> Compound.t

val shared_bytes_used : t -> int
