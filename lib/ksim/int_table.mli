(** The int-keyed hash table behind the kernel's id lookups (fds, VFS
    file handles, memfs inodes and bitmap, the buffer cache).  The hash
    and the key comparison are inline int arithmetic, so a probe never
    calls the polymorphic [caml_hash] or [compare], nor a closure.  A
    key's bucket depends on every bit of the key.  The interface is the
    subset of [Hashtbl]'s the kernel uses, with the same meanings. *)

type 'a t

(** An empty table sized for about [n] keys; it grows as needed. *)
val create : int -> 'a t

val length : 'a t -> int

(** @raise Not_found if the key is absent. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** Bind the key, replacing any binding it had. *)
val replace : 'a t -> int -> 'a -> unit

(** Unbind the key; absent keys are ignored. *)
val remove : 'a t -> int -> unit

(** Fold over the bindings in an unspecified order. *)
val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** The longest bucket chain: the cost of the worst probe. *)
val max_chain : 'a t -> int
