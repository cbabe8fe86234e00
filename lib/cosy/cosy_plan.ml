(* A compiled compound: the decoded ops plus what the optimizer decided
   at each op position.  Built after admission (kopt's compiler) and
   run by [Cosy_exec]'s op loop in place of a decode; plain data, so
   cosy stays free of any dependency on the optimizer.  Positions stay
   the original op indices, so the compound's jumps need no
   relocation. *)

type group_kind = G_read | G_pread | G_write

(* two adjacent transfers on contiguous ranges, one bulk copy *)
type coalesce = {
  kind : group_kind;
  dst_a : int;
  dst_b : int;
  fd : Cosy_op.arg;  (* syntactically identical in both halves *)
  off : int;         (* shared offset of the merged range *)
  len_a : int;
  len_b : int;
  foff : int;        (* pread only: file offset of the merged range *)
}

(* read->write of the same shared region, one splice dispatch *)
type fuse = {
  dst_r : int;
  dst_w : int;
  fd_r : Cosy_op.arg;
  fd_w : Cosy_op.arg;
  off : int;
  len : int;
}

type rewrite =
  | Keep  (* runs as decoded *)
  | Cache_fd
      (* a syscall whose first operand is a descriptor: resolved
         through the per-execution fd cache *)
  | Cache_close  (* [close]: resolved like [Cache_fd], then evicted *)
  | Coalesce of coalesce
  | Fuse of fuse
  | Skip  (* second half of a pair; unreachable by construction *)

type t = {
  ops : Cosy_op.op array;
  rewrites : rewrite array;
  hoisted : bool array;
      (* op index lies inside a proven counted loop: a non-syscall op
         there runs at [kopt_exec_op_hoisted] *)
  n_loops : int;
  slot_count : int;
}
