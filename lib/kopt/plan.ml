(* Compiling an admitted compound into a specialized program.

   The compiler runs after kverify's checker has proven the compound
   well-shaped and its loops bounded; it is a purely syntactic pass over
   the decoded ops that rewrites what it can prove equivalent and leaves
   everything else as-is:

   - {b copy coalescing}: two adjacent reads (or preads, or writes) on
     the same fd over contiguous shared-buffer ranges become one bulk
     transfer.  Sound because sequential-position semantics make the
     merged transfer touch exactly the bytes the pair would, and the
     split return values reconstruct the pair's results for any short
     read/EOF outcome.
   - {b op fusion}: a read immediately followed by a write of the same
     shared region with the same length becomes one splice-style
     dispatch (the data never conceptually leaves the kernel).
   - {b loop-invariant hoisting}: inside spans the checker proved to be
     counted loops, the per-iteration decode/bounds checks are hoisted
     to a one-time preamble, so body ops run at the cheaper hoisted
     rate.

   Rewrites are refused whenever equivalence is not syntactically
   evident: non-contiguous or overlapping ranges, fd operands that
   differ or depend on the first op's result, non-constant lengths, or
   a jump landing between the two halves of a pair.  The compiler also
   marks, once, which syscall ops take a descriptor operand (resolved
   through the per-execution fd cache; [close] evicts).  Execution lives
   in {!Cosy.Cosy_exec}, which runs the {!Cosy.Cosy_plan.t} built here;
   positions stay the original op indices, so the compound's jumps need
   no relocation. *)

module Op = Cosy.Cosy_op
module P = Cosy.Cosy_plan
module Sysno = Ksyscall.Sysno

type t = {
  code : P.t;
  coalesced_pairs : int;
  coalesced_bytes : int;  (* bytes moved by merged transfers *)
  fused_pairs : int;
  hoisted_ops : int;
}

(* The syscall a wire number names, if a compound may call it. *)
let sysno_of n = Option.map fst (Op.syscall n)

(* Does [arg] read the given slot?  Used to refuse pairing when the
   second op depends on the first one's result. *)
let arg_uses_slot s = function Op.Slot k -> k = s | _ -> false

(* Jump targets: an op index some Jmp/Jz lands on must stay addressable,
   so it can never be the buried second half of a pair. *)
let jump_targets ops =
  let tgts = Hashtbl.create 8 in
  Array.iter
    (function
      | Op.Jmp target -> Hashtbl.replace tgts target ()
      | Op.Jz { target; _ } -> Hashtbl.replace tgts target ()
      | _ -> ())
    ops;
  tgts

(* Try to pair ops[i] and ops[i+1].  All conditions are syntactic; any
   doubt means no rewrite. *)
let pair_rewrite ~shared_size ops i =
  match (ops.(i), ops.(i + 1)) with
  | ( Op.Syscall { dst = dst_a; sysno = s1; args = args_a },
      Op.Syscall { dst = dst_b; sysno = s2; args = args_b } ) -> (
      let indep fd = not (arg_uses_slot dst_a fd) in
      (* same fd, not the first op's result; adjacent shared ranges *)
      let contiguous fd1 o1 n1 fd2 o2 n2 =
        fd1 = fd2 && indep fd2 && n1 >= 0 && n2 >= 0 && o1 >= 0
        && o2 = o1 + n1
        && o1 + n1 + n2 <= shared_size
      in
      let coalesce kind fd off len_a len_b foff =
        Some (P.Coalesce { kind; dst_a; dst_b; fd; off; len_a; len_b; foff })
      in
      match (sysno_of s1, args_a, sysno_of s2, args_b) with
      (* read fd, shared+o1, n1 ; read fd, shared+o1+n1, n2 *)
      | ( Some Sysno.Read,
          [ fd1; Op.Shared o1; Op.Const n1 ],
          Some Sysno.Read,
          [ fd2; Op.Shared o2; Op.Const n2 ] )
        when contiguous fd1 o1 n1 fd2 o2 n2 ->
          coalesce P.G_read fd1 o1 n1 n2 0
      (* pread: ranges must be contiguous in the shared buffer AND in
         the file *)
      | ( Some Sysno.Pread,
          [ fd1; Op.Shared o1; Op.Const n1; Op.Const f1 ],
          Some Sysno.Pread,
          [ fd2; Op.Shared o2; Op.Const n2; Op.Const f2 ] )
        when contiguous fd1 o1 n1 fd2 o2 n2 && f1 >= 0 && f2 = f1 + n1 ->
          coalesce P.G_pread fd1 o1 n1 n2 f1
      | ( Some Sysno.Write,
          [ fd1; Op.Shared o1; Op.Const n1 ],
          Some Sysno.Write,
          [ fd2; Op.Shared o2; Op.Const n2 ] )
        when contiguous fd1 o1 n1 fd2 o2 n2 ->
          coalesce P.G_write fd1 o1 n1 n2 0
      (* read fd_r, shared+o, n ; write fd_w, shared+o, n — splice *)
      | ( Some Sysno.Read,
          [ fd_r; Op.Shared o1; Op.Const n1 ],
          Some Sysno.Write,
          [ fd_w; Op.Shared o2; Op.Const n2 ] )
        when o1 = o2 && n1 = n2 && n1 >= 0 && o1 >= 0 && indep fd_w
             && o1 + n1 <= shared_size ->
          Some (P.Fuse { dst_r = dst_a; dst_w = dst_b; fd_r; fd_w; off = o1; len = n1 })
      | _ -> None)
  | _ -> None

(* A syscall whose first operand is a file descriptor goes through the
   fd-resolution cache; [close] also evicts. *)
let fd_rewrite = function
  | Op.Syscall { args = _ :: _; sysno; _ } -> (
      match Op.syscall sysno with
      | Some (Sysno.Close, _) -> P.Cache_close
      | Some (_, Op.Fd :: _) -> P.Cache_fd
      | _ -> P.Keep)
  | _ -> P.Keep

let compile ~shared_size ~(loops : Kverify.Checker.loop list) ops ~slot_count =
  let n = Array.length ops in
  let rewrites = Array.make n P.Skip in
  let hoisted = Array.make n false in
  List.iter
    (fun { Kverify.Checker.l_head; l_back; _ } ->
      for i = l_head to min l_back (n - 1) do
        hoisted.(i) <- true
      done)
    loops;
  let tgts = jump_targets ops in
  let coalesced_pairs = ref 0 in
  let coalesced_bytes = ref 0 in
  let fused_pairs = ref 0 in
  let i = ref 0 in
  while !i < n do
    let cur = !i in
    let paired =
      if cur + 1 < n && not (Hashtbl.mem tgts (cur + 1)) then
        pair_rewrite ~shared_size ops cur
      else None
    in
    match paired with
    | Some (P.Coalesce c as rw) ->
        rewrites.(cur) <- rw;
        incr coalesced_pairs;
        coalesced_bytes := !coalesced_bytes + c.len_a + c.len_b;
        i := cur + 2
    | Some (P.Fuse _ as rw) ->
        rewrites.(cur) <- rw;
        incr fused_pairs;
        i := cur + 2
    | Some (P.Keep | P.Cache_fd | P.Cache_close | P.Skip) | None ->
        rewrites.(cur) <- fd_rewrite ops.(cur);
        i := cur + 1
  done;
  let hoisted_ops = Array.fold_left (fun a h -> if h then a + 1 else a) 0 hoisted in
  {
    code = { P.ops; rewrites; hoisted; n_loops = List.length loops; slot_count };
    coalesced_pairs = !coalesced_pairs;
    coalesced_bytes = !coalesced_bytes;
    fused_pairs = !fused_pairs;
    hoisted_ops;
  }

(* --- pretty-printing (kverify_tool opt) --------------------------------- *)

let pp_kind ppf = function
  | P.G_read -> Fmt.string ppf "read"
  | P.G_pread -> Fmt.string ppf "pread"
  | P.G_write -> Fmt.string ppf "write"

let pp_at code ppf i =
  match code.P.rewrites.(i) with
  | P.Keep | P.Cache_fd | P.Cache_close -> Op.pp_op ppf code.P.ops.(i)
  | P.Coalesce { kind; dst_a; dst_b; fd; off; len_a; len_b; foff } ->
      Fmt.pf ppf "r%d,r%d := bulk_%a(%a, shared+%d, %d+%d%t)" dst_a dst_b
        pp_kind kind Op.pp_arg fd off len_a len_b (fun ppf ->
          if kind = P.G_pread then Fmt.pf ppf ", @%d" foff)
  | P.Fuse { dst_r; dst_w; fd_r; fd_w; off; len } ->
      Fmt.pf ppf "r%d,r%d := splice(%a -> %a, shared+%d, %d)" dst_r dst_w
        Op.pp_arg fd_r Op.pp_arg fd_w off len
  | P.Skip -> Fmt.string ppf "(merged into previous)"

let pp ppf t =
  let code = t.code in
  let n = Array.length code.P.ops in
  Fmt.pf ppf "ops: %d -> %d instructions@." n
    (n - t.coalesced_pairs - t.fused_pairs);
  Fmt.pf ppf
    "coalesced pairs: %d (%d bytes), fused pairs: %d, counted loops: %d \
     (%d ops hoisted)@."
    t.coalesced_pairs t.coalesced_bytes t.fused_pairs code.P.n_loops
    t.hoisted_ops;
  Array.iteri
    (fun i hoisted ->
      Fmt.pf ppf "  %3d%s %a@." i (if hoisted then "*" else " ") (pp_at code) i)
    code.P.hoisted
