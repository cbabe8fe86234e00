(** The kopt compiler: rewrite an admitted compound into a
    {!Cosy.Cosy_plan.t}, which {!Cosy.Cosy_exec} runs in its one op loop.

    Purely syntactic — runs over the decoded ops of a compound the
    {!Kverify.Checker} already admitted, pairing adjacent syscall ops it
    can prove equivalent to a single bulk transfer (coalescing), a
    splice-style dispatch (fusion), marking the spans of proven counted
    loops for invariant hoisting, and marking the syscall ops whose
    first operand is a descriptor for the fd-resolution cache.
    Positions stay the original op indices, so the compound's jumps need
    no relocation: the second half of a pair becomes an unreachable
    [Skip] (pairing is refused when a jump targets it).

    Refusal is the default: non-contiguous or overlapping ranges,
    differing fd operands, an fd that depends on the first op's result,
    or non-constant lengths all leave the ops untouched. *)

type t = {
  code : Cosy.Cosy_plan.t;  (** what [Cosy_exec] runs *)
  coalesced_pairs : int;
  coalesced_bytes : int;    (** bytes moved by merged transfers *)
  fused_pairs : int;
  hoisted_ops : int;        (** ops inside proven counted loops *)
}

(** [compile ~shared_size ~loops ops ~slot_count] builds the plan for an
    admitted compound; [loops] are the checker's proven counted loops
    from its [Verified] verdict. *)
val compile :
  shared_size:int ->
  loops:Kverify.Checker.loop list ->
  Cosy.Cosy_op.op array ->
  slot_count:int ->
  t

(** Render the whole plan: rewrite summary plus one line per original
    op index ([*] marks hoisted spans). *)
val pp : Format.formatter -> t -> unit
