(* Reference counter with instrumentation, plus underflow detection —
   the "incremented and decremented symmetrically" invariant the paper's
   monitors check. *)

type t = { id : int; name : string; mutable count : int }

let next_id = ref 10_000

let create ?(initial = 1) name =
  if initial < 0 then invalid_arg "Refcount.create";
  incr next_id;
  { id = !next_id; name; count = initial }

exception Underflow of string

let get ?(file = "<unknown>") ?(line = 0) t =
  t.count <- t.count + 1;
  Instrument.emit ~pid:0 ~obj:t.id ~value:t.count ~kind:Instrument.Ref_inc
    ~file ~line ()

let put ?(file = "<unknown>") ?(line = 0) t =
  if t.count <= 0 then
    raise (Underflow (Printf.sprintf "%s: put on zero refcount" t.name));
  t.count <- t.count - 1;
  Instrument.emit ~pid:0 ~obj:t.id ~value:t.count ~kind:Instrument.Ref_dec
    ~file ~line ();
  t.count = 0

let count t = t.count
let id t = t.id
let name t = t.name
