(* Low-level instrumentation indirection.  Kernel objects (spinlocks,
   reference counters, interrupt state) report events through [log];
   the kmonitor library installs the real dispatcher here.  Keeping only
   the indirection in ksim avoids a dependency cycle while matching the
   paper's design: log_event is a single entry point invoked from
   anywhere in the kernel, including interrupt context. *)

type kind =
  | Lock
  | Unlock
  | Contended
  | Ref_inc
  | Ref_dec
  | Irq_disable
  | Irq_enable
  | Sem_down
  | Sem_up
  | Custom of string  (* a subsystem-defined kind, declared by [custom] *)

let builtin_kinds =
  [ Lock; Unlock; Contended; Ref_inc; Ref_dec; Irq_disable; Irq_enable;
    Sem_down; Sem_up ]

(* Every name declared through [custom], so rule languages can validate
   kind names.  Process-global, like [log] itself. *)
let custom_names : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Declare (idempotently) the subsystem-defined kind [name].  Emitters
   call this once, when their module initialises, and keep the result:
   emitting a named kind then costs no lookup and no allocation. *)
let custom name =
  Hashtbl.replace custom_names name ();
  Custom name

(* The built-in kinds, then every declared custom kind by name. *)
let kinds () =
  builtin_kinds
  @ (Hashtbl.to_seq_keys custom_names |> List.of_seq |> List.sort compare
    |> List.map (fun n -> Custom n))

let pp_kind ppf k =
  let s =
    match k with
    | Lock -> "lock"
    | Unlock -> "unlock"
    | Contended -> "contended"
    | Ref_inc -> "ref-inc"
    | Ref_dec -> "ref-dec"
    | Irq_disable -> "irq-disable"
    | Irq_enable -> "irq-enable"
    | Sem_down -> "sem-down"
    | Sem_up -> "sem-up"
    | Custom name -> name
  in
  Fmt.string ppf s

(* Mirrors the paper's per-event record: an object reference, an event
   type, the source file/line that triggered it, and the process on whose
   behalf it fired (0 = interrupt/unattributed context). *)
type event = {
  obj : int;          (* identity of the affected kernel object *)
  value : int;        (* current value, e.g. refcount after the event *)
  kind : kind;
  file : string;
  line : int;
  pid : int;          (* acting process, 0 when unattributed *)
}

let pp_event ppf e =
  Fmt.pf ppf "obj=%d %a value=%d pid=%d (%s:%d)" e.obj pp_kind e.kind e.value
    e.pid e.file e.line

(* Default: instrumentation compiled out — events vanish at the cost of a
   single indirect call, as in an uninstrumented kernel. *)
let log : (event -> unit) ref = ref (fun _ -> ())

let enabled = ref false

(* [pid] is required, not defaulted: an optional argument would box
   every caller's pid even when instrumentation is off.  Pass 0 for
   unattributed context. *)
let emit ~pid ~obj ~value ~kind ~file ~line () =
  if !enabled then !log { obj; value; kind; file; line; pid }
