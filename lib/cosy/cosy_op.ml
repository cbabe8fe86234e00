(* The Cosy intermediate language: the operations a compound may contain.
   Deliberately a small subset of C (§2.3: "We limited Cosy to the
   execution of only a subset of C in the kernel ... extending the
   language further ... may not increase performance because the overhead
   to decode a compound increases with the complexity of the language.")

   A compound is a sequence of ops over a register file of integer
   slots.  Slot values flow between ops, which is how Cosy-GCC "resolves
   dependencies among parameters of the Cosy operations". *)

type arg =
  | Const of int
  | Str of string              (* immediate string, e.g. a path *)
  | Slot of int                (* result of an earlier op *)
  | Shared of int              (* offset into the zero-copy shared buffer *)

let pp_arg ppf = function
  | Const n -> Fmt.pf ppf "$%d" n
  | Str s -> Fmt.pf ppf "%S" s
  | Slot i -> Fmt.pf ppf "r%d" i
  | Shared off -> Fmt.pf ppf "shared+%d" off

type arith = Aadd | Asub | Amul | Adiv | Amod | Aeq | Ane | Alt | Ale | Agt | Age

let pp_arith ppf a =
  Fmt.string ppf
    (match a with
    | Aadd -> "+" | Asub -> "-" | Amul -> "*" | Adiv -> "/" | Amod -> "%"
    | Aeq -> "==" | Ane -> "!=" | Alt -> "<" | Ale -> "<=" | Agt -> ">"
    | Age -> ">=")

type op =
  | Set of { dst : int; src : arg }
  | Arith of { dst : int; op : arith; a : arg; b : arg }
  | Syscall of { dst : int; sysno : int; args : arg list }
  | Jmp of int                  (* absolute op index *)
  | Jz of { cond : arg; target : int }
  | Call_user of { dst : int; fname : string; args : arg list }
  | Halt

module Sysno = Ksyscall.Sysno

(* The compound syscall set: every syscall a compound may name, with the
   kind of each operand.  The encoder, the kverify checker, the lowering
   in [Cosy_exec] and kopt's planner all read this one table.  A
   compound names a syscall by its wire number, which is its
   [Sysno.to_int]. *)
type kind =
  | Fd    (* a descriptor: an integer operand kopt's fd cache resolves *)
  | Int   (* Const / Slot / Shared-as-offset *)
  | Path  (* immediate string or NUL-terminated shared bytes *)
  | Out   (* output buffer: shared or null (discard) *)
  | In    (* input payload: shared or immediate *)

let syscalls : (Sysno.t * kind list) list =
  Sysno.
    [
      (Open, [ Path; Int ]);
      (Close, [ Fd ]);
      (Read, [ Fd; Out; Int ]);
      (Write, [ Fd; In; Int ]);
      (Pread, [ Fd; Out; Int; Int ]);
      (Pwrite, [ Fd; In; Int; Int ]);
      (Lseek, [ Fd; Int; Int ]);
      (Stat, [ Path ]);
      (Fstat, [ Fd ]);
      (Readdir, [ Path; Out ]);
      (Mkdir, [ Path ]);
      (Unlink, [ Path ]);
      (Rename, [ Path; Path ]);
      (Fsync, [ Fd ]);
      (Getpid, []);
    ]

(* [syscalls] indexed by wire number *)
let by_wire =
  let a = Array.make (List.length Sysno.all) None in
  List.iter (fun ((s, _) as row) -> a.(Sysno.to_int s) <- Some row) syscalls;
  a

(* The row a decoded wire number names; [None] outside the set. *)
let syscall n = if n >= 0 && n < Array.length by_wire then by_wire.(n) else None

(* The wire number of the named syscall, if a compound may call it. *)
let sysno_of_name name =
  match Sysno.of_string name with
  | Some s when Option.is_some (syscall (Sysno.to_int s)) -> Some (Sysno.to_int s)
  | _ -> None

let pp_op ppf = function
  | Set { dst; src } -> Fmt.pf ppf "r%d := %a" dst pp_arg src
  | Arith { dst; op; a; b } ->
      Fmt.pf ppf "r%d := %a %a %a" dst pp_arg a pp_arith op pp_arg b
  | Syscall { dst; sysno; args } ->
      Fmt.pf ppf "r%d := sys_%s(%a)" dst
        (match syscall sysno with Some (s, _) -> Sysno.to_string s | None -> "?")
        Fmt.(list ~sep:(any ", ") pp_arg)
        args
  | Jmp target -> Fmt.pf ppf "jmp %d" target
  | Jz { cond; target } -> Fmt.pf ppf "jz %a -> %d" pp_arg cond target
  | Call_user { dst; fname; args } ->
      Fmt.pf ppf "r%d := user %s(%a)" dst fname
        Fmt.(list ~sep:(any ", ") pp_arg)
        args
  | Halt -> Fmt.string ppf "halt"
