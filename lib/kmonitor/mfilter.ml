(* Rule-driven instrumentation selection — the §3.5 plan, implemented:
   "we plan to develop a language that specifies code patterns that the
   KGCC compiler can then recognize and instrument, in the spirit of
   aspect-oriented programming", e.g. "instrument every operation on an
   inode's reference count".

   A rule is a little pattern over events:

     kinds [@ file-prefix] [obj=N] [value<N | value>N]

   where [kinds] is a comma-separated list of event kinds (as pp_kind
   prints them, custom kinds included) or [*].  Examples:

     "ref-inc,ref-dec @ memfs"      every refcount op in memfs code
     "lock,unlock obj=3"            one particular lock
     "* value<0"                    anything whose value went negative
     "irq-disable,irq-enable"       interrupt balance only
     "kfault-inject"                every injected fault

   [compile] turns a rule into a predicate; [subscribe] attaches the
   rule to a dispatcher, forwarding only matching events to a sink. *)

type comparison = Lt of int | Gt of int

type t = {
  kinds : Ksim.Instrument.kind list option; (* None = every kind *)
  file_prefix : string option;
  obj : int option;
  value : comparison option;
  source : string;                          (* original rule text *)
}

exception Bad_rule of string

(* The inverse of [Instrument.pp_kind] over the built-in kinds and every
   declared custom kind. *)
let kind_of_string s =
  match
    List.find_opt
      (fun k -> Fmt.str "%a" Ksim.Instrument.pp_kind k = s)
      (Ksim.Instrument.kinds ())
  with
  | Some k -> k
  | None -> raise (Bad_rule (Printf.sprintf "unknown event kind %S" s))

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Parse the rule language described above. *)
let parse source : t =
  match split_words source with
  | [] -> raise (Bad_rule "empty rule")
  | kinds_word :: rest ->
      let kinds =
        if kinds_word = "*" then None
        else
          Some
            (String.split_on_char ',' kinds_word
            |> List.filter (fun w -> w <> "")
            |> List.map kind_of_string)
      in
      let rule =
        ref { kinds; file_prefix = None; obj = None; value = None; source }
      in
      let expect_int what s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> raise (Bad_rule (Printf.sprintf "%s expects a number, got %S" what s))
      in
      let rec eat = function
        | [] -> ()
        | "@" :: prefix :: rest ->
            rule := { !rule with file_prefix = Some prefix };
            eat rest
        | [ "@" ] -> raise (Bad_rule "@ expects a file prefix")
        | w :: rest when String.length w > 4 && String.sub w 0 4 = "obj=" ->
            rule :=
              { !rule with
                obj = Some (expect_int "obj=" (String.sub w 4 (String.length w - 4))) };
            eat rest
        | w :: rest when String.length w > 6 && String.sub w 0 6 = "value<" ->
            rule :=
              { !rule with
                value = Some (Lt (expect_int "value<" (String.sub w 6 (String.length w - 6)))) };
            eat rest
        | w :: rest when String.length w > 6 && String.sub w 0 6 = "value>" ->
            rule :=
              { !rule with
                value = Some (Gt (expect_int "value>" (String.sub w 6 (String.length w - 6)))) };
            eat rest
        | w :: _ -> raise (Bad_rule (Printf.sprintf "cannot parse %S" w))
      in
      eat rest;
      !rule

let matches t (ev : Ksim.Instrument.event) =
  (match t.kinds with
  | None -> true
  | Some ks -> List.mem ev.Ksim.Instrument.kind ks)
  && (match t.obj with None -> true | Some o -> ev.Ksim.Instrument.obj = o)
  && (match t.value with
     | None -> true
     | Some (Lt n) -> ev.Ksim.Instrument.value < n
     | Some (Gt n) -> ev.Ksim.Instrument.value > n)
  &&
  match t.file_prefix with
  | None -> true
  | Some p ->
      String.length ev.Ksim.Instrument.file >= String.length p
      && String.sub ev.Ksim.Instrument.file 0 (String.length p) = p

(* Compile a rule text into a predicate. *)
let compile source =
  let t = parse source in
  matches t

(* Attach a rule to a dispatcher: matching events reach [sink]. *)
let subscribe dispatcher ~rule ~name sink =
  let t = parse rule in
  Dispatcher.register dispatcher ~name (fun ev ->
      if matches t ev then sink ev)

let pp ppf t = Fmt.string ppf t.source
