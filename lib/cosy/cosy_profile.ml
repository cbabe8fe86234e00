(* Profiling-driven region selection — the §2.4 plan, implemented:
   "In the future, we would like to modify Cosy to automate the job of
   deciding which code should be moved to the kernel using profiling."

   Two inputs combine into a per-function score:

   - static shape: how many syscall invocations the function contains and
     how deeply they sit inside loops (a syscall under two loops is worth
     far more than a straight-line one);
   - optional dynamic counts: observed executions per call site from a
     trace (e.g. a Ktrace recorder attached while the application runs a
     representative workload).

   [advise] returns the functions worth marking, each with the statement
   span that a COSY_START/COSY_END pair should bracket and an estimate of
   the boundary crossings a compound would save per invocation. *)

type call_site = {
  fname : string;
  callee : string;
  line : int;
  loop_depth : int;
}

type suggestion = {
  target : string;                (* function to mark *)
  score : float;
  syscall_sites : call_site list;
  first_line : int;               (* where COSY_START should go *)
  last_line : int;                (* where COSY_END should go *)
  est_crossings_saved : int;      (* per run of the marked region *)
  compilable : bool;              (* does Cosy-GCC accept the region? *)
  reason : string;
}

let is_syscall name = Cosy_op.sysno_of_name name <> None

(* Collect every syscall call site in an expression. *)
let rec expr_sites ~fname ~depth (e : Minic.Ast.expr) : call_site list =
  let sub = expr_sites ~fname ~depth in
  match e.Minic.Ast.e with
  | Minic.Ast.Call (callee, args) ->
      let inner = List.concat_map sub args in
      if is_syscall callee then
        { fname; callee; line = e.Minic.Ast.eloc.Minic.Ast.line; loop_depth = depth }
        :: inner
      else inner
  | Minic.Ast.Int_lit _ | Minic.Ast.Char_lit _ | Minic.Ast.Str_lit _
  | Minic.Ast.Var _ | Minic.Ast.Sizeof_ty _ ->
      []
  | Minic.Ast.Unop (_, a) | Minic.Ast.Deref a | Minic.Ast.Addr_of a
  | Minic.Ast.Cast (_, a) ->
      sub a
  | Minic.Ast.Binop (_, a, b) | Minic.Ast.Assign (a, b) | Minic.Ast.Index (a, b)
    ->
      sub a @ sub b
  | Minic.Ast.Cond (a, b, c) -> sub a @ sub b @ sub c

let rec stmt_sites ~fname ~depth (s : Minic.Ast.stmt) : call_site list =
  match s.Minic.Ast.s with
  | Minic.Ast.Sexpr e | Minic.Ast.Sdecl (_, _, Some e) | Minic.Ast.Sreturn (Some e)
    ->
      expr_sites ~fname ~depth e
  | Minic.Ast.Sdecl (_, _, None) | Minic.Ast.Sreturn None | Minic.Ast.Sbreak
  | Minic.Ast.Scontinue | Minic.Ast.Scosy_start | Minic.Ast.Scosy_end ->
      []
  | Minic.Ast.Sif (c, a, b) ->
      expr_sites ~fname ~depth c
      @ List.concat_map (stmt_sites ~fname ~depth) a
      @ List.concat_map (stmt_sites ~fname ~depth) b
  | Minic.Ast.Swhile (c, body) ->
      expr_sites ~fname ~depth:(depth + 1) c
      @ List.concat_map (stmt_sites ~fname ~depth:(depth + 1)) body
  | Minic.Ast.Sfor (c, body, step) ->
      expr_sites ~fname ~depth:(depth + 1) c
      @ List.concat_map (stmt_sites ~fname ~depth:(depth + 1)) body
      @ List.concat_map (stmt_sites ~fname ~depth:(depth + 1)) step
  | Minic.Ast.Sblock body -> List.concat_map (stmt_sites ~fname ~depth) body

let function_sites (f : Minic.Ast.func) =
  List.concat_map (stmt_sites ~fname:f.Minic.Ast.fname ~depth:0) f.Minic.Ast.body

(* Expected loop trip count when nothing better is known; matches the
   order of magnitude of the data-intensive loops the paper targets. *)
let assumed_trip_count = 64

let site_weight ?dynamic_counts (site : call_site) =
  match dynamic_counts with
  | Some counts -> (
      match Hashtbl.find_opt counts (site.fname, site.line) with
      | Some n -> float_of_int n
      | None -> 0.)
  | None -> float_of_int (int_of_float (float_of_int assumed_trip_count ** float_of_int site.loop_depth))

(* Would Cosy-GCC accept this function if we marked its whole body? *)
let region_compilable (f : Minic.Ast.func) =
  let marked =
    {
      f with
      Minic.Ast.body =
        (Minic.Ast.mk_stmt Minic.Ast.Scosy_start
         :: List.filter
              (fun s ->
                match s.Minic.Ast.s with
                | Minic.Ast.Sreturn _ -> false
                | _ -> true)
              f.Minic.Ast.body)
        @ [ Minic.Ast.mk_stmt Minic.Ast.Scosy_end ];
    }
  in
  let probe = { Minic.Ast.globals = []; funcs = [ marked ] } in
  match Cosy_gcc.compile probe ~fname:f.Minic.Ast.fname with
  | (_ : Cosy_gcc.compiled) -> true
  | exception _ -> false

let stmt_line (s : Minic.Ast.stmt) = s.Minic.Ast.sloc.Minic.Ast.line

(* Analyze a program and propose functions to mark. *)
let advise ?(threshold = 10.) ?dynamic_counts (p : Minic.Ast.program) :
    suggestion list =
  List.filter_map
    (fun (f : Minic.Ast.func) ->
      let sites = function_sites f in
      if sites = [] then None
      else begin
        let score =
          List.fold_left (fun acc s -> acc +. site_weight ?dynamic_counts s) 0. sites
        in
        if score < threshold then None
        else begin
          let lines = List.map stmt_line f.Minic.Ast.body in
          let est =
            List.fold_left
              (fun acc s -> acc +. site_weight ?dynamic_counts s)
              0. sites
          in
          Some
            {
              target = f.Minic.Ast.fname;
              score;
              syscall_sites = sites;
              first_line = List.fold_left min max_int lines;
              last_line = List.fold_left max 0 lines;
              est_crossings_saved = int_of_float est - 1;
              compilable = region_compilable f;
              reason =
                Printf.sprintf
                  "%d syscall site(s), max loop depth %d"
                  (List.length sites)
                  (List.fold_left (fun a s -> max a s.loop_depth) 0 sites);
            }
        end
      end)
    p.Minic.Ast.funcs
  |> List.sort (fun a b -> compare b.score a.score)
