(* The repository's benchmark: four workloads on two clocks.

     main.exe                         every workload, untraced then traced,
                                      each in its own process; prints
                                      "workload metric value unit" lines
                                      and writes one JSON (-o)
     main.exe --workload W --seed N --seconds S --trace 0|1
                                      one workload in this process; the
                                      last stdout line is the JSON result
     main.exe compare A.json B.json   two sets of runs under the bounds
     main.exe smoke                   all workloads at 1/100 scale

   Exit status is non-zero when any correctness check fails. *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       [--runs K] [-o FILE] [--bounds FILE]\n\
    \       main.exe compare A.json B.json [--bounds FILE]\n\
    \       main.exe smoke [--bounds FILE]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable runs : int;       (* all-workload mode: seeds seed .. seed+runs-1 *)
  mutable out : string;
  mutable bounds : string;
  mutable rest : string list;
}

let parse argv =
  let o =
    {
      workload = None; seed = 1; seconds = 0.; trace = false;
      runs = 1; out = "BENCH_benchmark.json"; bounds = "BENCHMARK.json"; rest = [];
    }
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: w :: tl -> o.workload <- Some w; go tl
    | "--seed" :: n :: tl -> o.seed <- num int_of_string_opt n; go tl
    | "--seconds" :: s :: tl -> o.seconds <- num float_of_string_opt s; go tl
    | "--trace" :: ("0" | "1" as t) :: tl -> o.trace <- t = "1"; go tl
    | "--runs" :: n :: tl -> o.runs <- num int_of_string_opt n; go tl
    | "-o" :: f :: tl -> o.out <- f; go tl
    | "--bounds" :: f :: tl -> o.bounds <- f; go tl
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: tl -> o.rest <- o.rest @ [ a ]; go tl
    | [] -> ()
  in
  go (List.tl (Array.to_list argv));
  o

let unit_of name =
  List.find_map
    (fun (d : Metrics.def) -> if d.Metrics.name = name then Some d.Metrics.unit_ else None)
    (Metrics.end_to_end @ Metrics.per_layer)
  |> Option.value ~default:"ratio"

(* Every value printed is finite; a non-finite one fails the run. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json (r : Metrics.result) =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) r.Metrics.metrics in
  let metric (n, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) (unit_of n)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Metrics.correct && finite) (max 1 r.Metrics.attempted) r.Metrics.failed
    (String.concat ", " (List.map metric r.Metrics.metrics))

(* ---------- one workload in this process --------------------------------- *)

(* A run measures this many inputs: run seed N covers input seeds
   5N .. 5N+4.  Simulated metrics are then the mean over five inputs,
   so one input whose doc tree or op mix lands in another regime moves a
   run's numbers less. *)
let inputs_per_run = 5

(* Untraced runs repeat every input at least twice, so each input's
   simulated metrics are checked for exact repeatability. *)
let min_reps = 2 * inputs_per_run

(* Repeat [cell] over the run's inputs in turn until [deadline] host
   seconds have passed since [t0] and at least [min_reps] repetitions
   ran.  A full major collection between repetitions keeps one
   repetition's garbage out of the next one's timing. *)
let repeat cell ~seed ~traced ~t0 ~min_reps ~deadline =
  let rec go acc n =
    if n >= min_reps && Probe.host_now () -. t0 >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let input = (seed * inputs_per_run) + (n mod inputs_per_run) in
      go (cell { Cells.seed = input; scale = 1.; traced } :: acc) (n + 1)
    end
  in
  go [] 0

let run_one o name =
  let cell =
    match List.assoc_opt name Cells.all with
    | Some c -> c
    | None -> prerr_endline ("unknown workload " ^ name); usage ()
  in
  let t0 = Probe.host_now () in
  let repeat = repeat cell ~seed:o.seed ~t0 in
  let r =
    if not o.trace then
      Metrics.summarize_e2e (repeat ~traced:false ~min_reps ~deadline:o.seconds)
    else begin
      (* per-layer metrics have no bound, so when time is short one
         repetition of each kind will do; both start at the same input *)
      let untraced = repeat ~traced:false ~min_reps:1 ~deadline:(o.seconds /. 2.) in
      let traced = repeat ~traced:true ~min_reps:1 ~deadline:o.seconds in
      Metrics.summarize_layers ~untraced ~traced
    end
  in
  List.iter
    (fun (n, v) -> Printf.printf "%s %s %s %s\n" name n (num v) (unit_of n))
    (r.Metrics.metrics @ r.Metrics.detail);
  Printf.printf "%s error_rate %s ratio\n" name
    (num (Metrics.ratio_i r.Metrics.failed (max 1 r.Metrics.attempted)));
  List.iter
    (fun m -> Printf.eprintf "%s: %s differs across repetitions\n" name m)
    r.Metrics.mismatches;
  print_endline (result_json r);
  if not r.Metrics.correct then exit 1

(* ---------- every workload, one process each ------------------------------ *)

let run_all o =
  let runs = ref [] and ok = ref true in
  let child name seed trace seconds =
    let args =
      [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
         "--seconds"; num seconds; "--trace"; (if trace then "1" else "0") |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    let status = Unix.close_process_in ic in
    let lines = List.filter (( <> ) "") lines in
    let json = List.nth_opt lines (List.length lines - 1) in
    List.iter (fun l -> if Some l <> json then print_endline l) lines;
    (match (status, json) with
    | Unix.WEXITED 0, Some j ->
        runs :=
          Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"result\": %s}"
            name seed (if trace then 1 else 0) j
          :: !runs
    | _ ->
        ok := false;
        Printf.eprintf "%s (seed %d, trace %b) failed\n%!" name seed trace);
    flush stdout
  in
  for k = 0 to o.runs - 1 do
    List.iter
      (fun (name, _) ->
        child name (o.seed + k) false o.seconds;
        child name (o.seed + k) true o.seconds)
      Cells.all
  done;
  Out_channel.with_open_bin o.out (fun oc ->
      Printf.fprintf oc "{\"runs\": [\n%s\n]}\n" (String.concat ",\n" (List.rev !runs)));
  Printf.printf "wrote %s (%d runs)\n" o.out (List.length !runs);
  if not !ok then exit 1

(* ---------- smoke: every workload at 1/100 scale ---------------------------- *)

(* The catalogue here must match the one BENCHMARK.json declares. *)
let check_catalogue path =
  let j = Kperf.Json.parse (Compare.read_file path) in
  let declared key =
    List.map
      (fun m ->
        let s f = Kperf.Json.to_string (Compare.member f m) in
        (s "name", s "unit", s "better"))
      (Kperf.Json.to_list (Compare.member key j))
  in
  let ours defs =
    List.map
      (fun (d : Metrics.def) ->
        ( d.Metrics.name, d.Metrics.unit_,
          match d.Metrics.better with Metrics.Higher -> "higher" | Metrics.Lower -> "lower" ))
      defs
  in
  declared "end_to_end" = ours Metrics.end_to_end
  && declared "per_layer" = ours Metrics.per_layer

let smoke o =
  let ok = ref (check_catalogue o.bounds) in
  if not !ok then prerr_endline "smoke: metric catalogue differs from BENCHMARK.json";
  List.iter
    (fun seed ->
      List.iter
        (fun (name, cell) ->
          let p = { Cells.seed; scale = 0.01; traced = false } in
          (* two untraced repetitions, so their sim metrics must agree *)
          let untraced = [ cell p; cell p ] and traced = [ cell { p with Cells.traced = true } ] in
          let e = Metrics.summarize_e2e untraced in
          let l = Metrics.summarize_layers ~untraced ~traced in
          let pass = e.Metrics.correct && l.Metrics.correct in
          if not pass then ok := false;
          Printf.printf "smoke %-14s seed %d: %d ops, %s\n" name seed e.Metrics.attempted
            (if pass then "ok" else "FAILED"))
        Cells.all)
    [ 1; 2 ];
  if not !ok then exit 1

let () =
  (* every kernel carries an enabled metrics registry, as in bench/;
     recording is cycle-neutral *)
  Kstats.default_enabled := true;
  let o = parse Sys.argv in
  match (o.rest, o.workload) with
  | [ "compare"; a; b ], None -> Compare.run ~bounds_path:o.bounds a b
  | [ "smoke" ], None -> smoke o
  | [], Some w -> run_one o w
  | [], None -> run_all o
  | _ -> usage ()
