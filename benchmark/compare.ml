(* [compare A.json B.json]: two sets of runs written by the all-workload
   mode, judged metric by metric under the bounds in BENCHMARK.json.

   For each (workload, metric) the verdict is one of
   - identical:  both sets hold the same values (as for simulated
                 metrics when both ran the same seeds);
   - worse / better: B's median moved past the bound against A's;
   - same:       B's median is within the bound of A's;
   - unresolved: A's own quartile spread is wider than the bound (or
                 the metric has no bound) and B's runs do not all read
                 better, or all worse, than every run of A.
   It exits 1 when a metric with a bound (an end-to-end one) is worse. *)

module J = Kperf.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> failwith ("compare: missing field " ^ name)

type bound = { better : Metrics.better; bound : float option }

(* metric name -> direction and bound, from BENCHMARK.json *)
let load_bounds path =
  let j = J.parse (read_file path) in
  let entries key with_bound =
    List.map
      (fun m ->
        let better =
          match J.to_string (member "better" m) with
          | "higher" -> Metrics.Higher
          | "lower" -> Metrics.Lower
          | s -> failwith ("compare: bad direction " ^ s)
        in
        ( J.to_string (member "name" m),
          { better; bound = (if with_bound then Some (J.to_float (member "bound" m)) else None) } ))
      (J.to_list (member key j))
  in
  entries "end_to_end" true @ entries "per_layer" false

(* (workload, metric) -> values over the file's runs, in first-seen order *)
let load_runs path =
  let j = J.parse (read_file path) in
  let tbl = Hashtbl.create 256 and order = ref [] in
  List.iter
    (fun run ->
      let w = J.to_string (member "workload" run) in
      match member "metrics" (member "result" run) with
      | J.Obj ms ->
          List.iter
            (fun (m, v) ->
              let key = (w, m) in
              let v = J.to_float (member "value" v) in
              match Hashtbl.find_opt tbl key with
              | Some vs -> Hashtbl.replace tbl key (v :: vs)
              | None ->
                  order := key :: !order;
                  Hashtbl.replace tbl key [ v ])
            ms
      | _ -> failwith "compare: metrics is not an object")
    (J.to_list (member "runs" j));
  (tbl, List.rev !order)

let verdict { better; bound } a b =
  let beats x y = match better with Metrics.Higher -> x > y | Metrics.Lower -> x < y in
  let ma = Metrics.median a and mb = Metrics.median b in
  let q1, q3 = Metrics.quartiles a in
  let spread = if ma = 0. then 0. else (q3 -. q1) /. Float.abs ma in
  let gain =
    if ma = mb then 0.
    else if ma = 0. then (if beats mb ma then infinity else neg_infinity)
    else
      (mb -. ma) /. Float.abs ma
      *. match better with Metrics.Higher -> 1. | Metrics.Lower -> -1.
  in
  let all_pairs p = List.for_all (fun x -> List.for_all (fun y -> p x y) a) b in
  let all_better = all_pairs beats and all_worse = all_pairs (fun x y -> beats y x) in
  let verdict =
    if Metrics.sorted a = Metrics.sorted b then "identical"
    else
      match bound with
      | Some bound when spread <= bound || all_better || all_worse ->
          if gain < -.bound then "worse" else if gain > bound then "better" else "same"
      | _ ->
          if all_better then "better" else if all_worse then "worse" else "unresolved"
  in
  (verdict, gain, spread)

let run ~bounds_path path_a path_b =
  let bounds = load_bounds bounds_path in
  let a, order = load_runs path_a and b, _ = load_runs path_b in
  let tally = Hashtbl.create 8 and regressed = ref false in
  let quart vs =
    let q1, q3 = Metrics.quartiles vs in
    Printf.sprintf "%.6g [%.6g, %.6g]" (Metrics.median vs) q1 q3
  in
  Printf.printf "%-14s %-32s %-36s %-36s %9s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "spreadA" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      match (List.assoc_opt m bounds, Hashtbl.find_opt b key) with
      | Some bd, Some vb ->
          let va = Hashtbl.find a key in
          let v, gain, spread = verdict bd va vb in
          if v = "worse" && bd.bound <> None then regressed := true;
          Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v));
          Printf.printf "%-14s %-32s %-36s %-36s %+8.2f%% %7.2f%%  %s%s\n" w m (quart va)
            (quart vb) (100. *. gain) (100. *. spread) v
            (match bd.bound with
            | Some x -> Printf.sprintf " (bound %.0f%%)" (100. *. x)
            | None -> "")
      | _ -> ())
    order;
  let count v = Option.value ~default:0 (Hashtbl.find_opt tally v) in
  Printf.printf "\n%d identical, %d same, %d better, %d worse, %d unresolved\n"
    (count "identical") (count "same") (count "better") (count "worse")
    (count "unresolved");
  if !regressed then exit 1
