(* Frequent-sequence mining over syscall traces: counts every n-gram of
   syscalls within each process's trace and ranks them.  This is the
   analysis that surfaced open-read-close, open-write-close, open-fstat
   and readdir-stat* in the paper. *)

open Ksyscall

type ngram = Sysno.t list

type t = { counts : (ngram, int) Hashtbl.t }

(* n-gram lengths mined, inclusive *)
let min_len = 2
let max_len = 4

let mine recorder =
  let t = { counts = Hashtbl.create 1024 } in
  let bump key =
    Hashtbl.replace t.counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key))
  in
  List.iter
    (fun (_pid, sysnos) ->
      let arr = Array.of_list sysnos in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for len = min_len to max_len do
          if i + len <= n then
            bump (Array.to_list (Array.sub arr i len))
        done
      done)
    (Recorder.sequences recorder);
  t

let count t ngram = Option.value ~default:0 (Hashtbl.find_opt t.counts ngram)

let top t ~n =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (k1, a) (k2, b) ->
         match compare b a with
         | 0 -> compare (List.length k2) (List.length k1)
         | c -> c)
  |> List.filteri (fun i _ -> i < n)

(* Collapse runs of [stat] after [readdir] into the readdir-stat* pattern
   count: how many readdir invocations were followed by at least
   [min_stats] stat calls.  These are the readdirplus opportunities. *)
let readdir_stat_runs recorder ~min_stats =
  let runs = ref [] in
  List.iter
    (fun (_pid, sysnos) ->
      let rec scan = function
        | Sysno.Readdir :: rest ->
            let rec count_stats n = function
              | Sysno.Stat :: more -> count_stats (n + 1) more
              | tail -> (n, tail)
            in
            let n, tail = count_stats 0 rest in
            if n >= min_stats then runs := n :: !runs;
            scan tail
        | _ :: rest -> scan rest
        | [] -> ()
      in
      scan sysnos)
    (Recorder.sequences recorder);
  !runs

let pp_ngram ppf ngram = Fmt.(list ~sep:(any "-") Sysno.pp) ppf ngram
