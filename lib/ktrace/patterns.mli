(** Frequent-sequence mining over syscall traces: counts every n-gram of
    syscalls within each process's trace and ranks them — the analysis
    that surfaced open-read-close, open-write-close, open-fstat and
    readdir-stat* in the paper (§2.2). *)

type ngram = Ksyscall.Sysno.t list

type t

(** Mine all n-grams of 2 to 4 syscalls. *)
val mine : Recorder.t -> t

val count : t -> ngram -> int

(** The [n] most frequent patterns (longer patterns win ties). *)
val top : t -> n:int -> (ngram * int) list

(** Lengths of every readdir-followed-by-stats run with at least
    [min_stats] stats: the readdirplus opportunities. *)
val readdir_stat_runs : Recorder.t -> min_stats:int -> int list

val pp_ngram : Format.formatter -> ngram -> unit
