(** Profiling-driven region selection — the §2.4 plan, implemented:
    "we would like to modify Cosy to automate the job of deciding which
    code should be moved to the kernel using profiling."

    Per-function scores combine static shape (syscall sites weighted by
    loop depth) with optional dynamic execution counts from a trace;
    {!advise} returns the functions worth marking, the statement span a
    COSY_START/COSY_END pair should bracket, and the crossings a compound
    would save. *)

type call_site = {
  fname : string;
  callee : string;     (** the syscall invoked *)
  line : int;
  loop_depth : int;
}

type suggestion = {
  target : string;              (** function to mark *)
  score : float;
  syscall_sites : call_site list;
  first_line : int;             (** where COSY_START should go *)
  last_line : int;              (** where COSY_END should go *)
  est_crossings_saved : int;    (** per run of the marked region *)
  compilable : bool;            (** does Cosy-GCC accept the region as-is? *)
  reason : string;
}

(** Rank the program's functions.  [dynamic_counts] maps
    [(function, line)] to observed execution counts and overrides the
    static trip-count assumption; [threshold] (default 10) drops
    low-value functions. *)
val advise :
  ?threshold:float ->
  ?dynamic_counts:(string * int, int) Hashtbl.t ->
  Minic.Ast.program ->
  suggestion list
