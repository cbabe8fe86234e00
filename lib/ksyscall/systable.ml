(* The system: a kernel plus a VFS plus syscall bookkeeping.  User
   wrappers (Usyscall) cross the boundary and call the in-kernel service
   routines (Sys_file); the Cosy kernel extension calls the service
   routines directly, skipping the crossing — which is the entire point
   of the paper's §2. *)

type trace_record = {
  pid : int;
  sysno : Sysno.t;          (* which syscall *)
  arg : string;             (* human-readable principal argument *)
  bytes_in : int;           (* user -> kernel *)
  bytes_out : int;          (* kernel -> user *)
  ok : bool;
  timestamp : int;          (* virtual cycles at completion *)
}

(* What the admission gate (kverify's syscall-flow automaton) decided
   about one dispatch.  [Gate_kill] means the caller must terminate the
   offending process, watchdog-style. *)
type gate_decision =
  | Gate_allow
  | Gate_deny of Kvfs.Vtypes.errno
  | Gate_kill

type gate = pid:int -> sysno:Sysno.t -> gate_decision

type t = {
  kernel : Ksim.Kernel.t;
  vfs : Kvfs.Vfs.t;
  net : Knet.t;
  mutable tracer : (trace_record -> unit) option;
  (* the (single) dispatch-admission hook; [None] costs one branch *)
  mutable gate : gate option;
  counts : int array;  (* per-syscall invocations, by [Sysno.to_int] *)
  mutable total_syscalls : int;
  (* kstats handles, lazily registered per syscall, by [Sysno.to_int] *)
  st_counters : Kstats.counter option array;
  st_hists : Kstats.hist option array;
  st_total : Kstats.counter;
  (* boundary fault sites + the EINTR-restart retry counter *)
  fault : Kfault.t;
  site_eintr : Kfault.site;
  site_eagain : Kfault.site;
  st_eintr_restarts : Kstats.counter;
  st_eagain_injected : Kstats.counter;
  mutable eagain_streak : int;  (* consecutive injected EAGAINs *)
}

let nsysno = List.length Sysno.all

let create ?root_fs ?dcache_shards kernel =
  let vfs = Kvfs.Vfs.create ?root_fs ?dcache_shards kernel in
  {
    kernel;
    vfs;
    net = Knet.create kernel;
    tracer = None;
    gate = None;
    counts = Array.make nsysno 0;
    total_syscalls = 0;
    st_counters = Array.make nsysno None;
    st_hists = Array.make nsysno None;
    st_total = Kstats.counter (Ksim.Kernel.stats kernel) "syscall.total";
    fault = Ksim.Kernel.fault kernel;
    site_eintr = Kfault.register (Ksim.Kernel.fault kernel) "syscall.eintr";
    site_eagain = Kfault.register (Ksim.Kernel.fault kernel) "syscall.eagain";
    st_eintr_restarts =
      Kstats.counter (Ksim.Kernel.stats kernel) "retry.eintr_restarts";
    st_eagain_injected =
      Kstats.counter (Ksim.Kernel.stats kernel) "retry.eagain_injected";
    eagain_streak = 0;
  }

let kernel t = t.kernel
let fault t = t.fault
let eintr_site t = t.site_eintr

let count_eintr_restart t =
  Kstats.incr (Ksim.Kernel.stats t.kernel) t.st_eintr_restarts

let restart_budget = 8

(* After [restart_budget] spurious EAGAINs in a row the next call skips
   the probe and goes through, so a plan firing on every occurrence
   cannot starve a server that retries whenever epoll says ready. *)
let inject_eagain t =
  if t.eagain_streak >= restart_budget then begin
    t.eagain_streak <- 0;
    false
  end
  else if Kfault.fire t.fault t.site_eagain then begin
    t.eagain_streak <- t.eagain_streak + 1;
    Kstats.incr (Ksim.Kernel.stats t.kernel) t.st_eagain_injected;
    true
  end
  else begin
    t.eagain_streak <- 0;
    false
  end

let vfs t = t.vfs
let net t = t.net

let set_tracer t f = t.tracer <- Some f
let clear_tracer t = t.tracer <- None

let set_gate t g = t.gate <- Some g
let gate t = t.gate

(* Handle caches keep the hot path at one array load after the enabled
   branch; registration happens on a syscall's first use.  The kstats
   metric names keep the historical [syscall.<name>.*] strings. *)
let st_counter t sysno =
  let i = Sysno.to_int sysno in
  match t.st_counters.(i) with
  | Some c -> c
  | None ->
      let c =
        Kstats.counter (Ksim.Kernel.stats t.kernel)
          ("syscall." ^ Sysno.to_string sysno ^ ".count")
      in
      t.st_counters.(i) <- Some c;
      c

let st_hist t sysno =
  let i = Sysno.to_int sysno in
  match t.st_hists.(i) with
  | Some h -> h
  | None ->
      let h =
        Kstats.histogram (Ksim.Kernel.stats t.kernel)
          ("syscall." ^ Sysno.to_string sysno ^ ".latency")
      in
      t.st_hists.(i) <- Some h;
      h

(* Record one completed syscall's wall latency (cycles from user-stub
   entry to boundary exit) into the per-syscall histogram. *)
let observe_latency t ~sysno ~cycles =
  let stats = Ksim.Kernel.stats t.kernel in
  if Kstats.is_enabled stats then Kstats.observe stats (st_hist t sysno) cycles

(* The trace argument is rendered only for an installed tracer, so a
   disabled tracer costs one branch. *)
let record t ~sysno ~req ~bytes_in ~bytes_out ~ok =
  t.total_syscalls <- t.total_syscalls + 1;
  let i = Sysno.to_int sysno in
  t.counts.(i) <- t.counts.(i) + 1;
  let stats = Ksim.Kernel.stats t.kernel in
  if Kstats.is_enabled stats then begin
    Kstats.incr stats t.st_total;
    Kstats.incr stats (st_counter t sysno)
  end;
  match t.tracer with
  | None -> ()
  | Some f ->
      let p = Ksim.Kernel.current t.kernel in
      f
        {
          pid = p.Ksim.Kproc.pid;
          sysno;
          arg = Syscall.arg_of_req req;
          bytes_in;
          bytes_out;
          ok;
          timestamp = Ksim.Kernel.now t.kernel;
        }

let count t sysno = t.counts.(Sysno.to_int sysno)
let total_syscalls t = t.total_syscalls
