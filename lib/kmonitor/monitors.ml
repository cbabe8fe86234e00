(* In-kernel on-line monitors (§3.3/§3.5): verify higher-level kernel
   invariants from the event stream — "spinlocks that are locked are
   later unlocked, reference counters are incremented and decremented
   symmetrically, interrupts that are disabled are later re-enabled". *)

type violation = {
  what : string;
  obj : int;
  file : string;
  line : int;
  time_seen : int;   (* event count when flagged *)
}

let pp_violation ppf v =
  Fmt.pf ppf "%s (obj=%d at %s:%d)" v.what v.obj v.file v.line

(* --- reference counter monitor ----------------------------------------- *)

type refcount_monitor = {
  rc_state : (int, int) Hashtbl.t;   (* obj -> last observed count *)
  mutable rc_events : int;
  mutable rc_violations : violation list;
}

let refcount_monitor () =
  { rc_state = Hashtbl.create 128; rc_events = 0; rc_violations = [] }

let refcount_callback m (ev : Ksim.Instrument.event) =
  match ev.Ksim.Instrument.kind with
  | Ksim.Instrument.Ref_inc | Ksim.Instrument.Ref_dec ->
      m.rc_events <- m.rc_events + 1;
      if ev.Ksim.Instrument.value < 0 then
        m.rc_violations <-
          {
            what = "reference count went negative";
            obj = ev.Ksim.Instrument.obj;
            file = ev.Ksim.Instrument.file;
            line = ev.Ksim.Instrument.line;
            time_seen = m.rc_events;
          }
          :: m.rc_violations;
      Hashtbl.replace m.rc_state ev.Ksim.Instrument.obj ev.Ksim.Instrument.value
  | _ -> ()

(* Objects whose counts never returned to their resting value: leak
   candidates, reported at teardown. *)
let refcount_leaks m ~resting =
  Hashtbl.fold
    (fun obj count acc -> if count > resting then (obj, count) :: acc else acc)
    m.rc_state []

(* --- spinlock monitor --------------------------------------------------- *)

type spinlock_monitor = {
  sl_held : (int, string * int) Hashtbl.t; (* obj -> acquire site *)
  mutable sl_events : int;
  mutable sl_acquisitions : int;
  mutable sl_violations : violation list;
}

let spinlock_monitor () =
  { sl_held = Hashtbl.create 32; sl_events = 0; sl_acquisitions = 0;
    sl_violations = [] }

let spinlock_callback m (ev : Ksim.Instrument.event) =
  match ev.Ksim.Instrument.kind with
  | Ksim.Instrument.Lock ->
      m.sl_events <- m.sl_events + 1;
      m.sl_acquisitions <- m.sl_acquisitions + 1;
      if Hashtbl.mem m.sl_held ev.Ksim.Instrument.obj then
        m.sl_violations <-
          {
            what = "lock acquired while already held";
            obj = ev.Ksim.Instrument.obj;
            file = ev.Ksim.Instrument.file;
            line = ev.Ksim.Instrument.line;
            time_seen = m.sl_events;
          }
          :: m.sl_violations;
      Hashtbl.replace m.sl_held ev.Ksim.Instrument.obj
        (ev.Ksim.Instrument.file, ev.Ksim.Instrument.line)
  | Ksim.Instrument.Unlock ->
      m.sl_events <- m.sl_events + 1;
      if not (Hashtbl.mem m.sl_held ev.Ksim.Instrument.obj) then
        m.sl_violations <-
          {
            what = "unlock of lock not held";
            obj = ev.Ksim.Instrument.obj;
            file = ev.Ksim.Instrument.file;
            line = ev.Ksim.Instrument.line;
            time_seen = m.sl_events;
          }
          :: m.sl_violations
      else Hashtbl.remove m.sl_held ev.Ksim.Instrument.obj
  | _ -> ()

let spinlocks_still_held m =
  Hashtbl.fold (fun obj site acc -> (obj, site) :: acc) m.sl_held []

(* --- lock contention monitor -------------------------------------------- *)

(* Watches [Contended] events (emitted when an acquirer found the lock
   held on another CPU).  This is not an invariant check but the paper's
   performance-monitoring use of the same stream: find the hot locks.
   The event's value carries the spin cycles charged. *)

type contention_monitor = {
  cn_state : (int, int * int) Hashtbl.t;  (* obj -> (contended, spin cycles) *)
  mutable cn_events : int;
  mutable cn_spin_cycles : int;
}

let contention_monitor () =
  { cn_state = Hashtbl.create 32; cn_events = 0; cn_spin_cycles = 0 }

let contention_callback m (ev : Ksim.Instrument.event) =
  match ev.Ksim.Instrument.kind with
  | Ksim.Instrument.Contended ->
      m.cn_events <- m.cn_events + 1;
      m.cn_spin_cycles <- m.cn_spin_cycles + ev.Ksim.Instrument.value;
      let hits, spin =
        match Hashtbl.find_opt m.cn_state ev.Ksim.Instrument.obj with
        | Some (h, s) -> (h, s)
        | None -> (0, 0)
      in
      Hashtbl.replace m.cn_state ev.Ksim.Instrument.obj
        (hits + 1, spin + ev.Ksim.Instrument.value)
  | _ -> ()

(* Locks by contended-acquisition count, hottest first. *)
let hottest_locks m =
  Hashtbl.fold (fun obj (h, s) acc -> (obj, h, s) :: acc) m.cn_state []
  |> List.sort (fun (_, h1, _) (_, h2, _) -> compare h2 h1)

(* --- network backpressure monitor --------------------------------------- *)

(* Watches knet's "net-backlog-drop" events.  The event's obj is the
   listening port, its value the listener's running drop count — so the
   monitor can name the hottest listening socket without a kernel-side
   scan. *)

let net_backlog_drop = Ksim.Instrument.custom "net-backlog-drop"

type net_monitor = {
  nm_state : (int, int) Hashtbl.t;   (* port -> drops observed *)
  mutable nm_events : int;
}

let net_monitor () = { nm_state = Hashtbl.create 8; nm_events = 0 }

let net_callback m (ev : Ksim.Instrument.event) =
  if ev.Ksim.Instrument.kind = net_backlog_drop then begin
    m.nm_events <- m.nm_events + 1;
    Hashtbl.replace m.nm_state ev.Ksim.Instrument.obj ev.Ksim.Instrument.value
  end

(* Listening ports by drop count, hottest first. *)
let hottest_listeners m =
  Hashtbl.fold (fun port drops acc -> (port, drops) :: acc) m.nm_state []
  |> List.sort (fun (p1, d1) (p2, d2) ->
         if d1 <> d2 then compare d2 d1 else compare p1 p2)

(* --- interrupt balance monitor ------------------------------------------ *)

type irq_monitor = {
  mutable irq_depth : int;
  mutable irq_events : int;
  mutable irq_violations : violation list;
}

let irq_monitor () = { irq_depth = 0; irq_events = 0; irq_violations = [] }

let irq_callback m (ev : Ksim.Instrument.event) =
  match ev.Ksim.Instrument.kind with
  | Ksim.Instrument.Irq_disable ->
      m.irq_events <- m.irq_events + 1;
      m.irq_depth <- m.irq_depth + 1
  | Ksim.Instrument.Irq_enable ->
      m.irq_events <- m.irq_events + 1;
      if m.irq_depth = 0 then
        m.irq_violations <-
          {
            what = "interrupts enabled while not disabled";
            obj = ev.Ksim.Instrument.obj;
            file = ev.Ksim.Instrument.file;
            line = ev.Ksim.Instrument.line;
            time_seen = m.irq_events;
          }
          :: m.irq_violations
      else m.irq_depth <- m.irq_depth - 1
  | _ -> ()

(* Convenience: register the standard monitors on a dispatcher. *)
type standard = {
  refcounts : refcount_monitor;
  spinlocks : spinlock_monitor;
  irqs : irq_monitor;
  contention : contention_monitor;
  net : net_monitor;
}

let register_standard dispatcher =
  let refcounts = refcount_monitor () in
  let spinlocks = spinlock_monitor () in
  let irqs = irq_monitor () in
  let contention = contention_monitor () in
  let net = net_monitor () in
  Dispatcher.register dispatcher ~name:"refcounts" (refcount_callback refcounts);
  Dispatcher.register dispatcher ~name:"spinlocks" (spinlock_callback spinlocks);
  Dispatcher.register dispatcher ~name:"irqs" (irq_callback irqs);
  Dispatcher.register dispatcher ~name:"contention"
    (contention_callback contention);
  Dispatcher.register dispatcher ~name:"net" (net_callback net);
  { refcounts; spinlocks; irqs; contention; net }

let all_violations s =
  s.refcounts.rc_violations @ s.spinlocks.sl_violations @ s.irqs.irq_violations
