(* Periodic kstats snapshots pushed into the event stream.  Each snapshot
   emits one ["kstats-snapshot"] event per registered metric, so the
   whole registry flows through the same log_event -> dispatcher -> ring
   path as lock and refcount events, and user space can reconstruct
   metric time series from the ring alone.

   Event encoding: [obj] is the metric's registration index, [value] is
   its scalar reading (counter value, gauge value, or histogram count),
   [file] carries the metric name, and [line] the snapshot sequence
   number — the fields a real kernel feed would pack into its record. *)

let snapshot = Ksim.Instrument.custom "kstats-snapshot"

type t = {
  kernel : Ksim.Kernel.t;
  interval : int;             (* cycles between periodic snapshots *)
  mutable last : int;         (* cycle time of the last snapshot *)
  mutable snapshots : int;
}

let create ?(interval = 1_000_000) kernel =
  { kernel; interval; last = Ksim.Kernel.now kernel; snapshots = 0 }

let snapshots t = t.snapshots

let scalar_of_view = function
  | Kstats.Counter_v v -> v
  | Kstats.Gauge_v { value; _ } -> value
  | Kstats.Hist_v h -> h.Kstats.v_count

(* Emit one snapshot now, unconditionally. *)
let emit t =
  let stats = Ksim.Kernel.stats t.kernel in
  t.snapshots <- t.snapshots + 1;
  t.last <- Ksim.Kernel.now t.kernel;
  List.iteri
    (fun i name ->
      match Kstats.find stats name with
      | None -> ()
      | Some view ->
          Ksim.Instrument.emit ~obj:i ~value:(scalar_of_view view)
            ~kind:snapshot ~file:name ~line:t.snapshots ())
    (Kstats.names stats)

(* Called from wherever is convenient (timer tick, syscall exit, bench
   loop): emits only when at least [interval] cycles have passed. *)
let tick t =
  if Ksim.Kernel.now t.kernel - t.last >= t.interval then emit t

(* Is this event one of ours? Returns (metric name, scalar value). *)
let decode (ev : Ksim.Instrument.event) =
  if ev.Ksim.Instrument.kind = snapshot then
    Some (ev.Ksim.Instrument.file, ev.Ksim.Instrument.value)
  else None
