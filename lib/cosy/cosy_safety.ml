(* Safety mechanisms for running user code in the kernel (§2.3):

   - a watchdog built on the preemptive kernel: every time the compound's
     execution reaches a loop back-edge, the scheduler checkpoint runs
     and the time spent in the kernel is compared to the budget; a
     compound that exceeds it is terminated;

   - segment-based memory protection for user-supplied functions, in the
     paper's two flavours: whole-function isolation in its own segment
     (maximum security, a segment reload on every entry/exit) or
     data-only isolation (no per-call overhead, but no protection
     against self-modifying or hand-crafted code);

   - the §2.4 future-work authentication heuristic: after a function has
     run safely [trust_after] times, its checks are dropped. *)

type protection_mode =
  | Isolated_segment    (* code+data in an isolated segment *)
  | Data_segment        (* only data isolated; no call overhead *)
  | Trusted             (* no segmentation (post-authentication) *)

let pp_mode ppf m =
  Fmt.string ppf
    (match m with
    | Isolated_segment -> "isolated-segment"
    | Data_segment -> "data-segment"
    | Trusted -> "trusted")

type policy = {
  mode : protection_mode;
  watchdog_budget : int;          (* max continuous kernel cycles *)
  trust_after : int option;       (* authenticate after N safe runs *)
}

let default_policy cost =
  {
    mode = Data_segment;
    watchdog_budget = cost.Ksim.Cost_model.max_kernel_cycles;
    trust_after = None;
  }

(* Declared in [Ksim.Kernel] so the syscall layer's single unwind can
   treat an expiry as a kill; rebound here for every existing match. *)
exception Watchdog_expired = Ksim.Kernel.Watchdog_expired

type t = {
  policy : policy;
  clock : Ksim.Sim_clock.t;
  cost : Ksim.Cost_model.t;
  mutable entry_cycles : int;       (* kernel-entry timestamp *)
  safe_runs : (string, int) Hashtbl.t;  (* user fn -> clean completions *)
  mutable watchdog_kills : int;
  mutable segment_loads : int;
  fault : Kfault.t;
  site_early : Kfault.site;  (* cosy.watchdog_early *)
}

let create ~fault ~policy ~clock ~cost () =
  {
    policy;
    clock;
    cost;
    entry_cycles = 0;
    safe_runs = Hashtbl.create 8;
    watchdog_kills = 0;
    segment_loads = 0;
    fault;
    site_early = Kfault.register fault "cosy.watchdog_early";
  }

let arm t = t.entry_cycles <- Ksim.Sim_clock.now t.clock

(* Called from every loop back-edge of the compound (and of user
   functions), i.e. whenever the preemptive kernel would get a chance to
   schedule: §2.3 "a preemptive kernel that checks the running time of a
   Cosy process inside the kernel every time it is scheduled out". *)
let watchdog_check t =
  let used = Ksim.Sim_clock.now t.clock - t.entry_cycles in
  (* injected early expiry: the timer interrupt fired spuriously while
     the compound was still under budget — same kill path, same
     cleanup, which is exactly what the sweep needs to exercise *)
  let early = Kfault.fire t.fault t.site_early in
  if used > t.policy.watchdog_budget || early then begin
    t.watchdog_kills <- t.watchdog_kills + 1;
    raise (Watchdog_expired { used; budget = t.policy.watchdog_budget })
  end

(* The effective protection mode for a user function, taking the
   authentication heuristic into account. *)
let effective_mode t fname =
  match t.policy.trust_after with
  | Some n when Option.value ~default:0 (Hashtbl.find_opt t.safe_runs fname) >= n
    ->
      Trusted
  | Some _ | None -> t.policy.mode

let record_safe_run t fname =
  Hashtbl.replace t.safe_runs fname
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.safe_runs fname))

let safe_runs t fname =
  Option.value ~default:0 (Hashtbl.find_opt t.safe_runs fname)

(* Charge the segment-register reloads for entering/leaving an isolated
   user function.  Only the fully-isolated mode pays this; data-only
   isolation "involves no additional runtime overhead while calling such
   a function" (§2.3). *)
let charge_call_overhead t = function
  | Isolated_segment ->
      t.segment_loads <- t.segment_loads + 2;
      Ksim.Sim_clock.advance t.clock (2 * t.cost.Ksim.Cost_model.segment_load)
  | Data_segment | Trusted -> ()

(* Build the segment a user function executes under, given the interp
   region [base, base+len). *)
let segment_for ~base ~len = function
  | Isolated_segment ->
      Some
        (Ksim.Segment.make ~name:"cosy-isolated" ~base ~limit:len
           ~executable:true ())
  | Data_segment ->
      (* code stays in the kernel segment; data references are confined *)
      Some (Ksim.Segment.make ~name:"cosy-data" ~base ~limit:len ())
  | Trusted -> None

let watchdog_kills t = t.watchdog_kills
let segment_loads t = t.segment_loads
