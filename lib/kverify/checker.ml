(* Static compound verification (after the eBPF verifier's
   admission-before-execution discipline): prove, before a single op
   runs, that a Cosy compound or a kring batch is well-formed — every
   opcode decodes, every syscall's operands match their kinds in the
   compound syscall table ([Cosy_op.syscalls]), every shared-buffer
   reference is in bounds, and every loop back-edge is provably
   bounded.  Programs that pass run with the dynamic watchdog elided;
   anything the analysis cannot prove falls back to the dynamic path,
   so the checker only ever *subtracts* work.

   The analysis is deliberately conservative.  Boundedness in particular
   recognises exactly the counted-loop idiom Cosy-GCC emits —

       l_cond:  c := i < N          (comparison into a fixed slot)
                jz c -> l_end       (forward exit past the back-edge)
                ...body...
                t := i + k          (k > 0)
                i := t              (the only write to i in the loop)
                jmp l_cond

   — and rejects everything else (Call_user, arbitrary jumps, loops
   whose counter is written elsewhere).  That is enough to admit every
   compound the repo's own generators produce while refusing any
   hand-crafted unbounded one. *)

module Sysno = Ksyscall.Sysno
module Syscall = Ksyscall.Syscall
module Cosy_op = Cosy.Cosy_op
module Compound = Cosy.Compound

(* One proven counted loop: the analysis facts the kopt optimizer needs
   to hoist the per-iteration bounds/shape checks out of the body.  Op
   indices are inclusive; the loop body is ops[head..back]. *)
type loop = {
  l_head : int;     (* loop head: target of the back-edge *)
  l_guard : int;    (* the guard Jz with the forward exit *)
  l_back : int;     (* the back-edge jump itself *)
  l_counter : int;  (* the monotone counter slot *)
}

type verdict =
  | Verified of { ops : int; loops : loop list }
      (* ops statically checked at admission, plus every back-edge's
         proven counted loop *)
  | Rejected of string

let is_verified = function Verified _ -> true | Rejected _ -> false

let reject fmt = Fmt.kstr (fun m -> Error m) fmt

(* One operand against its kind in [Cosy_op.syscalls]; a descriptor is
   checked as any integer operand. *)
let check_arg ~shared_size ~slot_count what kind (arg : Cosy_op.arg) =
  let shared_ok off = off >= 0 && off < shared_size in
  match (kind, arg) with
  | (Cosy_op.Fd | Cosy_op.Int), Cosy_op.Const _ -> Ok ()
  | (Cosy_op.Fd | Cosy_op.Int), Cosy_op.Slot i ->
      if i >= 0 && i < slot_count then Ok ()
      else reject "%s: slot %d out of range" what i
  | (Cosy_op.Fd | Cosy_op.Int), Cosy_op.Shared off ->
      if shared_ok off then Ok ()
      else reject "%s: shared offset %d out of bounds" what off
  | (Cosy_op.Fd | Cosy_op.Int), Cosy_op.Str _ ->
      reject "%s: string where an int is expected" what
  | Cosy_op.Path, Cosy_op.Str _ -> Ok ()
  | Cosy_op.Path, Cosy_op.Shared off ->
      if shared_ok off then Ok ()
      else reject "%s: shared string offset %d out of bounds" what off
  | Cosy_op.Path, (Cosy_op.Const _ | Cosy_op.Slot _) ->
      reject "%s: path must be immediate or shared" what
  | Cosy_op.Out, Cosy_op.Shared off ->
      if shared_ok off then Ok ()
      else reject "%s: output buffer offset %d out of bounds" what off
  | Cosy_op.Out, Cosy_op.Const 0 -> Ok ()   (* discard *)
  | Cosy_op.Out, _ -> reject "%s: output buffer must be shared or null" what
  | Cosy_op.In, Cosy_op.Shared off ->
      if shared_ok off then Ok ()
      else reject "%s: input buffer offset %d out of bounds" what off
  | Cosy_op.In, Cosy_op.Str _ -> Ok ()
  | Cosy_op.In, _ -> reject "%s: input buffer must be shared or immediate" what

(* --- bounded back-edges ------------------------------------------------- *)

(* The slot an op writes, if any. *)
let written_slot = function
  | Cosy_op.Set { dst; _ }
  | Cosy_op.Arith { dst; _ }
  | Cosy_op.Syscall { dst; _ }
  | Cosy_op.Call_user { dst; _ } ->
      Some dst
  | Cosy_op.Jmp _ | Cosy_op.Jz _ | Cosy_op.Halt -> None

(* Is [slot] written anywhere in ops[lo..hi], other than at the indices
   in [except]? *)
let written_in ops ~lo ~hi ~except slot =
  let hit = ref false in
  for i = lo to hi do
    if (not (List.mem i except)) && written_slot ops.(i) = Some slot then
      hit := true
  done;
  !hit

(* One recognised loop-counter update ending at index [j]: either the
   single-op form [i := i + k] or Cosy-GCC's two-op form
   [t := i +/- k; i := t].  Returns the op indices involved and the
   signed step. *)
let counter_update ops ~lo ~hi i =
  let step_of op =
    match op with
    | Cosy_op.Arith { dst; op = Cosy_op.Aadd; a; b } -> (
        match (a, b) with
        | Cosy_op.Slot s, Cosy_op.Const k when s = i -> Some (dst, k)
        | Cosy_op.Const k, Cosy_op.Slot s when s = i -> Some (dst, k)
        | _ -> None)
    | Cosy_op.Arith { dst; op = Cosy_op.Asub; a = Cosy_op.Slot s; b = Cosy_op.Const k }
      when s = i ->
        Some (dst, -k)
    | _ -> None
  in
  let found = ref None in
  for j = lo to hi do
    match step_of ops.(j) with
    | Some (dst, k) when dst = i ->
        (* direct form: i := i + k *)
        found := Some ([ j ], k)
    | Some (tmp, k) ->
        (* two-op form: find the i := t that consumes it *)
        for j' = j + 1 to hi do
          match ops.(j') with
          | Cosy_op.Set { dst; src = Cosy_op.Slot s }
            when dst = i && s = tmp
                 && not (written_in ops ~lo:(j + 1) ~hi:(j' - 1) ~except:[] tmp)
            ->
              found := Some ([ j; j' ], k)
          | _ -> ()
        done
    | None -> ()
  done;
  !found

(* Prove the back-edge at index [j] (jumping to [tpos <= j]) bounded:
   find the guard comparison + forward exit at the loop head, the
   counter's monotone update in the body, and no other write to the
   counter (or to a slot-held bound) inside the loop. *)
let backedge_bounded ops ~tpos ~j =
  (* the guard: first Jz whose target exits forward past the back-edge *)
  let guard = ref None in
  (try
     for g = tpos to j - 1 do
       match ops.(g) with
       | Cosy_op.Jz { cond = Cosy_op.Slot c; target } when target > j ->
           guard := Some (g, c);
           raise Exit
       | _ -> ()
     done
   with Exit -> ());
  match !guard with
  | None -> reject "back-edge at op %d: no forward exit guard" j
  | Some (g, c) -> (
      (* the comparison defining the guard slot, between tpos and g *)
      let cmp = ref None in
      for d = tpos to g - 1 do
        match ops.(d) with
        | Cosy_op.Arith { dst; op; a; b } when dst = c -> cmp := Some (d, op, a, b)
        | _ -> ()
      done;
      match !cmp with
      | None -> reject "back-edge at op %d: guard slot r%d has no comparison" j c
      | Some (d, op, a, b) -> (
          (* identify counter slot and bound operand *)
          let counted =
            match (op, a, b) with
            | (Cosy_op.Alt | Cosy_op.Ale), Cosy_op.Slot i, bound ->
                Some (i, bound, `Up)     (* continue while i < / <= bound *)
            | (Cosy_op.Agt | Cosy_op.Age), Cosy_op.Slot i, bound ->
                Some (i, bound, `Down)   (* continue while i > / >= bound *)
            | (Cosy_op.Agt | Cosy_op.Age), bound, Cosy_op.Slot i ->
                Some (i, bound, `Up)     (* bound > i === i < bound *)
            | (Cosy_op.Alt | Cosy_op.Ale), bound, Cosy_op.Slot i ->
                Some (i, bound, `Down)
            | _ -> None
          in
          match counted with
          | None ->
              reject "back-edge at op %d: guard is not a counted comparison" j
          | Some (i, bound, dir) -> (
              (* a slot-held bound must itself be loop-invariant *)
              (match bound with
              | Cosy_op.Const _ -> Ok ()
              | Cosy_op.Slot bs ->
                  if written_in ops ~lo:tpos ~hi:j ~except:[] bs then
                    reject "back-edge at op %d: bound r%d written in loop" j bs
                  else Ok ()
              | _ -> reject "back-edge at op %d: non-scalar bound" j)
              |> function
              | Error _ as e -> e
              | Ok () -> (
                  match counter_update ops ~lo:(g + 1) ~hi:(j - 1) i with
                  | None ->
                      reject "back-edge at op %d: counter r%d never advances" j i
                  | Some (update_idxs, k) ->
                      let progresses =
                        match dir with `Up -> k > 0 | `Down -> k < 0
                      in
                      if not progresses then
                        reject
                          "back-edge at op %d: counter r%d steps the wrong way"
                          j i
                      else if
                        (* the comparison op [d] itself writes slot c, and
                           the update ops write i: both are accounted for *)
                        written_in ops ~lo:tpos ~hi:j ~except:update_idxs i
                      then
                        reject
                          "back-edge at op %d: counter r%d written outside its \
                           update" j i
                      else begin
                        ignore d;
                        Ok { l_head = tpos; l_guard = g; l_back = j; l_counter = i }
                      end))))

(* --- compound verification --------------------------------------------- *)

let verify_ops ~shared_size ~slot_count (ops : Cosy_op.op array) =
  let n = Array.length ops in
  let result = ref (Ok ()) in
  let loops = ref [] in
  let fail m = if Result.is_ok !result then result := Error m in
  let check = function Ok () -> () | Error m -> fail m in
  let check_backedge = function
    | Ok loop -> loops := loop :: !loops
    | Error m -> fail m
  in
  Array.iteri
    (fun idx op ->
      let target_ok t = t >= 0 && t <= n in
      match op with
      | Cosy_op.Set { dst; src } ->
          if dst < 0 || dst >= slot_count then
            fail (Printf.sprintf "op %d: set to slot %d out of range" idx dst)
          else
            check
              (check_arg ~shared_size ~slot_count
                 (Printf.sprintf "op %d (set)" idx)
                 Cosy_op.Int src)
      | Cosy_op.Arith { dst; a; b; _ } ->
          if dst < 0 || dst >= slot_count then
            fail (Printf.sprintf "op %d: arith to slot %d out of range" idx dst)
          else begin
            check
              (check_arg ~shared_size ~slot_count
                 (Printf.sprintf "op %d (arith)" idx)
                 Cosy_op.Int a);
            check
              (check_arg ~shared_size ~slot_count
                 (Printf.sprintf "op %d (arith)" idx)
                 Cosy_op.Int b)
          end
      | Cosy_op.Syscall { dst; sysno; args } -> (
          if dst < 0 || dst >= slot_count then
            fail
              (Printf.sprintf "op %d: syscall result slot %d out of range" idx
                 dst)
          else
            match Cosy_op.syscall sysno with
            | None -> fail (Printf.sprintf "op %d: bad opcode sys_%d" idx sysno)
            | Some (sys, kinds) ->
                if List.length kinds <> List.length args then
                  fail
                    (Printf.sprintf "op %d: %s takes %d args, got %d" idx
                       (Sysno.to_string sys) (List.length kinds)
                       (List.length args))
                else
                  List.iter2
                    (fun kind arg ->
                      check
                        (check_arg ~shared_size ~slot_count
                           (Printf.sprintf "op %d (%s)" idx (Sysno.to_string sys))
                           kind arg))
                    kinds args)
      | Cosy_op.Jmp target ->
          if not (target_ok target) then
            fail (Printf.sprintf "op %d: jump to %d out of range" idx target)
          else if target <= idx then
            check_backedge (backedge_bounded ops ~tpos:target ~j:idx)
      | Cosy_op.Jz { cond; target } ->
          check
            (check_arg ~shared_size ~slot_count
               (Printf.sprintf "op %d (jz)" idx)
               Cosy_op.Int cond);
          if not (target_ok target) then
            fail (Printf.sprintf "op %d: jump to %d out of range" idx target)
          else if target <= idx then
            check_backedge (backedge_bounded ops ~tpos:target ~j:idx)
      | Cosy_op.Call_user { fname; _ } ->
          (* arbitrary user code: not statically verifiable, keep the
             watchdog *)
          fail (Printf.sprintf "op %d: user call %s is not verifiable" idx fname)
      | Cosy_op.Halt -> ())
    ops;
  match !result with
  | Ok () -> Verified { ops = n; loops = List.rev !loops }
  | Error m -> Rejected m

let verify_compound ~shared_size compound =
  match Compound.decode compound with
  | exception Compound.Decode_error m -> Rejected ("decode: " ^ m)
  | ops, slot_count -> verify_ops ~shared_size ~slot_count ops

(* --- kring batch verification ------------------------------------------ *)

(* Shape-check one typed request against its descriptor: every scalar in
   range, every path plausible.  Descriptor validity (does the fd exist,
   is the path present) stays dynamic — admission only proves the
   request cannot make the service routine misbehave on shape. *)
let path_max = 4096

let path_ok p =
  String.length p > 0
  && String.length p < path_max
  && not (String.contains p '\000')

let req_shape_ok (req : Syscall.req) =
  let name = Sysno.to_string (Syscall.sysno_of_req req) in
  let fd_ok fd = fd >= 0 in
  let ok b what = if b then Ok () else reject "%s: %s" name what in
  match req with
  | Syscall.Open { path; _ }
  | Syscall.Stat { path }
  | Syscall.Readdir { path }
  | Syscall.Mkdir { path }
  | Syscall.Unlink { path }
  | Syscall.Readdirplus { path }
  | Syscall.Open_fstat { path; _ } ->
      ok (path_ok path) "malformed path"
  | Syscall.Rename { src; dst } -> ok (path_ok src && path_ok dst) "malformed path"
  | Syscall.Open_read_close { path; maxlen } ->
      if not (path_ok path) then reject "%s: malformed path" name
      else ok (maxlen >= 0) "negative length"
  | Syscall.Open_write_close { path; _ } -> ok (path_ok path) "malformed path"
  | Syscall.Close { fd } | Syscall.Fstat { fd } | Syscall.Fsync { fd } ->
      ok (fd_ok fd) "negative fd"
  | Syscall.Read { fd; len } -> ok (fd_ok fd && len >= 0) "bad fd/length"
  | Syscall.Write { fd; _ } -> ok (fd_ok fd) "negative fd"
  | Syscall.Pread { fd; off; len } ->
      ok (fd_ok fd && off >= 0 && len >= 0) "bad fd/offset/length"
  | Syscall.Pwrite { fd; off; _ } -> ok (fd_ok fd && off >= 0) "bad fd/offset"
  | Syscall.Lseek { fd; _ } -> ok (fd_ok fd) "negative fd"
  | Syscall.Getpid -> Ok ()
  | Syscall.Sendfile { fd; off; len } ->
      ok (fd_ok fd && off >= 0 && len >= 0) "bad fd/offset/length"
  | Syscall.Socket | Syscall.Epoll_create -> Ok ()
  | Syscall.Bind { sock; port } ->
      ok (fd_ok sock && port > 0 && port < 65536) "bad sock/port"
  | Syscall.Listen { sock; backlog } ->
      ok (fd_ok sock && backlog >= 0) "bad sock/backlog"
  | Syscall.Accept { sock } -> ok (fd_ok sock) "negative sock"
  | Syscall.Recv { sock; len } | Syscall.Accept_recv { sock; len } ->
      ok (fd_ok sock && len >= 0) "bad sock/length"
  | Syscall.Send { sock; _ } -> ok (fd_ok sock) "negative sock"
  | Syscall.Recv_send { sock; len; _ } ->
      ok (fd_ok sock && len >= 0) "bad sock/length"
  | Syscall.Sendfile_sock { sock; fd; off; len } ->
      ok (fd_ok sock && fd_ok fd && off >= 0 && len >= 0)
        "bad sock/fd/offset/length"
  | Syscall.Epoll_ctl { ep; sock; _ } ->
      ok (fd_ok ep && fd_ok sock) "negative fd"
  | Syscall.Epoll_wait { ep; max } -> ok (fd_ok ep && max > 0) "bad ep/max"

(* A ring batch is straight-line by construction, so boundedness is
   free; admission is per-request shape checking. *)
let verify_reqs reqs =
  let n = List.length reqs in
  let rec go = function
    | [] -> Verified { ops = n; loops = [] }
    | r :: rest -> (
        match req_shape_ok r with
        | Ok () -> go rest
        | Error m -> Rejected m)
  in
  go reqs
