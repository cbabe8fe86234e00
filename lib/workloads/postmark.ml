(* PostMark (Katcher, TR3022): the small-file/metadata benchmark used by
   the paper for E6 and E7.  Create an initial pool of files with sizes
   uniform in [min_size, max_size]; run [transactions] transactions, each
   pairing a create-or-delete with a read-or-append; then delete the
   remaining pool.

   The benchmark is factored as a stepper ([make] / [step]) so the SMP
   driver can interleave several instances one operation at a time across
   simulated CPUs; [run] drives a single instance to completion and is
   operation-for-operation identical to the original monolithic loop. *)

type config = {
  files : int;
  transactions : int;
  min_size : int;
  max_size : int;
  seed : int;
  dir : string;
  (* called between transactions; E6 hangs the user-space logger here *)
  pump : unit -> unit;
}

let default_config =
  {
    files = 500;
    transactions = 2_000;
    min_size = 512;
    max_size = 10_240;
    seed = 42;
    dir = "/postmark";
    pump = (fun () -> ());
  }

type stats = {
  created : int;
  deleted : int;
  read : int;
  appended : int;
  data_read : int;
  data_written : int;
  times : Ksim.Kernel.times;
}

type phase =
  | Pool of int          (* initial creates remaining *)
  | Trans of int         (* transactions remaining *)
  | Cleanup of int list  (* ids left to delete, sorted *)
  | Finished

(* The live file ids.  [nth k] is the [k]-th id [Hashtbl.iter] would
   visit in an [(int, unit) Hashtbl.t] built by the same [replace] and
   [remove] calls: PostMark has always picked files that way, and every
   digest and cycle count follows the picks.  So the buckets are
   stdlib's: newest-first id chains at [Hashtbl.hash id land (nb - 1)],
   [nb] starting at the power of two >= max 16 [files] and doubling once
   the size passes [2 * nb], each chain split in order.  A Fenwick tree
   over the chain lengths finds the chain holding position [k] in
   O(log nb) steps, where a walk of the table took O(live). *)
module Live = struct
  type t = {
    mutable chains : int list array;
    mutable fen : int array;  (* 1-based Fenwick tree over chain lengths *)
    mutable size : int;
  }

  let rec pow2_above x n = if x >= n then x else pow2_above (2 * x) n

  let create n =
    let nb = pow2_above 16 n in
    { chains = Array.make nb []; fen = Array.make (nb + 1) 0; size = 0 }

  let length t = t.size

  let bucket t id = Hashtbl.hash id land (Array.length t.chains - 1)

  let rec mem (id : int) = function [] -> false | x :: r -> x = id || mem id r

  (* [l] without its [id]; raises [Not_found] when [id] is not in it *)
  let rec without (id : int) = function
    | [] -> raise Not_found
    | x :: r -> if x = id then r else x :: without id r

  let bump t b d =
    let fen = t.fen in
    let i = ref (b + 1) in
    while !i < Array.length fen do
      fen.(!i) <- fen.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* Double the chains as [Hashtbl.resize] does, chain [b] split in
     order into [b] and [b + nb]; rebuild the tree in linear time. *)
  let resize t =
    let nb = Array.length t.chains in
    let chains = Array.make (2 * nb) [] in
    Array.iteri
      (fun b l ->
        let lo, hi = List.partition (fun id -> Hashtbl.hash id land nb = 0) l in
        chains.(b) <- lo;
        chains.(b + nb) <- hi)
      t.chains;
    let fen = Array.make ((2 * nb) + 1) 0 in
    Array.iteri (fun b l -> fen.(b + 1) <- List.length l) chains;
    for i = 1 to 2 * nb do
      let j = i + (i land -i) in
      if j <= 2 * nb then fen.(j) <- fen.(j) + fen.(i)
    done;
    t.chains <- chains;
    t.fen <- fen

  (* [Hashtbl.replace t id ()] *)
  let add t id =
    let b = bucket t id in
    if not (mem id t.chains.(b)) then begin
      t.chains.(b) <- id :: t.chains.(b);
      bump t b 1;
      t.size <- t.size + 1;
      if t.size > 2 * Array.length t.chains then resize t
    end

  (* [Hashtbl.remove t id] *)
  let remove t id =
    let b = bucket t id in
    match without id t.chains.(b) with
    | exception Not_found -> ()
    | l ->
        t.chains.(b) <- l;
        bump t b (-1);
        t.size <- t.size - 1

  (* The [k]-th id of the iteration order, [0 <= k < length t]: descend
     the tree to the chain whose prefix sums bracket [k], then walk it. *)
  let nth t k =
    if k < 0 || k >= t.size then invalid_arg "Postmark.Live.nth";
    let fen = t.fen in
    let pos = ref 0 and rem = ref k and step = ref (Array.length t.chains) in
    while !step > 0 do
      let j = !pos + !step in
      if fen.(j) <= !rem then begin
        pos := j;
        rem := !rem - fen.(j)
      end;
      step := !step lsr 1
    done;
    List.nth t.chains.(!pos) !rem

  (* every live id, ascending *)
  let sorted t =
    Array.fold_left (fun acc l -> List.rev_append l acc) [] t.chains
    |> List.sort Int.compare
end

type t = {
  sys : Ksyscall.Systable.t;
  cfg : config;
  rng : Wutil.rng;
  live : Live.t;
  mutable next_id : int;
  mutable phase : phase;
  mutable created : int;
  mutable deleted : int;
  mutable read : int;
  mutable appended : int;
  mutable data_read : int;
  mutable data_written : int;
}

(* [Printf.sprintf "%s/pm%06d" cfg.dir i], built by hand: one
   allocation per call on a path every transaction takes. *)
let file_name cfg i =
  if i < 0 then invalid_arg "Postmark.file_name";
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  let nd = max 6 (digits i) and dl = String.length cfg.dir in
  let b = Bytes.create (dl + 3 + nd) in
  Bytes.blit_string cfg.dir 0 b 0 dl;
  Bytes.blit_string "/pm" 0 b dl 3;
  let n = ref i in
  for k = Bytes.length b - 1 downto dl + 3 do
    Bytes.set b k (Char.chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  Bytes.unsafe_to_string b

let create_file sys cfg rng i =
  let path = file_name cfg i in
  let size = Wutil.rand_range rng cfg.min_size cfg.max_size in
  let fd =
    Wutil.ok
      (Ksyscall.Usyscall.sys_open sys ~path
         ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT; Kvfs.Vfs.O_TRUNC ])
  in
  let written = Wutil.ok (Ksyscall.Usyscall.sys_write sys ~fd ~data:(Wutil.payload size)) in
  ignore (Wutil.ok (Ksyscall.Usyscall.sys_close sys ~fd));
  written

(* Creates the working directory (untimed, as before the refactor). *)
let make ?(config = default_config) sys =
  ignore (Ksyscall.Usyscall.sys_mkdir sys ~path:config.dir);
  {
    sys;
    cfg = config;
    rng = Wutil.rng config.seed;
    live = Live.create config.files;
    next_id = 0;
    phase = (if config.files > 0 then Pool config.files
             else Trans config.transactions);
    created = 0;
    deleted = 0;
    read = 0;
    appended = 0;
    data_read = 0;
    data_written = 0;
  }

(* deterministic pick: a uniform position in the live set's order *)
let pick_live t =
  let n = Live.length t.live in
  if n = 0 then None else Some (Live.nth t.live (Wutil.rand_int t.rng n))

let create_one t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.data_written <- t.data_written + create_file t.sys t.cfg t.rng id;
  Live.add t.live id;
  t.created <- t.created + 1

let delete_one t id =
  ignore (Wutil.ok (Ksyscall.Usyscall.sys_unlink t.sys ~path:(file_name t.cfg id)));
  Live.remove t.live id;
  t.deleted <- t.deleted + 1

let read_one t id =
  let path = file_name t.cfg id in
  let fd = Wutil.ok (Ksyscall.Usyscall.sys_open t.sys ~path ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let st = Wutil.ok (Ksyscall.Usyscall.sys_fstat t.sys ~fd) in
  let data =
    Wutil.ok (Ksyscall.Usyscall.sys_read t.sys ~fd ~len:st.Kvfs.Vtypes.st_size)
  in
  t.data_read <- t.data_read + Bytes.length data;
  ignore (Wutil.ok (Ksyscall.Usyscall.sys_close t.sys ~fd));
  t.read <- t.read + 1

let append_one t id =
  let path = file_name t.cfg id in
  let fd =
    Wutil.ok (Ksyscall.Usyscall.sys_open t.sys ~path ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_APPEND ])
  in
  let cfg = t.cfg in
  let n = Wutil.rand_range t.rng cfg.min_size (max cfg.min_size (cfg.max_size / 4)) in
  t.data_written <-
    t.data_written + Wutil.ok (Ksyscall.Usyscall.sys_write t.sys ~fd ~data:(Wutil.payload n));
  ignore (Wutil.ok (Ksyscall.Usyscall.sys_close t.sys ~fd));
  t.appended <- t.appended + 1

let enter_cleanup t =
  match Live.sorted t.live with
  | [] -> Finished
  | ids -> Cleanup ids

(* One operation of the benchmark: an initial-pool create, a full
   transaction, or one cleanup delete.  Returns false once finished. *)
let step t =
  match t.phase with
  | Finished -> false
  | Pool k ->
      create_one t;
      t.phase <-
        (if k > 1 then Pool (k - 1)
         else if t.cfg.transactions > 0 then Trans t.cfg.transactions
         else enter_cleanup t);
      true
  | Trans k ->
      (if Wutil.rand_bool t.rng then create_one t
       else match pick_live t with Some id -> delete_one t id | None -> create_one t);
      (match pick_live t with
      | Some id -> if Wutil.rand_bool t.rng then read_one t id else append_one t id
      | None -> ());
      t.cfg.pump ();
      t.phase <- (if k > 1 then Trans (k - 1) else enter_cleanup t);
      true
  | Cleanup [] ->
      t.phase <- Finished;
      false
  | Cleanup (id :: rest) ->
      delete_one t id;
      t.phase <- (match rest with [] -> Finished | _ -> Cleanup rest);
      true

let finished t = match t.phase with Finished -> true | _ -> false

let stats_of t times =
  {
    created = t.created;
    deleted = t.deleted;
    read = t.read;
    appended = t.appended;
    data_read = t.data_read;
    data_written = t.data_written;
    times;
  }

let run ?(config = default_config) sys =
  let kernel = Ksyscall.Systable.kernel sys in
  let t = make ~config sys in
  let (), times =
    Ksim.Kernel.timed kernel (fun () -> while step t do () done)
  in
  stats_of t times
