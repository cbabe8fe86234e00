(* Journalfs: the Reiserfs stand-in for experiment E7.

   A journaling filesystem layered on the memfs engine.  Its CPU-bound
   hot paths — journal checksumming, directory-entry scanning, and block
   bitmap search — are implemented in mini-C and executed through the
   embedded interpreter.  Compiling the module "with KGCC" means passing
   the module's mini-C source through the KGCC instrumentation pass
   (supplied as [transform]); the instrumented code executes more
   operations per byte, reproducing the paper's system-time blow-up under
   metadata-heavy workloads. *)

(* The module's mini-C source.  These routines deliberately have the
   pointer-chasing, byte-loop style of real filesystem code: every loop
   iteration dereferences through a pointer, which is exactly what BCC/
   KGCC instruments. *)
let source =
  {|
int jfs_checksum(char *buf, int len) {
  int sum = 0;
  int i;
  for (i = 0; i < len; i++) {
    sum = sum * 31 + buf[i];
    sum = sum & 16777215;
  }
  return sum;
}

int jfs_scan_dir(char *entries, int nentries, int entry_size, char *target) {
  int i;
  for (i = 0; i < nentries; i++) {
    char *e = entries + i * entry_size;
    int j = 0;
    while (e[j] != 0 && target[j] != 0 && e[j] == target[j]) j++;
    if (e[j] == 0 && target[j] == 0) return i;
  }
  return -1;
}

int jfs_bitmap_find(char *bitmap, int nbytes) {
  int i;
  for (i = 0; i < nbytes; i++) {
    if (bitmap[i] != 255) {
      int b = 0;
      int v = bitmap[i];
      while (b < 8) {
        if ((v & (1 << b)) == 0) {
          bitmap[i] = v | (1 << b);
          return i * 8 + b;
        }
        b++;
      }
    }
  }
  return -1;
}
|}

(* Outcome of a replay-on-mount pass over the write-ahead log. *)
type recover_info = {
  rec_scanned : int;      (* WAL records read from the image *)
  rec_replayed : int;     (* committed intents applied *)
  rec_skipped : int;      (* intents already applied (idempotent re-replay) *)
  rec_aborted : int;      (* intents whose operation failed (abort record) *)
  rec_torn : int;         (* trailing intents with neither verdict: discarded *)
  rec_errors : string list; (* malformed records / replay failures *)
}

type t = {
  kernel : Ksim.Kernel.t;
  inner : Memfs.t;
  interp : Minic.Interp.t;
  work_buf : int;                (* interp heap buffer for data blocks *)
  work_buf_size : int;
  name_buf : int;                (* interp heap buffer for names *)
  bitmap_buf : int;
  bitmap_bytes : int;
  data_journal : bool;           (* checksum data heads too (non-default) *)
  durable : bool;                (* write-ahead log in the device image *)
  mutable journal_seq : int;
  mutable checksum_acc : int;    (* running, so the work can't be elided *)
  mutable hot_calls : int;
  mutable op_seq : int;          (* write-ahead intent numbering *)
  mutable j_cursor : int;        (* next free WAL slot (relative to base) *)
  mutable applied_seq : int;     (* highest intent applied to the inner fs *)
  mutable last_recover : recover_info option;
}

(* --- Write-ahead log (durable mode) ------------------------------------ *)

(* WAL records live in the device image from this slot up, one record
   per slot (spilling into following slots when the payload outgrows a
   block).  Each mutating operation writes an intent record carrying
   enough to redo it, applies the operation, then writes a commit (Ok)
   or abort (Error) verdict.  Replay applies committed intents only, in
   order; a trailing intent with no verdict is the torn tail a power
   loss legitimately produces, and is discarded. *)
let journal_base = 1_000_000

type jop =
  | J_create of { dir : int; name : string; kind : Vtypes.kind }
  | J_unlink of { dir : int; name : string }
  | J_write of { ino : int; off : int; len : int; data : string option }
  | J_truncate of { ino : int; size : int }
  | J_rename of { src_dir : int; src : string; dst_dir : int; dst : string }

(* Length-prefixed field encoding, so names and data may contain any
   byte.  Ints are decimal followed by ':'. *)
let encode_op op =
  let b = Buffer.create 64 in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ':'
  in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  (match op with
  | J_create { dir; name; kind } ->
      Buffer.add_char b 'C';
      int dir;
      int (match kind with Vtypes.Regular -> 0 | Vtypes.Directory -> 1);
      str name
  | J_unlink { dir; name } ->
      Buffer.add_char b 'U';
      int dir;
      str name
  | J_write { ino; off; len; data } ->
      Buffer.add_char b 'W';
      int ino;
      int off;
      int len;
      (match data with
      | None -> int 0
      | Some d ->
          int 1;
          str d)
  | J_truncate { ino; size } ->
      Buffer.add_char b 'T';
      int ino;
      int size
  | J_rename { src_dir; src; dst_dir; dst } ->
      Buffer.add_char b 'R';
      int src_dir;
      str src;
      int dst_dir;
      str dst);
  Buffer.contents b

exception Bad_record of string

let decode_op s =
  let pos = ref 1 in
  let int () =
    match String.index_from_opt s !pos ':' with
    | None -> raise (Bad_record s)
    | Some j ->
        let v =
          try int_of_string (String.sub s !pos (j - !pos))
          with _ -> raise (Bad_record s)
        in
        pos := j + 1;
        v
  in
  let str () =
    let n = int () in
    if n < 0 || !pos + n > String.length s then raise (Bad_record s);
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  if String.length s < 2 then raise (Bad_record s);
  match s.[0] with
  | 'C' ->
      let dir = int () in
      let kind = if int () = 1 then Vtypes.Directory else Vtypes.Regular in
      J_create { dir; name = str (); kind }
  | 'U' ->
      let dir = int () in
      J_unlink { dir; name = str () }
  | 'W' ->
      let ino = int () in
      let off = int () in
      let len = int () in
      let data = if int () = 1 then Some (str ()) else None in
      J_write { ino; off; len; data }
  | 'T' ->
      let ino = int () in
      J_truncate { ino; size = int () }
  | 'R' ->
      let src_dir = int () in
      let src = str () in
      let dst_dir = int () in
      J_rename { src_dir; src; dst_dir; dst = str () }
  | _ -> raise (Bad_record s)

(* Redo one committed intent against the inner filesystem.  A
   metadata-only journal replays writes as zeros of the right length:
   extents and sizes are recovered, contents are not — the observable
   difference [data_journal] exists to close. *)
let apply_op t op =
  match op with
  | J_create { dir; name; kind } ->
      Result.map
        (fun (_ : int) -> ())
        (Memfs.create_node t.inner ~dir ~name kind)
  | J_unlink { dir; name } -> Memfs.unlink t.inner ~dir ~name
  | J_write { ino; off; len; data } ->
      let data =
        match data with
        | Some d -> Bytes.of_string d
        | None -> Bytes.make len '\000'
      in
      Result.map (fun (_ : int) -> ()) (Memfs.write t.inner ~ino ~off ~data)
  | J_truncate { ino; size } -> Memfs.truncate t.inner ~ino ~size
  | J_rename { src_dir; src; dst_dir; dst } ->
      Memfs.rename t.inner ~src_dir ~src ~dst_dir ~dst

(* Replay the WAL against the inner filesystem.  Idempotent: intents at
   or below [applied_seq] are skipped, so replaying twice equals
   replaying once.  Tolerant of a torn tail: an intent with no commit or
   abort record is counted and discarded, never applied. *)
let replay t =
  let dev = Memfs.dev t.inner in
  let bs = Block_dev.block_size in
  let rec scan slot acc =
    match Block_dev.read_block_data dev (journal_base + slot) with
    | None -> (slot, List.rev acc)
    | Some s -> scan (slot + 1 + ((max 1 (String.length s) - 1) / bs)) (s :: acc)
  in
  let cursor, raw = scan 0 [] in
  t.j_cursor <- max t.j_cursor cursor;
  t.journal_seq <- max t.journal_seq (List.length raw);
  let errors = ref [] in
  let parse s =
    if String.length s < 2 || s.[1] <> ':' then None
    else
      let rest = String.sub s 2 (String.length s - 2) in
      match s.[0] with
      | 'I' -> (
          match String.index_opt rest ':' with
          | None -> None
          | Some j -> (
              match int_of_string_opt (String.sub rest 0 j) with
              | None -> None
              | Some seq ->
                  Some
                    (`Intent
                       ( seq,
                         String.sub rest (j + 1) (String.length rest - j - 1) ))))
      | 'K' -> Option.map (fun s -> `Commit s) (int_of_string_opt rest)
      | 'A' -> Option.map (fun s -> `Abort s) (int_of_string_opt rest)
      | _ -> None
  in
  let intents = ref [] in
  let committed = Hashtbl.create 64 in
  let aborted = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match parse s with
      | Some (`Intent (seq, body)) -> intents := (seq, body) :: !intents
      | Some (`Commit seq) -> Hashtbl.replace committed seq ()
      | Some (`Abort seq) -> Hashtbl.replace aborted seq ()
      | None -> errors := Printf.sprintf "malformed record %S" s :: !errors)
    raw;
  let intents = List.rev !intents in
  t.op_seq <- List.fold_left (fun m (s, _) -> max m s) t.op_seq intents;
  let replayed = ref 0 and skipped = ref 0 and torn = ref 0 and ab = ref 0 in
  List.iter
    (fun (seq, body) ->
      if Hashtbl.mem aborted seq then incr ab
      else if not (Hashtbl.mem committed seq) then incr torn
      else if seq <= t.applied_seq then incr skipped
      else begin
        (match decode_op body with
        | exception Bad_record r ->
            errors :=
              Printf.sprintf "intent %d undecodable: %S" seq r :: !errors
        | op -> (
            match apply_op t op with
            | Ok () -> incr replayed
            | Error e ->
                errors :=
                  Printf.sprintf "intent %d replay failed: %s" seq
                    (Vtypes.errno_to_string e)
                  :: !errors));
        t.applied_seq <- max t.applied_seq seq
      end)
    intents;
  let info =
    {
      rec_scanned = List.length raw;
      rec_replayed = !replayed;
      rec_skipped = !skipped;
      rec_aborted = !ab;
      rec_torn = !torn;
      rec_errors = List.rev !errors;
    }
  in
  t.last_recover <- Some info;
  info

(* The module's working memory: [interp_pages] pages at
   [interp_base_vpn] in kernel space. *)
let interp_base_vpn = 0x60000
let interp_pages = 256

(* [transform] is the "compiler": identity models GCC, the KGCC
   instrumentation pass models KGCC.  [attach] runs right after the
   interpreter is created and before the module's code is loaded or any
   buffer allocated — KGCC hooks its runtime (object-map observer +
   check externs) here so that it sees every allocation. *)
let create ?(transform = fun (p : Minic.Ast.program) -> p)
    ?(attach = fun (_ : Minic.Interp.t) -> ())
    ?(data_journal = false) ?(durable = false) ?image kernel =
  let inner = Memfs.create ?image kernel in
  let interp =
    Minic.Interp.create
      ~space:(Ksim.Kernel.kspace kernel)
      ~clock:(Ksim.Kernel.clock kernel)
      ~cost:(Ksim.Kernel.cost kernel)
      ~base_vpn:interp_base_vpn ~pages:interp_pages
  in
  attach interp;
  let program = Minic.Parser.parse_program ~file:"journalfs.c" source in
  ignore (Minic.Interp.load_program interp (transform program));
  let work_buf_size = 4096 in
  let work_buf = Minic.Interp.alloc_buffer interp ~name:"jfs_work" work_buf_size in
  let name_buf = Minic.Interp.alloc_buffer interp ~name:"jfs_name" 256 in
  let bitmap_bytes = 64 in
  let bitmap_buf = Minic.Interp.alloc_buffer interp ~name:"jfs_bitmap" bitmap_bytes in
  {
    kernel;
    inner;
    interp;
    work_buf;
    work_buf_size;
    name_buf;
    bitmap_buf;
    bitmap_bytes;
    data_journal;
    durable;
    journal_seq = 0;
    checksum_acc = 0;
    hot_calls = 0;
    op_seq = 0;
    j_cursor = 0;
    applied_seq = 0;
    last_recover = None;
  }
  |> fun t ->
  (* replay-on-mount: a durable journalfs rebuilds the inner filesystem
     from whatever WAL the image holds before serving anything *)
  if durable then ignore (replay t);
  t

let interp t = t.interp

(* Run one of the module's mini-C hot paths. *)
let hot t name args =
  t.hot_calls <- t.hot_calls + 1;
  Minic.Interp.run t.interp ~args name

let space t = Minic.Interp.space t.interp

let stage_bytes t ~addr data =
  Ksim.Address_space.write_bytes ~pc:"journalfs.ml:stage" (space t) ~addr data

let stage_string t ~addr s =
  let s = if String.length s > 255 then String.sub s 0 255 else s in
  stage_bytes t ~addr (Bytes.of_string (s ^ "\000"))

(* Journal a metadata record: stage it into the work buffer, checksum it
   in mini-C, then push the journal block to disk. *)
let journal_record t ~kind ~payload =
  t.journal_seq <- t.journal_seq + 1;
  let record =
    Printf.sprintf "J%06d:%s:%s" t.journal_seq kind payload
  in
  (* the journal header carries a 16-byte checksummed header; the body is
     DMA'd without CPU involvement *)
  let len = min (min (String.length record) 16) t.work_buf_size in
  stage_bytes t ~addr:t.work_buf (Bytes.of_string (String.sub record 0 len));
  let sum = hot t "jfs_checksum" [ t.work_buf; len ] in
  t.checksum_acc <- (t.checksum_acc + sum) land 0xffffff;
  Block_dev.write_block (Memfs.dev t.inner) (1000000 + (t.journal_seq mod 128))

(* Checksum the head of file data flowing through write: journalfs, like
   most journaling filesystems, journals metadata plus a short data
   header rather than full data blocks. *)
let journal_data t data =
  let len = min (Bytes.length data) 128 in
  if len > 0 then begin
    stage_bytes t ~addr:t.work_buf (Bytes.sub data 0 len);
    let sum = hot t "jfs_checksum" [ t.work_buf; len ] in
    t.checksum_acc <- (t.checksum_acc + sum) land 0xffffff
  end

(* Durable-mode journal write: same mini-C head checksum as the legacy
   path, but the record lands in the device image via the durable write
   path — the only writes that survive a power loss, and the writes the
   [blockdev.crash_point] sweep probes. *)
let write_wal t s =
  t.journal_seq <- t.journal_seq + 1;
  let len = min (min (String.length s) 16) t.work_buf_size in
  stage_bytes t ~addr:t.work_buf (Bytes.of_string (String.sub s 0 len));
  let sum = hot t "jfs_checksum" [ t.work_buf; len ] in
  t.checksum_acc <- (t.checksum_acc + sum) land 0xffffff;
  let bs = Block_dev.block_size in
  let slot = t.j_cursor in
  t.j_cursor <- t.j_cursor + 1 + ((max 1 (String.length s) - 1) / bs);
  Block_dev.write_block_data (Memfs.dev t.inner) (journal_base + slot) s

(* Write-ahead wrapper: intent, operation, verdict. *)
let journaled : type a.
    t -> jop -> (unit -> (a, Vtypes.errno) result) -> (a, Vtypes.errno) result
    =
 fun t op thunk ->
  t.op_seq <- t.op_seq + 1;
  let seq = t.op_seq in
  write_wal t (Printf.sprintf "I:%d:%s" seq (encode_op op));
  let r = thunk () in
  (match r with
  | Ok _ ->
      write_wal t (Printf.sprintf "K:%d" seq);
      t.applied_seq <- max t.applied_seq seq
  | Error _ -> write_wal t (Printf.sprintf "A:%d" seq));
  r

(* Directory lookup via the mini-C entry scanner: stage the names of the
   directory into the work buffer as fixed-size records. *)
let scan_lookup t ~dir name =
  match Memfs.readdir t.inner ~dir with
  | Error _ -> ()
  | Ok entries ->
      let entry_size = 32 in
      let max_entries = t.work_buf_size / entry_size in
      let entries =
        if List.length entries > max_entries then
          List.filteri (fun i _ -> i < max_entries) entries
        else entries
      in
      List.iteri
        (fun i d ->
          let n = d.Vtypes.d_name in
          let n =
            if String.length n >= entry_size then String.sub n 0 (entry_size - 1)
            else n
          in
          stage_string t ~addr:(t.work_buf + (i * entry_size)) n)
        entries;
      stage_string t ~addr:t.name_buf name;
      ignore
        (hot t "jfs_scan_dir"
           [ t.work_buf; List.length entries; entry_size; t.name_buf ])

let alloc_block t =
  let bit = hot t "jfs_bitmap_find" [ t.bitmap_buf; t.bitmap_bytes ] in
  if bit < 0 then begin
    (* block group full: move to a fresh group (zeroed bitmap) *)
    stage_bytes t ~addr:t.bitmap_buf (Bytes.make t.bitmap_bytes '\000');
    ignore (hot t "jfs_bitmap_find" [ t.bitmap_buf; t.bitmap_bytes ])
  end

let ops t =
  let inner = t.inner in
  {
    Vtypes.fs_name = "journalfs";
    root = Memfs.root_ino;
    lookup =
      (fun ~dir name ->
        scan_lookup t ~dir name;
        Memfs.lookup inner ~dir name);
    create =
      (fun ~dir ~name kind ->
        scan_lookup t ~dir name;
        alloc_block t;
        if t.durable then
          journaled t
            (J_create { dir; name; kind })
            (fun () -> Memfs.create_node inner ~dir ~name kind)
        else begin
          journal_record t ~kind:"create" ~payload:name;
          Memfs.create_node inner ~dir ~name kind
        end);
    unlink =
      (fun ~dir ~name ->
        scan_lookup t ~dir name;
        if t.durable then
          journaled t
            (J_unlink { dir; name })
            (fun () -> Memfs.unlink inner ~dir ~name)
        else begin
          journal_record t ~kind:"unlink" ~payload:name;
          Memfs.unlink inner ~dir ~name
        end);
    readdir = (fun ~dir -> Memfs.readdir inner ~dir);
    getattr = (fun ~ino -> Memfs.getattr inner ~ino);
    read = (fun ~ino ~off ~len -> Memfs.read inner ~ino ~off ~len);
    read_into =
      (fun ~ino ~off ~len ~into ~pos ->
        Memfs.read_into inner ~ino ~off ~len ~into ~pos);
    write =
      (fun ~ino ~off ~data ->
        if t.data_journal then journal_data t data;
        (if Bytes.length data > 0 then alloc_block t);
        if t.durable then
          journaled t
            (J_write
               {
                 ino;
                 off;
                 len = Bytes.length data;
                 data =
                   (if t.data_journal then Some (Bytes.to_string data)
                    else None);
               })
            (fun () -> Memfs.write inner ~ino ~off ~data)
        else begin
          journal_record t ~kind:"write"
            ~payload:(Printf.sprintf "%d+%d" off (Bytes.length data));
          Memfs.write inner ~ino ~off ~data
        end);
    truncate =
      (fun ~ino ~size ->
        if t.durable then
          journaled t
            (J_truncate { ino; size })
            (fun () -> Memfs.truncate inner ~ino ~size)
        else begin
          journal_record t ~kind:"truncate" ~payload:(string_of_int size);
          Memfs.truncate inner ~ino ~size
        end);
    rename =
      (fun ~src_dir ~src ~dst_dir ~dst ->
        scan_lookup t ~dir:src_dir src;
        if t.durable then
          journaled t
            (J_rename { src_dir; src; dst_dir; dst })
            (fun () -> Memfs.rename inner ~src_dir ~src ~dst_dir ~dst)
        else begin
          journal_record t ~kind:"rename" ~payload:(src ^ "->" ^ dst);
          Memfs.rename inner ~src_dir ~src ~dst_dir ~dst
        end);
    fsync = (fun ~ino -> Memfs.fsync inner ~ino);
    destroy_private = (fun () -> ());
  }

type stats = {
  journal_records : int;
  hot_calls : int;
  interp_steps : int;
  checksum_acc : int;
}

let stats t =
  {
    journal_records = t.journal_seq;
    hot_calls = t.hot_calls;
    interp_steps = Minic.Interp.steps t.interp;
    checksum_acc = t.checksum_acc;
  }

let inner t = t.inner
let dev t = Memfs.dev t.inner
let durable t = t.durable
let last_recover t = t.last_recover
let fsck t = Memfs.fsck t.inner
