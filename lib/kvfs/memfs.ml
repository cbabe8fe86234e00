(* The base in-memory filesystem (the Ext2/Ext3 stand-in).  File data
   lives in block-sized pages; every data access charges the block
   device so the workloads see realistic I/O costs.

   Page shape: every page but the last is exactly one block (the unit
   [charge_data_io] charges), the last grows geometrically up to one
   block, there are exactly as many pages as [size] needs, and every
   byte at or past [size] is zero.  A write blits into its pages in
   place and a read gathers into the one buffer it returns, so
   appending to a file never copies the blocks before its tail.

   Pages are not pooled.  A pool of freed pages was measured: fewer
   words allocated, but retained free pages grew PostMark's peak heap
   by more than half, whatever the page size.  Nor is the last page
   kept at exact length, which would copy the tail on every small
   append (the database workload makes a thousand of them). *)

type inode = {
  ino : int;
  kind : Vtypes.kind;
  mutable pages : Bytes.t array;   (* regular files; see the page shape *)
  mutable size : int;
  (* directory entries: name -> (ino, arrival sequence); the sequence
     preserves insertion order for readdir without making create O(n).
     Regular files all share [no_children], which is never written. *)
  children : (string, int * int) Hashtbl.t;
  mutable child_seq : int;
  mutable nlink : int;
  mutable mtime : int;
  refcount : Ksim.Refcount.t;
}

let no_children : (string, int * int) Hashtbl.t = Hashtbl.create 1

let dir_entries d =
  Hashtbl.fold (fun name (ino, seq) acc -> (seq, name, ino) :: acc) d.children []
  |> List.sort compare
  |> List.map (fun (_, name, ino) -> (name, ino))

let dir_add d name ino =
  Hashtbl.replace d.children name (ino, d.child_seq);
  d.child_seq <- d.child_seq + 1

let dir_find d name = Option.map fst (Hashtbl.find_opt d.children name)
let dir_remove d name = Hashtbl.remove d.children name
let dir_count d = Hashtbl.length d.children

type t = {
  kernel : Ksim.Kernel.t;
  dev : Block_dev.t;
  inodes : (int, inode) Hashtbl.t;
  mutable next_ino : int;
  mutable next_block : int;        (* naive block placement cursor *)
  block_of_ino : (int, int) Hashtbl.t; (* [block_key] ino fblock -> disk block *)
  (* allocation accounting, checked by fsck: which disk blocks are in
     use, and which data blocks each live inode owns (file blocks only;
     metadata blocks are keyed by pseudo-ino and never freed) *)
  bitmap : (int, unit) Hashtbl.t;
  blocks_of : (int, (int * int) list ref) Hashtbl.t; (* ino -> (fblock, blk) *)
}

let root_ino = 1

let create ?image kernel =
  let dev = Block_dev.create ?image kernel in
  let t =
    {
      kernel;
      dev;
      inodes = Hashtbl.create 1024;
      next_ino = root_ino + 1;
      next_block = 64;
      block_of_ino = Hashtbl.create 4096;
      bitmap = Hashtbl.create 4096;
      blocks_of = Hashtbl.create 1024;
    }
  in
  Hashtbl.replace t.inodes root_ino
    {
      ino = root_ino;
      kind = Vtypes.Directory;
      pages = [||];
      size = 0;
      children = Hashtbl.create 8;
      child_seq = 0;
      nlink = 2;
      mtime = 0;
      refcount = Ksim.Refcount.create "memfs-root";
    };
  t

let block_size t = Block_dev.block_size t.dev
let dev t = t.dev

let find t ino = Hashtbl.find_opt t.inodes ino

(* [block_of_ino]'s key for file block [fblock] (-1 for a metadata
   block) of inode [ino]: one int, so a lookup boxes no pair.  Keys
   order as the (ino, fblock) pairs they encode. *)
let fblock_bits = 31
let block_key ino fblock = (ino lsl fblock_bits) lor (fblock + 1)
let key_ino key = key asr fblock_bits
let key_fblock key = (key land ((1 lsl fblock_bits) - 1)) - 1

(* Map a file-relative block to a stable disk block, allocating lazily;
   sequential files thus get (mostly) sequential blocks. *)
let disk_block t ino fblock =
  let key = block_key ino fblock in
  match Hashtbl.find t.block_of_ino key with
  | b -> b
  | exception Not_found ->
      let b = t.next_block in
      t.next_block <- t.next_block + 1;
      Hashtbl.replace t.block_of_ino key b;
      Hashtbl.replace t.bitmap b ();
      if fblock >= 0 then begin
        match Hashtbl.find t.blocks_of ino with
        | l -> l := (fblock, b) :: !l
        | exception Not_found ->
            Hashtbl.replace t.blocks_of ino (ref [ (fblock, b) ])
      end;
      b

let charge_data_io t ~ino ~off ~len ~write =
  let bs = block_size t in
  let first = off / bs and last = (off + max 0 (len - 1)) / bs in
  for fb = first to last do
    let blk = disk_block t ino fb in
    if write then Block_dev.write_block t.dev blk
    else Block_dev.read_block t.dev blk
  done

(* Metadata reads charge the block holding the inode; inodes pack 32 to
   a block as in Ext2/3, so hot inode tables stay cache-resident even
   for very large directories. *)
let charge_meta_io t ~ino =
  Block_dev.read_block t.dev (disk_block t (ino lsr 5) (-1))

let blocks_of_size t size = (size + block_size t - 1) / block_size t

(* In-kernel CPU for a metadata operation: hash lookups, permission
   checks, inode locking. *)
let charge_cpu ?(scale = 1) t =
  let cost = Ksim.Kernel.cost t.kernel in
  Ksim.Sim_clock.advance
    (Ksim.Kernel.clock t.kernel)
    (scale * cost.Ksim.Cost_model.vfs_op)

let stat_of t inode =
  {
    Vtypes.st_ino = inode.ino;
    st_kind = inode.kind;
    st_size = inode.size;
    st_nlink = inode.nlink;
    st_blocks = blocks_of_size t inode.size;
    st_mtime = inode.mtime;
  }

let new_inode t kind =
  let ino = t.next_ino in
  t.next_ino <- t.next_ino + 1;
  let inode =
    {
      ino;
      kind;
      pages = [||];
      size = 0;
      children =
        (match kind with
        | Vtypes.Directory -> Hashtbl.create 8
        | Vtypes.Regular -> no_children);
      child_seq = 0;
      nlink = (match kind with Vtypes.Directory -> 2 | Vtypes.Regular -> 1);
      mtime = Ksim.Kernel.now t.kernel;
      refcount = Ksim.Refcount.create ("memfs-ino-" ^ string_of_int ino);
    }
  in
  Hashtbl.replace t.inodes ino inode;
  inode

(* Return a dead inode's data blocks to the allocator's books.  The
   metadata block (pseudo-ino, fblock -1) is shared by 32 inodes and
   stays allocated. *)
let free_inode_blocks t ino =
  match Hashtbl.find_opt t.blocks_of ino with
  | None -> ()
  | Some l ->
      List.iter
        (fun (fblock, b) ->
          Hashtbl.remove t.block_of_ino (block_key ino fblock);
          Hashtbl.remove t.bitmap b)
        !l;
      Hashtbl.remove t.blocks_of ino

let as_dir t ino =
  match find t ino with
  | None -> Error Vtypes.ENOENT
  | Some i when i.kind <> Vtypes.Directory -> Error Vtypes.ENOTDIR
  | Some i -> Ok i

(* --- Vtypes.ops implementation ---------------------------------------- *)

let lookup t ~dir name =
  match as_dir t dir with
  | Error e -> Error e
  | Ok d -> (
      charge_cpu t;
      charge_meta_io t ~ino:dir;
      match dir_find d name with
      | Some ino -> Ok ino
      | None -> Error Vtypes.ENOENT)

let create_node t ~dir ~name kind =
  if not (Vtypes.valid_name name) then Error Vtypes.EINVAL
  else
    match as_dir t dir with
    | Error e -> Error e
    | Ok d ->
        if dir_find d name <> None then Error Vtypes.EEXIST
        else begin
          charge_cpu t ~scale:2;
          let inode = new_inode t kind in
          dir_add d name inode.ino;
          d.mtime <- Ksim.Kernel.now t.kernel;
          if kind = Vtypes.Directory then d.nlink <- d.nlink + 1;
          Block_dev.write_block t.dev (disk_block t (dir lsr 5) (-1));
          Ok inode.ino
        end

let unlink t ~dir ~name =
  match as_dir t dir with
  | Error e -> Error e
  | Ok d -> (
      match dir_find d name with
      | None -> Error Vtypes.ENOENT
      | Some ino -> (
          match find t ino with
          | None -> Error Vtypes.ENOENT
          | Some inode ->
              if inode.kind = Vtypes.Directory && dir_count inode > 0 then
                Error Vtypes.ENOTEMPTY
              else begin
                charge_cpu t ~scale:2;
                dir_remove d name;
                d.mtime <- Ksim.Kernel.now t.kernel;
                inode.nlink <- inode.nlink - 1;
                if inode.kind = Vtypes.Directory then d.nlink <- d.nlink - 1;
                if inode.nlink <= (match inode.kind with
                                   | Vtypes.Directory -> 1
                                   | Vtypes.Regular -> 0)
                then begin
                  Hashtbl.remove t.inodes ino;
                  free_inode_blocks t ino
                end;
                Block_dev.write_block t.dev (disk_block t (dir lsr 5) (-1));
                Ok ()
              end))

let readdir t ~dir =
  match as_dir t dir with
  | Error e -> Error e
  | Ok d ->
      charge_cpu t ~scale:(1 + (dir_count d / 16));
      charge_meta_io t ~ino:dir;
      let entry (name, ino) =
        let kind =
          match find t ino with
          | Some i -> i.kind
          | None -> Vtypes.Regular
        in
        { Vtypes.d_ino = ino; d_name = name; d_kind = kind }
      in
      Ok (List.map entry (dir_entries d))

let getattr t ~ino =
  match Hashtbl.find t.inodes ino with
  | exception Not_found -> Error Vtypes.ENOENT
  | inode ->
      charge_cpu t;
      charge_meta_io t ~ino;
      Ok (stat_of t inode)

(* --- paged file data ----------------------------------------------- *)

(* [p] copied into a fresh zeroed page of [len] bytes *)
let grown_page p len =
  let q = Bytes.make len '\000' in
  Bytes.blit p 0 q 0 (Bytes.length p);
  q

(* Make [inode]'s pages hold [size] bytes, keeping the page shape: the
   old last page, if no longer last, becomes a full block; a new last
   page holds exactly what it needs; a last page that stays last at
   least doubles, up to one block.  Every new byte is zero. *)
let ensure_pages inode ~bs size =
  let n = Array.length inode.pages in
  let need = (size + bs - 1) / bs in
  let tail = size - ((need - 1) * bs) in
  if need > n then begin
    let pages = Array.make need Bytes.empty in
    Array.blit inode.pages 0 pages 0 n;
    if n > 0 && Bytes.length pages.(n - 1) < bs then
      pages.(n - 1) <- grown_page pages.(n - 1) bs;
    for i = n to need - 2 do
      pages.(i) <- Bytes.make bs '\000'
    done;
    pages.(need - 1) <- Bytes.make tail '\000';
    inode.pages <- pages
  end
  else if need = n && n > 0 then begin
    let last = inode.pages.(n - 1) in
    let have = Bytes.length last in
    if have < tail then
      inode.pages.(n - 1) <- grown_page last (min bs (max tail (2 * have)))
  end

(* Move [len] bytes between [buf] at [pos] and the file at [off]. *)
let transfer inode ~bs ~off ~len buf pos ~to_file =
  let done_ = ref 0 in
  while !done_ < len do
    let at = off + !done_ in
    let page = inode.pages.(at / bs) and o = at mod bs in
    let n = min (len - !done_) (bs - o) in
    if to_file then Bytes.blit buf (pos + !done_) page o n
    else Bytes.blit page o buf (pos + !done_) n;
    done_ := !done_ + n
  done

(* The read primitive: the [n] bytes a read of [len] at [off] yields
   (fewer at end of file, none past it) land in [into] at [pos].  [read]
   is this into a buffer of exactly [n] bytes, so the two validate and
   charge the block device identically. *)
let read_into t ~ino ~off ~len ~into ~pos =
  match Hashtbl.find t.inodes ino with
  | exception Not_found -> Error Vtypes.ENOENT
  | inode ->
      if inode.kind = Vtypes.Directory then Error Vtypes.EISDIR
      else if off < 0 || len < 0 then Error Vtypes.EINVAL
      else begin
        let n = min len (max 0 (inode.size - off)) in
        if pos < 0 || pos > Bytes.length into - n then
          invalid_arg "Memfs.read_into";
        if n > 0 then charge_data_io t ~ino ~off ~len:n ~write:false;
        transfer inode ~bs:(block_size t) ~off ~len:n into pos ~to_file:false;
        Ok n
      end

let read t ~ino ~off ~len =
  let n =
    match Hashtbl.find t.inodes ino with
    | inode when off >= 0 && len >= 0 -> min len (max 0 (inode.size - off))
    | _ | (exception Not_found) -> 0
  in
  let out = Bytes.create n in
  match read_into t ~ino ~off ~len ~into:out ~pos:0 with
  | Ok _ -> Ok out
  | Error e -> Error e

let write t ~ino ~off ~data =
  match Hashtbl.find t.inodes ino with
  | exception Not_found -> Error Vtypes.ENOENT
  | inode ->
      if inode.kind = Vtypes.Directory then Error Vtypes.EISDIR
      else if off < 0 then Error Vtypes.EINVAL
      else begin
        let len = Bytes.length data and bs = block_size t in
        ensure_pages inode ~bs (off + len);
        transfer inode ~bs ~off ~len data 0 ~to_file:true;
        if off + len > inode.size then inode.size <- off + len;
        inode.mtime <- Ksim.Kernel.now t.kernel;
        if len > 0 then charge_data_io t ~ino ~off ~len ~write:true;
        Ok len
      end

let truncate t ~ino ~size =
  match find t ino with
  | None -> Error Vtypes.ENOENT
  | Some inode ->
      if inode.kind = Vtypes.Directory then Error Vtypes.EISDIR
      else if size < 0 then Error Vtypes.EINVAL
      else begin
        let bs = block_size t in
        if size >= inode.size then ensure_pages inode ~bs size
        else begin
          (* drop the pages past the new end, zero the new last page's
             bytes past it *)
          let need = (size + bs - 1) / bs in
          if need < Array.length inode.pages then
            inode.pages <- Array.sub inode.pages 0 need;
          if need > 0 then begin
            let last = inode.pages.(need - 1) in
            let from = size - ((need - 1) * bs) in
            Bytes.fill last from (Bytes.length last - from) '\000'
          end
        end;
        inode.size <- size;
        inode.mtime <- Ksim.Kernel.now t.kernel;
        Ok ()
      end

let rename t ~src_dir ~src ~dst_dir ~dst =
  if not (Vtypes.valid_name dst) then Error Vtypes.EINVAL
  else
    match (as_dir t src_dir, as_dir t dst_dir) with
    | Error e, _ | _, Error e -> Error e
    | Ok sd, Ok dd -> (
        match dir_find sd src with
        | None -> Error Vtypes.ENOENT
        | Some ino ->
            if dir_find dd dst <> None then Error Vtypes.EEXIST
            else begin
              dir_remove sd src;
              dir_add dd dst ino;
              (* a directory moving between parents carries its ".."
                 link with it *)
              (if src_dir <> dst_dir then
                 match find t ino with
                 | Some i when i.kind = Vtypes.Directory ->
                     sd.nlink <- sd.nlink - 1;
                     dd.nlink <- dd.nlink + 1
                 | _ -> ());
              sd.mtime <- Ksim.Kernel.now t.kernel;
              dd.mtime <- sd.mtime;
              Block_dev.write_block t.dev (disk_block t (src_dir lsr 5) (-1));
              Block_dev.write_block t.dev (disk_block t (dst_dir lsr 5) (-1));
              Ok ()
            end)

let fsync t ~ino =
  match find t ino with
  | None -> Error Vtypes.ENOENT
  | Some inode ->
      (* flush: charge full write cost for each dirty block *)
      let cost = Ksim.Kernel.cost t.kernel in
      let blocks = blocks_of_size t inode.size in
      Ksim.Kernel.charge_io t.kernel
        (blocks * cost.Ksim.Cost_model.disk_write_block / 20);
      Ok ()

let ops t =
  {
    Vtypes.fs_name = "memfs";
    root = root_ino;
    lookup = (fun ~dir name -> lookup t ~dir name);
    create = (fun ~dir ~name kind -> create_node t ~dir ~name kind);
    unlink = (fun ~dir ~name -> unlink t ~dir ~name);
    readdir = (fun ~dir -> readdir t ~dir);
    getattr = (fun ~ino -> getattr t ~ino);
    read = (fun ~ino ~off ~len -> read t ~ino ~off ~len);
    read_into =
      (fun ~ino ~off ~len ~into ~pos -> read_into t ~ino ~off ~len ~into ~pos);
    write = (fun ~ino ~off ~data -> write t ~ino ~off ~data);
    truncate = (fun ~ino ~size -> truncate t ~ino ~size);
    rename =
      (fun ~src_dir ~src ~dst_dir ~dst -> rename t ~src_dir ~src ~dst_dir ~dst);
    fsync = (fun ~ino -> fsync t ~ino);
    destroy_private = (fun () -> ());
  }

let inode_count t = Hashtbl.length t.inodes

(* --- fsck -------------------------------------------------------------- *)

(* Complaints about [i]'s pages: as many as its size needs, every one
   but the last a full block, the last large enough, and nothing but
   zeros past [size]. *)
let page_shape t i complain =
  let err fmt = Printf.ksprintf complain fmt in
  let bs = block_size t in
  let n = Array.length i.pages in
  if n <> (i.size + bs - 1) / bs then
    err "file %d: %d pages for size %d" i.ino n i.size;
  Array.iteri
    (fun k p ->
      let len = Bytes.length p in
      if k < n - 1 && len <> bs then
        err "file %d: page %d holds %d bytes, not a block" i.ino k len;
      if k = n - 1 && (len > bs || (k * bs) + len < i.size) then
        err "file %d: last page holds %d bytes for size %d" i.ino len i.size;
      let dirty = ref false in
      for b = max 0 (i.size - (k * bs)) to len - 1 do
        if Bytes.get p b <> '\000' then dirty := true
      done;
      if !dirty then err "file %d: page %d has data past size %d" i.ino k i.size)
    i.pages;
  if i.kind = Vtypes.Regular && i.children != no_children then
    err "file %d: has a children table of its own" i.ino

(* Full-filesystem invariant check, e2fsck-style: tree reachability,
   dentry integrity, link counts, page shape, block-map injectivity, and
   bitmap agreement.  Returns human-readable complaints; [] means clean.
   Charges a metadata read per directory walked, like a real fsck pass
   over the inode table. *)
let fsck t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let seen = Hashtbl.create 64 in (* reachable inos *)
  let refs = Hashtbl.create 64 in (* ino -> incoming dentry count *)
  let bump ino =
    Hashtbl.replace refs ino
      (1 + Option.value ~default:0 (Hashtbl.find_opt refs ino))
  in
  let rec walk dir_ino =
    if Hashtbl.mem seen dir_ino then
      err "cycle: directory %d reached twice" dir_ino
    else begin
      Hashtbl.replace seen dir_ino ();
      match find t dir_ino with
      | None -> err "walk: directory inode %d missing" dir_ino
      | Some d ->
          charge_cpu t;
          charge_meta_io t ~ino:dir_ino;
          let subdirs = ref 0 in
          List.iter
            (fun (name, ino) ->
              bump ino;
              match find t ino with
              | None -> err "dangling dentry %d/%s -> %d" dir_ino name ino
              | Some i ->
                  if i.kind = Vtypes.Directory then begin
                    incr subdirs;
                    walk ino
                  end
                  else Hashtbl.replace seen ino ())
            (dir_entries d);
          if d.nlink <> 2 + !subdirs then
            err "dir %d: nlink %d, expected %d" dir_ino d.nlink (2 + !subdirs)
    end
  in
  walk root_ino;
  let inos =
    Hashtbl.fold (fun ino _ acc -> ino :: acc) t.inodes [] |> List.sort compare
  in
  List.iter
    (fun ino ->
      let i = Hashtbl.find t.inodes ino in
      if not (Hashtbl.mem seen ino) then err "orphan inode %d (unreachable)" ino;
      if i.kind = Vtypes.Regular then begin
        let r = Option.value ~default:0 (Hashtbl.find_opt refs ino) in
        if i.nlink <> r then err "file %d: nlink %d but %d dentries" ino i.nlink r
      end;
      page_shape t i (fun s -> errs := s :: !errs))
    inos;
  if Hashtbl.length no_children > 0 then
    err "the shared empty children table has %d entries"
      (Hashtbl.length no_children);
  (* block accounting: no block mapped twice, every mapped block marked
     allocated, every allocated block mapped, no block owned by a dead
     inode (metadata pseudo-inos, fblock -1, are exempt) *)
  let owner = Hashtbl.create 64 in
  let mappings =
    Hashtbl.fold (fun k b acc -> (k, b) :: acc) t.block_of_ino []
    |> List.sort compare
  in
  List.iter
    (fun (key, b) ->
      let ino = key_ino key and fblock = key_fblock key in
      (match Hashtbl.find_opt owner b with
      | Some (ino', fblock') ->
          err "block %d shared by (%d,%d) and (%d,%d)" b ino' fblock' ino fblock
      | None -> Hashtbl.replace owner b (ino, fblock));
      if not (Hashtbl.mem t.bitmap b) then
        err "block %d mapped by (%d,%d) but free in bitmap" b ino fblock;
      if fblock >= 0 && not (Hashtbl.mem t.inodes ino) then
        err "leaked block %d: owning inode %d is gone" b ino)
    mappings;
  let marked =
    Hashtbl.fold (fun b () acc -> b :: acc) t.bitmap [] |> List.sort compare
  in
  List.iter
    (fun b ->
      if not (Hashtbl.mem owner b) then
        err "bitmap marks block %d but nothing maps it" b)
    marked;
  List.rev !errs
