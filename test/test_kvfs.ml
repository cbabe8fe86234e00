(* Tests for the VFS substrate: memfs, block device, dcache, vfs layer,
   wrapfs, journalfs. *)

(* Enable the registry: Dcache/Block_dev stats are derived from kstats. *)
let mk_kernel () =
  let kernel = Ksim.Kernel.create ~cost:Ksim.Cost_model.zero () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  kernel

let errno = Alcotest.testable Kvfs.Vtypes.pp_errno ( = )

let check_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %a" msg Kvfs.Vtypes.pp_errno e

let check_err msg expected = function
  | Ok _ -> Alcotest.failf "%s: expected error" msg
  | Error e -> Alcotest.check errno msg expected e

(* --- memfs --------------------------------------------------------------- *)

let test_memfs_create_lookup () =
  let fs = Kvfs.Memfs.create (mk_kernel ()) in
  let root = Kvfs.Memfs.root_ino in
  let ino = check_ok "create" (Kvfs.Memfs.create_node fs ~dir:root ~name:"a" Kvfs.Vtypes.Regular) in
  Alcotest.(check int) "lookup finds it" ino
    (check_ok "lookup" (Kvfs.Memfs.lookup fs ~dir:root "a"));
  check_err "missing" Kvfs.Vtypes.ENOENT (Kvfs.Memfs.lookup fs ~dir:root "b");
  check_err "duplicate" Kvfs.Vtypes.EEXIST
    (Kvfs.Memfs.create_node fs ~dir:root ~name:"a" Kvfs.Vtypes.Regular);
  check_err "bad name" Kvfs.Vtypes.EINVAL
    (Kvfs.Memfs.create_node fs ~dir:root ~name:"x/y" Kvfs.Vtypes.Regular);
  check_err "lookup in file" Kvfs.Vtypes.ENOTDIR (Kvfs.Memfs.lookup fs ~dir:ino "z")

let test_memfs_rw () =
  let fs = Kvfs.Memfs.create (mk_kernel ()) in
  let root = Kvfs.Memfs.root_ino in
  let ino = check_ok "create" (Kvfs.Memfs.create_node fs ~dir:root ~name:"f" Kvfs.Vtypes.Regular) in
  let n = check_ok "write" (Kvfs.Memfs.write fs ~ino ~off:0 ~data:(Bytes.of_string "hello world")) in
  Alcotest.(check int) "wrote 11" 11 n;
  Alcotest.(check string) "read middle" "lo wo"
    (Bytes.to_string (check_ok "read" (Kvfs.Memfs.read fs ~ino ~off:3 ~len:5)));
  Alcotest.(check string) "read past eof truncated" "world"
    (Bytes.to_string (check_ok "read" (Kvfs.Memfs.read fs ~ino ~off:6 ~len:100)));
  (* sparse write *)
  ignore (check_ok "sparse" (Kvfs.Memfs.write fs ~ino ~off:20 ~data:(Bytes.of_string "end")));
  let st = check_ok "stat" (Kvfs.Memfs.getattr fs ~ino) in
  Alcotest.(check int) "size" 23 st.Kvfs.Vtypes.st_size;
  (* truncate down then up *)
  ignore (check_ok "trunc" (Kvfs.Memfs.truncate fs ~ino ~size:5));
  let st = check_ok "stat" (Kvfs.Memfs.getattr fs ~ino) in
  Alcotest.(check int) "shrunk" 5 st.Kvfs.Vtypes.st_size;
  ignore (check_ok "trunc up" (Kvfs.Memfs.truncate fs ~ino ~size:10));
  Alcotest.(check string) "zero filled" "\000\000"
    (Bytes.to_string (check_ok "read" (Kvfs.Memfs.read fs ~ino ~off:8 ~len:2)))

(* Paged storage against a plain-bytes model: writes at any offset
   (past EOF too, leaving a hole), truncates that grow or shrink across
   page boundaries, reads at any offset and length, and unlink plus
   re-create, with a clean fsck (page shape included) after every step. *)
type page_op =
  | P_write of int * int * char  (* offset, length, fill *)
  | P_truncate of int
  | P_read of int * int
  | P_recreate

let pp_page_op = function
  | P_write (off, len, c) -> Printf.sprintf "write(%d,%d,%C)" off len c
  | P_truncate n -> Printf.sprintf "truncate(%d)" n
  | P_read (off, len) -> Printf.sprintf "read(%d,%d)" off len
  | P_recreate -> "recreate"

let qcheck_paged_storage =
  let bs = 4096 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map3
              (fun off len c -> P_write (off, len, c))
              (int_bound (3 * bs)) (int_bound (2 * bs)) (char_range 'a' 'z') );
          (2, map (fun n -> P_truncate n) (int_bound (4 * bs)));
          (4, map2 (fun off len -> P_read (off, len)) (int_bound (5 * bs)) (int_bound (3 * bs)));
          (1, return P_recreate);
        ])
  in
  QCheck.Test.make ~name:"paged files = bytes model, fsck clean" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_page_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let fs = Kvfs.Memfs.create (mk_kernel ()) in
      let root = Kvfs.Memfs.root_ino in
      let create () =
        check_ok "create" (Kvfs.Memfs.create_node fs ~dir:root ~name:"f" Kvfs.Vtypes.Regular)
      in
      let ino = ref (create ()) and model = ref Bytes.empty in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun op ->
          (match op with
          | P_write (off, len, c) ->
              let n =
                check_ok "write" (Kvfs.Memfs.write fs ~ino:!ino ~off ~data:(Bytes.make len c))
              in
              if n <> len then fail "write returned %d, not %d" n len;
              let size = max (Bytes.length !model) (off + len) in
              let m = Bytes.make size '\000' in
              Bytes.blit !model 0 m 0 (Bytes.length !model);
              Bytes.fill m off len c;
              model := m
          | P_truncate size ->
              check_ok "truncate" (Kvfs.Memfs.truncate fs ~ino:!ino ~size);
              let m = Bytes.make size '\000' in
              Bytes.blit !model 0 m 0 (min size (Bytes.length !model));
              model := m
          | P_read (off, len) ->
              let got = check_ok "read" (Kvfs.Memfs.read fs ~ino:!ino ~off ~len) in
              let n = max 0 (min len (Bytes.length !model - off)) in
              let want = if n = 0 then Bytes.empty else Bytes.sub !model off n in
              if not (Bytes.equal got want) then
                fail "%s: read %d bytes, model has %d (or different bytes)"
                  (pp_page_op op) (Bytes.length got) n
          | P_recreate ->
              check_ok "unlink" (Kvfs.Memfs.unlink fs ~dir:root ~name:"f");
              ino := create ();
              model := Bytes.empty);
          let st = check_ok "stat" (Kvfs.Memfs.getattr fs ~ino:!ino) in
          if st.Kvfs.Vtypes.st_size <> Bytes.length !model then
            fail "%s: size %d, model %d" (pp_page_op op) st.Kvfs.Vtypes.st_size
              (Bytes.length !model);
          match Kvfs.Memfs.fsck fs with
          | [] -> ()
          | errs -> fail "%s: fsck: %s" (pp_page_op op) (String.concat "; " errs))
        ops;
      true)

(* Shared same-filled blocks against a flat bytes model: two files on
   one memfs, whole-block writes of one byte value (shared), the same
   with one odd byte anywhere in a block (never shared), partial and
   straddling writes of one byte or of mixed bytes (a shared block is
   copied first), a different byte over a whole block, truncates that
   shrink into or grow past a block, and reads.  After every step both
   files must read back as their models and fsck must be clean (it
   checks every shared block holds only its byte); at the end a fresh
   whole-block write of each byte value must still read back as that
   byte alone, and a second memfs must hold its own shared blocks. *)
type share_op =
  | S_fill of int * int * int * char  (* file, first block, blocks, byte *)
  | S_odd of int * int * int * char   (* file, block, odd byte's position, byte *)
  | S_write of int * int * int * char option  (* file, offset, length, byte or mixed *)
  | S_truncate of int * int
  | S_read of int * int * int

let pp_share_op = function
  | S_fill (f, b, n, c) -> Printf.sprintf "fill(%d,%d,%d,%C)" f b n c
  | S_odd (f, b, pos, c) -> Printf.sprintf "odd(%d,%d,%d,%C)" f b pos c
  | S_write (f, off, len, Some c) -> Printf.sprintf "write(%d,%d,%d,%C)" f off len c
  | S_write (f, off, len, None) -> Printf.sprintf "write(%d,%d,%d,mixed)" f off len
  | S_truncate (f, n) -> Printf.sprintf "truncate(%d,%d)" f n
  | S_read (f, off, len) -> Printf.sprintf "read(%d,%d,%d)" f off len

let qcheck_shared_blocks =
  let bs = 4096 in
  let byte = QCheck.Gen.oneofl [ '\000'; 'a'; 'b' ] and file = QCheck.Gen.int_bound 1 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map (fun (f, (b, n), c) -> S_fill (f, b, n, c))
              (triple file (pair (int_bound 4) (int_range 1 3)) byte) );
          ( 2,
            map (fun (f, (b, pos), c) -> S_odd (f, b, pos, c))
              (triple file
                 (pair (int_bound 4)
                    (oneof [ int_bound 7; map (( + ) (bs - 8)) (int_bound 7); int_bound (bs - 1) ]))
                 byte) );
          ( 4,
            map (fun (f, (off, len), c) -> S_write (f, off, len, c))
              (triple file (pair (int_bound (5 * bs)) (int_bound (2 * bs))) (opt byte)) );
          (2, map2 (fun f n -> S_truncate (f, n)) file (int_bound (6 * bs)));
          ( 2,
            map2 (fun f (off, len) -> S_read (f, off, len)) file
              (pair (int_bound (6 * bs)) (int_bound (3 * bs))) );
        ])
  in
  QCheck.Test.make ~name:"shared blocks = bytes model, fsck clean" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_share_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let kernel = mk_kernel () in
      let fs = Kvfs.Memfs.create kernel and other = Kvfs.Memfs.create kernel in
      let root = Kvfs.Memfs.root_ino in
      let create fs name =
        check_ok "create" (Kvfs.Memfs.create_node fs ~dir:root ~name Kvfs.Vtypes.Regular)
      in
      let inos = [| create fs "f0"; create fs "f1" |] in
      let models = [| Bytes.empty; Bytes.empty |] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let write f off data =
        let len = Bytes.length data in
        let n = check_ok "write" (Kvfs.Memfs.write fs ~ino:inos.(f) ~off ~data) in
        if n <> len then fail "write returned %d, not %d" n len;
        let m = Bytes.make (max (Bytes.length models.(f)) (off + len)) '\000' in
        Bytes.blit models.(f) 0 m 0 (Bytes.length models.(f));
        Bytes.blit data 0 m off len;
        models.(f) <- m
      in
      List.iter
        (fun op ->
          (match op with
          | S_fill (f, b, n, c) -> write f (b * bs) (Bytes.make (n * bs) c)
          | S_odd (f, b, pos, c) ->
              let data = Bytes.make bs c in
              Bytes.set data pos (if c = 'a' then 'b' else 'a');
              write f (b * bs) data
          | S_write (f, off, len, Some c) -> write f off (Bytes.make len c)
          | S_write (f, off, len, None) ->
              write f off (Bytes.init len (fun i -> Char.chr (97 + ((off + i) mod 3))))
          | S_truncate (f, size) ->
              check_ok "truncate" (Kvfs.Memfs.truncate fs ~ino:inos.(f) ~size);
              let m = Bytes.make size '\000' in
              Bytes.blit models.(f) 0 m 0 (min size (Bytes.length models.(f)));
              models.(f) <- m
          | S_read (f, off, len) ->
              let got = check_ok "read" (Kvfs.Memfs.read fs ~ino:inos.(f) ~off ~len) in
              let n = max 0 (min len (Bytes.length models.(f) - off)) in
              if not (Bytes.equal got (if n = 0 then Bytes.empty else Bytes.sub models.(f) off n))
              then fail "%s: read differs from the model" (pp_share_op op));
          Array.iteri
            (fun f ino ->
              let got = check_ok "read" (Kvfs.Memfs.read fs ~ino ~off:0 ~len:max_int) in
              if not (Bytes.equal got models.(f)) then
                fail "%s: file %d differs from its model" (pp_share_op op) f)
            inos;
          match Kvfs.Memfs.fsck fs with
          | [] -> ()
          | errs -> fail "%s: fsck: %s" (pp_share_op op) (String.concat "; " errs))
        ops;
      List.iter
        (fun c ->
          let ino = create fs "probe" in
          let block = Bytes.make bs c in
          ignore (check_ok "probe write" (Kvfs.Memfs.write fs ~ino ~off:0 ~data:block));
          if not (Bytes.equal (check_ok "probe read" (Kvfs.Memfs.read fs ~ino ~off:0 ~len:bs)) block)
          then fail "the shared block of %C holds other bytes" c;
          check_ok "unlink" (Kvfs.Memfs.unlink fs ~dir:root ~name:"probe"))
        [ '\000'; 'a'; 'b' ];
      let shared = Kvfs.Memfs.shared_blocks fs in
      if shared <> 3 then fail "%d shared blocks after every byte's probe" shared;
      if Kvfs.Memfs.shared_blocks other <> 0 then fail "an untouched memfs holds shared blocks";
      let ino = create other "g" in
      ignore (check_ok "write" (Kvfs.Memfs.write other ~ino ~off:0 ~data:(Bytes.make bs 'z')));
      if Kvfs.Memfs.shared_blocks other <> 1 || Kvfs.Memfs.shared_blocks fs <> 3 then
        fail "shared blocks leak between filesystems";
      (match Kvfs.Memfs.fsck fs @ Kvfs.Memfs.fsck other with
      | [] -> ()
      | errs -> fail "final fsck: %s" (String.concat "; " errs));
      true)

let test_memfs_unlink_rename () =
  let fs = Kvfs.Memfs.create (mk_kernel ()) in
  let root = Kvfs.Memfs.root_ino in
  let sub = check_ok "mkdir" (Kvfs.Memfs.create_node fs ~dir:root ~name:"d" Kvfs.Vtypes.Directory) in
  ignore (check_ok "create" (Kvfs.Memfs.create_node fs ~dir:sub ~name:"f" Kvfs.Vtypes.Regular));
  check_err "rmdir nonempty" Kvfs.Vtypes.ENOTEMPTY
    (Kvfs.Memfs.unlink fs ~dir:root ~name:"d");
  ignore (check_ok "rename" (Kvfs.Memfs.rename fs ~src_dir:sub ~src:"f" ~dst_dir:root ~dst:"g"));
  check_ok "rmdir now empty" (Kvfs.Memfs.unlink fs ~dir:root ~name:"d");
  ignore (check_ok "unlink g" (Kvfs.Memfs.unlink fs ~dir:root ~name:"g"));
  let entries = check_ok "readdir" (Kvfs.Memfs.readdir fs ~dir:root) in
  Alcotest.(check int) "root empty" 0 (List.length entries)

let test_memfs_readdir_order () =
  let fs = Kvfs.Memfs.create (mk_kernel ()) in
  let root = Kvfs.Memfs.root_ino in
  List.iter
    (fun n -> ignore (check_ok "create" (Kvfs.Memfs.create_node fs ~dir:root ~name:n Kvfs.Vtypes.Regular)))
    [ "c"; "a"; "b" ];
  let names = List.map (fun d -> d.Kvfs.Vtypes.d_name)
      (check_ok "readdir" (Kvfs.Memfs.readdir fs ~dir:root)) in
  Alcotest.(check (list string)) "insertion order" [ "c"; "a"; "b" ] names

(* --- block device --------------------------------------------------------- *)

let test_block_dev_cache () =
  let kernel = Ksim.Kernel.create () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  let dev = Kvfs.Block_dev.create ~cache_blocks:8 kernel in
  let t0 = Ksim.Kernel.now kernel in
  Kvfs.Block_dev.read_block dev 5;
  let cold = Ksim.Kernel.now kernel - t0 in
  Alcotest.(check bool) "cold read costs" true (cold > 0);
  let t1 = Ksim.Kernel.now kernel in
  Kvfs.Block_dev.read_block dev 5;
  Alcotest.(check int) "hot read free" 0 (Ksim.Kernel.now kernel - t1);
  let s = Kvfs.Block_dev.stats dev in
  Alcotest.(check int) "one miss" 1 s.Kvfs.Block_dev.misses;
  Alcotest.(check int) "one hit" 1 s.Kvfs.Block_dev.hits

(* A PostMark run frees thousands of blocks; their clock-hand entries
   must not pile up behind the ~100 that stay resident (a lazily pruned
   queue once kept 6,579 entries for 95 resident blocks). *)
let test_block_dev_freed_blocks () =
  let kernel = Ksim.Kernel.create () in
  let fs = Kvfs.Memfs.create kernel in
  let sys = Ksyscall.Systable.create ~root_fs:(Kvfs.Memfs.ops fs) kernel in
  let config = { Workloads.Postmark.default_config with transactions = 5_000 } in
  ignore (Workloads.Postmark.run ~config sys);
  let dev = Kvfs.Memfs.dev fs in
  let resident = Kvfs.Block_dev.resident dev in
  Alcotest.(check bool) "blocks stay resident" true (resident > 0);
  Alcotest.(check int) "one ring entry per resident block" resident
    (Kvfs.Block_dev.ring_length dev)

(* The clock ring evicts exactly as the lazily pruned arrival queue it
   replaced (modelled here), as long as a freed block number is never
   used again: random reads, writes and forgets over a 6-block cache,
   each forgotten number retired for good. *)
let qcheck_block_dev_clock_model =
  QCheck.Test.make ~name:"clock ring = lazily pruned queue" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 0 3) (int_range 0 9)))
    (fun steps ->
      let dev = Kvfs.Block_dev.create ~cache_blocks:6 (mk_kernel ()) in
      let cache = Hashtbl.create 16 and queue = Queue.create () in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let rec evict () =
        match Queue.take_opt queue with
        | None -> ()
        | Some b -> (
            match Hashtbl.find_opt cache b with
            | None -> evict ()
            | Some bit when !bit ->
                bit := false;
                Queue.push b queue;
                evict ()
            | Some _ ->
                Hashtbl.remove cache b;
                incr evictions)
      in
      let generation = Array.make 10 0 in
      List.iter
        (fun (op, k) ->
          let blk = (k * 1000) + generation.(k) in
          if op = 0 then begin
            Kvfs.Block_dev.forget dev blk;
            Hashtbl.remove cache blk;
            generation.(k) <- generation.(k) + 1
          end
          else begin
            let read = op > 1 in
            if read then Kvfs.Block_dev.read_block dev blk
            else Kvfs.Block_dev.write_block dev blk;
            match Hashtbl.find_opt cache blk with
            | Some bit ->
                bit := true;
                if read then incr hits
            | None ->
                if read then incr misses;
                Hashtbl.replace cache blk (ref false);
                Queue.push blk queue;
                if Hashtbl.length cache > 6 then evict ()
          end)
        steps;
      let s = Kvfs.Block_dev.stats dev in
      s.Kvfs.Block_dev.hits = !hits
      && s.Kvfs.Block_dev.misses = !misses
      && s.Kvfs.Block_dev.evictions = !evictions
      && Kvfs.Block_dev.resident dev = Hashtbl.length cache
      && Kvfs.Block_dev.ring_length dev = Hashtbl.length cache)

(* --- dcache ---------------------------------------------------------------- *)

let test_dcache () =
  (* dcache locking requires the instrument hook not to explode *)
  let d = Kvfs.Dcache.create () in
  Alcotest.(check (option int)) "miss" None (Kvfs.Dcache.lookup d ~dir:1 ~name:"x");
  Kvfs.Dcache.insert d ~dir:1 ~name:"x" ~ino:42;
  Alcotest.(check (option int)) "hit" (Some 42) (Kvfs.Dcache.lookup d ~dir:1 ~name:"x");
  Kvfs.Dcache.invalidate d ~dir:1 ~name:"x";
  Alcotest.(check (option int)) "invalidated" None (Kvfs.Dcache.lookup d ~dir:1 ~name:"x");
  let s = Kvfs.Dcache.stats d in
  Alcotest.(check int) "hits" 1 s.Kvfs.Dcache.hits;
  Alcotest.(check int) "misses" 2 s.Kvfs.Dcache.misses;
  Alcotest.(check bool) "lock was taken" true (s.Kvfs.Dcache.lock_acquisitions >= 4)

let test_block_dev_second_chance () =
  (* hot set + one-pass scan: second-chance keeps the referenced hot
     blocks; FIFO evicts whatever is oldest, hot or not *)
  let run policy =
    let kernel = mk_kernel () in
    let dev = Kvfs.Block_dev.create ~cache_blocks:8 ~policy kernel in
    for b = 0 to 3 do Kvfs.Block_dev.read_block dev b done;
    for round = 1 to 4 do
      for b = 0 to 3 do Kvfs.Block_dev.read_block dev b done;
      (* scan blocks the cache has no room to keep *)
      for s = 0 to 3 do Kvfs.Block_dev.read_block dev (100 + (4 * round) + s) done
    done;
    Kvfs.Block_dev.stats dev
  in
  let fifo = run Kvfs.Block_dev.Fifo in
  let sc = run Kvfs.Block_dev.Second_chance in
  Alcotest.(check bool) "second chance hits more" true
    (sc.Kvfs.Block_dev.hits > fifo.Kvfs.Block_dev.hits);
  Alcotest.(check bool) "second chance evicts no more" true
    (sc.Kvfs.Block_dev.evictions <= fifo.Kvfs.Block_dev.evictions);
  Alcotest.(check bool) "evictions happened" true (fifo.Kvfs.Block_dev.evictions > 0)

let test_dcache_sharded () =
  let d = Kvfs.Dcache.create ~shards:8 () in
  Alcotest.(check int) "shards" 8 (Kvfs.Dcache.nshards d);
  (* enough entries to land in every shard *)
  for i = 0 to 199 do
    Kvfs.Dcache.insert d ~dir:(i mod 7) ~name:(Printf.sprintf "f%d" i) ~ino:i
  done;
  for i = 0 to 199 do
    Alcotest.(check (option int)) "sharded hit" (Some i)
      (Kvfs.Dcache.lookup d ~dir:(i mod 7) ~name:(Printf.sprintf "f%d" i))
  done;
  Kvfs.Dcache.invalidate d ~dir:3 ~name:"f3";
  Alcotest.(check (option int)) "invalidated" None
    (Kvfs.Dcache.lookup d ~dir:3 ~name:"f3");
  Alcotest.(check (option int)) "others survive" (Some 10)
    (Kvfs.Dcache.lookup d ~dir:3 ~name:"f10");
  Kvfs.Dcache.clear d;
  Alcotest.(check (option int)) "cleared" None
    (Kvfs.Dcache.lookup d ~dir:0 ~name:"f0")

let test_dcache_sharded_lockless_reads () =
  let d = Kvfs.Dcache.create ~shards:8 () in
  Kvfs.Dcache.insert d ~dir:1 ~name:"x" ~ino:42;
  let writes = Kvfs.Dcache.acquisitions d in
  Alcotest.(check bool) "insert took a bucket lock" true (writes > 0);
  for _ = 1 to 50 do
    ignore (Kvfs.Dcache.lookup d ~dir:1 ~name:"x")
  done;
  (* seqcount fast path: sharded-mode lookups take no lock at all *)
  Alcotest.(check int) "reads are lockless" writes (Kvfs.Dcache.acquisitions d);
  (* the global-lock compat mode does lock its reads *)
  let g = Kvfs.Dcache.create ~shards:1 () in
  Kvfs.Dcache.insert g ~dir:1 ~name:"x" ~ino:42;
  let w = Kvfs.Dcache.acquisitions g in
  ignore (Kvfs.Dcache.lookup g ~dir:1 ~name:"x");
  Alcotest.(check int) "global mode locks reads" (w + 1) (Kvfs.Dcache.acquisitions g)

(* --- vfs -------------------------------------------------------------------- *)

let mk_vfs () =
  let kernel = mk_kernel () in
  (kernel, Kvfs.Vfs.create kernel)

let test_vfs_paths () =
  let _, vfs = mk_vfs () in
  ignore (check_ok "mkdir a" (Kvfs.Vfs.mkdir vfs "/a"));
  ignore (check_ok "mkdir a/b" (Kvfs.Vfs.mkdir vfs "/a/b"));
  let h = check_ok "create deep" (Kvfs.Vfs.open_file vfs "/a/b/f.txt" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "data")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let st = check_ok "stat" (Kvfs.Vfs.stat vfs "/a/b/f.txt") in
  Alcotest.(check int) "size" 4 st.Kvfs.Vtypes.st_size;
  check_err "missing path" Kvfs.Vtypes.ENOENT (Kvfs.Vfs.stat vfs "/a/zz/f");
  (* trailing and duplicate slashes *)
  ignore (check_ok "odd path" (Kvfs.Vfs.stat vfs "//a//b//f.txt"))

let test_vfs_fd_semantics () =
  let _, vfs = mk_vfs () in
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "0123456789")));
  (* lseek *)
  let pos = check_ok "seek set" (Kvfs.Vfs.lseek vfs h ~off:2 ~whence:Kvfs.Vfs.SEEK_SET) in
  Alcotest.(check int) "pos" 2 pos;
  Alcotest.(check string) "read from 2" "234"
    (Bytes.to_string (check_ok "read" (Kvfs.Vfs.read vfs h 3)));
  let pos = check_ok "seek cur" (Kvfs.Vfs.lseek vfs h ~off:(-1) ~whence:Kvfs.Vfs.SEEK_CUR) in
  Alcotest.(check int) "cur" 4 pos;
  let pos = check_ok "seek end" (Kvfs.Vfs.lseek vfs h ~off:(-2) ~whence:Kvfs.Vfs.SEEK_END) in
  Alcotest.(check int) "end" 8 pos;
  check_err "negative seek" Kvfs.Vtypes.EINVAL
    (Kvfs.Vfs.lseek vfs h ~off:(-100) ~whence:Kvfs.Vfs.SEEK_SET);
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  check_err "read after close" Kvfs.Vtypes.EBADF (Kvfs.Vfs.read vfs h 1);
  check_err "double close" Kvfs.Vtypes.EBADF (Kvfs.Vfs.close vfs h)

let test_vfs_open_flags () =
  let _, vfs = mk_vfs () in
  check_err "no O_CREAT" Kvfs.Vtypes.ENOENT
    (Kvfs.Vfs.open_file vfs "/nope" [ Kvfs.Vfs.O_RDONLY ]);
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "abcdef")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  (* O_TRUNC empties *)
  let h = check_ok "trunc" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_TRUNC ]) in
  let st = check_ok "fstat" (Kvfs.Vfs.fstat vfs h) in
  Alcotest.(check int) "truncated" 0 st.Kvfs.Vtypes.st_size;
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  (* O_APPEND positions at end *)
  let h = check_ok "w" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "xy")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let h = check_ok "a" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_APPEND ]) in
  ignore (check_ok "append" (Kvfs.Vfs.write vfs h (Bytes.of_string "z")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let st = check_ok "stat" (Kvfs.Vfs.stat vfs "/f") in
  Alcotest.(check int) "appended" 3 st.Kvfs.Vtypes.st_size;
  (* opening a directory for writing fails *)
  ignore (check_ok "mkdir" (Kvfs.Vfs.mkdir vfs "/d"));
  check_err "dir write" Kvfs.Vtypes.EISDIR
    (Kvfs.Vfs.open_file vfs "/d" [ Kvfs.Vfs.O_RDWR ])

let test_vfs_mounts () =
  let kernel, vfs = mk_vfs () in
  ignore (check_ok "mkdir" (Kvfs.Vfs.mkdir vfs "/mnt"));
  let sub = Kvfs.Memfs.ops (Kvfs.Memfs.create kernel) in
  Kvfs.Vfs.mount vfs ~prefix:"/mnt" ~fs:sub;
  let h = check_ok "create on mount" (Kvfs.Vfs.open_file vfs "/mnt/x" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "inner")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  (* the file lives on the mounted fs, not the root fs *)
  let entries = check_ok "readdir" (Kvfs.Vfs.readdir vfs "/mnt") in
  Alcotest.(check (list string)) "on mount" [ "x" ]
    (List.map (fun d -> d.Kvfs.Vtypes.d_name) entries);
  ignore (check_ok "umount" (Kvfs.Vfs.umount vfs ~prefix:"/mnt"));
  let entries = check_ok "readdir root /mnt" (Kvfs.Vfs.readdir vfs "/mnt") in
  Alcotest.(check int) "root mnt empty" 0 (List.length entries)

let test_vfs_dcache_integration () =
  let _, vfs = mk_vfs () in
  ignore (check_ok "mkdir" (Kvfs.Vfs.mkdir vfs "/a"));
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/a/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let d = Kvfs.Vfs.dcache vfs in
  let before = (Kvfs.Dcache.stats d).Kvfs.Dcache.hits in
  ignore (check_ok "stat 1" (Kvfs.Vfs.stat vfs "/a/f"));
  ignore (check_ok "stat 2" (Kvfs.Vfs.stat vfs "/a/f"));
  let after = (Kvfs.Dcache.stats d).Kvfs.Dcache.hits in
  Alcotest.(check bool) "cached lookups" true (after > before);
  (* unlink invalidates *)
  ignore (check_ok "unlink" (Kvfs.Vfs.unlink vfs "/a/f"));
  check_err "gone" Kvfs.Vtypes.ENOENT (Kvfs.Vfs.stat vfs "/a/f")

(* The path walk against a reference that keeps the old list-based
   semantics (split on '/', drop "" and ".", walk the parents of the
   last component): two twin systems, one driven through Vfs and one
   through the reference, must agree on every result, on the number of
   components resolved, and on dcache hits, misses and invalidations. *)
module Ref_walk = struct
  let split_path path =
    String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

  type t = {
    dcache : Kvfs.Dcache.t;
    mounts : (string * Kvfs.Vtypes.ops) list;  (* longest prefix first *)
    mutable components : int;
  }

  let resolve_mount t path =
    let matches (p, _) =
      p = "/"
      || String.length path >= String.length p
         && String.sub path 0 (String.length p) = p
         && (String.length path = String.length p
            || path.[String.length p] = '/')
    in
    match List.find_opt matches t.mounts with
    | None -> Error Kvfs.Vtypes.ENOENT
    | Some (p, fs) ->
        let rel =
          if p = "/" then path
          else String.sub path (String.length p) (String.length path - String.length p)
        in
        Ok (fs, rel)

  let rec go t (fs : Kvfs.Vtypes.ops) ~count dir = function
    | [] -> Ok dir
    | name :: rest -> (
        if count then t.components <- t.components + 1;
        match Kvfs.Dcache.lookup ~pid:1 t.dcache ~dir ~name with
        | Some ino -> go t fs ~count ino rest
        | None -> (
            match fs.Kvfs.Vtypes.lookup ~dir name with
            | Error e -> Error e
            | Ok ino ->
                Kvfs.Dcache.insert ~pid:1 t.dcache ~dir ~name ~ino;
                go t fs ~count ino rest))

  let resolve t path =
    match resolve_mount t path with
    | Error e -> Error e
    | Ok (fs, rel) ->
        Result.map (fun ino -> (fs, ino))
          (go t fs ~count:true fs.Kvfs.Vtypes.root (split_path rel))

  let resolve_parent t path =
    match resolve_mount t path with
    | Error e -> Error e
    | Ok (fs, rel) -> (
        match List.rev (split_path rel) with
        | [] -> Error Kvfs.Vtypes.EINVAL
        | name :: rev_parents ->
            Result.map
              (fun dir -> (fs, dir, name))
              (go t fs ~count:false fs.Kvfs.Vtypes.root (List.rev rev_parents)))

  let stat t path =
    Result.bind (resolve t path) (fun (fs, ino) -> fs.Kvfs.Vtypes.getattr ~ino)

  let mkdir t path =
    Result.bind (resolve_parent t path) (fun (fs, dir, name) ->
        Result.map
          (fun ino ->
            Kvfs.Dcache.insert ~pid:1 t.dcache ~dir ~name ~ino;
            ino)
          (fs.Kvfs.Vtypes.create ~dir ~name Kvfs.Vtypes.Directory))

  (* open_file's inode and its errors, for [O_RDWR] (+ [O_CREAT]) *)
  let open_ino t path ~creating =
    let found =
      match resolve t path with
      | Error Kvfs.Vtypes.ENOENT when creating ->
          Result.bind (resolve_parent t path) (fun (fs, dir, name) ->
              Result.map
                (fun ino ->
                  Kvfs.Dcache.insert ~pid:1 t.dcache ~dir ~name ~ino;
                  (fs, ino))
                (fs.Kvfs.Vtypes.create ~dir ~name Kvfs.Vtypes.Regular))
      | r -> r
    in
    Result.bind found (fun (fs, ino) ->
        Result.bind (fs.Kvfs.Vtypes.getattr ~ino) (fun st ->
            if st.Kvfs.Vtypes.st_kind = Kvfs.Vtypes.Directory then
              Error Kvfs.Vtypes.EISDIR
            else Ok ino))

  let unlink t path =
    Result.bind (resolve_parent t path) (fun (fs, dir, name) ->
        Result.map
          (fun () -> Kvfs.Dcache.invalidate ~pid:1 t.dcache ~dir ~name)
          (fs.Kvfs.Vtypes.unlink ~dir ~name))
end

type walk_op = W_resolve | W_parent | W_stat | W_mkdir | W_open | W_creat | W_unlink

let walk_op_name = function
  | W_resolve -> "resolve"
  | W_parent -> "resolve_parent"
  | W_stat -> "stat"
  | W_mkdir -> "mkdir"
  | W_open -> "open"
  | W_creat -> "open O_CREAT"
  | W_unlink -> "unlink"

(* one system: a root memfs holding /mnt and /a, a second memfs mounted
   at /mnt, told apart by name *)
let walk_twin () =
  let kernel = mk_kernel () in
  let root_fs = Kvfs.Memfs.ops (Kvfs.Memfs.create kernel) in
  let mnt_fs = { (Kvfs.Memfs.ops (Kvfs.Memfs.create kernel)) with Kvfs.Vtypes.fs_name = "memfs2" } in
  let vfs = Kvfs.Vfs.create ~root_fs kernel in
  ignore (check_ok "mkdir /mnt" (Kvfs.Vfs.mkdir vfs "/mnt"));
  ignore (check_ok "mkdir /a" (Kvfs.Vfs.mkdir vfs "/a"));
  Kvfs.Vfs.mount vfs ~prefix:"/mnt" ~fs:mnt_fs;
  ignore (check_ok "mkdir /mnt/a" (Kvfs.Vfs.mkdir vfs "/mnt/a"));
  (vfs, [ ("/mnt", mnt_fs); ("/", root_fs) ])

let gen_walk_path =
  QCheck.Gen.(
    let comp = oneofl [ "a"; "b"; "f"; "mnt"; "."; ""; ".."; "a." ] in
    map3
      (fun lead comps trail ->
        lead ^ String.concat "/" comps ^ trail)
      (oneofl [ "/"; "//"; ""; "/mnt/"; "/mnt" ])
      (list_size (int_bound 4) comp)
      (oneofl [ ""; "/"; "//"; "/." ]))

let qcheck_path_walk =
  QCheck.Test.make ~name:"index path walk = split-list reference" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map (fun (op, p) -> Printf.sprintf "%s %S" (walk_op_name op) p) ops))
       QCheck.Gen.(
         list_size (int_range 1 30)
           (pair
              (oneofl [ W_resolve; W_parent; W_stat; W_mkdir; W_open; W_creat; W_unlink ])
              gen_walk_path)))
    (fun ops ->
      let vfs, _ = walk_twin () in
      let ref_vfs, mounts = walk_twin () in
      let r = { Ref_walk.dcache = Kvfs.Vfs.dcache ref_vfs; mounts; components = 0 } in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let name fs = fs.Kvfs.Vtypes.fs_name in
      let err = function Ok _ -> "ok" | Error e -> Kvfs.Vtypes.errno_to_string e in
      let same what a b = if a <> b then fail "%s: %s vs reference %s" what (err a) (err b) in
      let c0 = Kvfs.Vfs.path_components_resolved vfs in
      List.iter
        (fun (op, path) ->
          let what = Printf.sprintf "%s %S" (walk_op_name op) path in
          (match op with
          | W_resolve ->
              let f = Result.map (fun (fs, ino) -> (name fs, ino)) in
              same what (f (Kvfs.Vfs.resolve vfs path)) (f (Ref_walk.resolve r path))
          | W_parent ->
              let f = Result.map (fun (fs, dir, n) -> (name fs, dir, n)) in
              same what (f (Kvfs.Vfs.resolve_parent vfs path))
                (f (Ref_walk.resolve_parent r path))
          | W_stat ->
              let f = Result.map (fun st -> (st.Kvfs.Vtypes.st_ino, st.Kvfs.Vtypes.st_kind)) in
              same what (f (Kvfs.Vfs.stat vfs path)) (f (Ref_walk.stat r path))
          | W_mkdir -> same what (Kvfs.Vfs.mkdir vfs path) (Ref_walk.mkdir r path)
          | W_open | W_creat ->
              let creating = op = W_creat in
              let flags = Kvfs.Vfs.O_RDWR :: (if creating then [ Kvfs.Vfs.O_CREAT ] else []) in
              let got =
                Result.bind (Kvfs.Vfs.open_file vfs path flags) (fun h ->
                    let st = check_ok "fstat" (Kvfs.Vfs.fstat vfs h) in
                    ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
                    Ok st.Kvfs.Vtypes.st_ino)
              in
              same what got (Ref_walk.open_ino r path ~creating)
          | W_unlink -> same what (Kvfs.Vfs.unlink vfs path) (Ref_walk.unlink r path));
          let resolved = Kvfs.Vfs.path_components_resolved vfs - c0 in
          if resolved <> r.Ref_walk.components then
            fail "%s: %d components resolved, reference %d" what resolved
              r.Ref_walk.components;
          let d = Kvfs.Dcache.stats (Kvfs.Vfs.dcache vfs)
          and rd = Kvfs.Dcache.stats r.Ref_walk.dcache in
          if (d.hits, d.misses, d.invalidations) <> (rd.hits, rd.misses, rd.invalidations)
          then
            fail "%s: dcache %d/%d/%d, reference %d/%d/%d" what d.hits d.misses
              d.invalidations rd.hits rd.misses rd.invalidations)
        ops;
      true)

(* Host words per (open an existing two-component path, fstat, close)
   through the syscall layer at four CPUs, so the contention model's
   lock path runs too.  The list-based walk, boxed lock and event
   arguments and per-call closures cost 271 words here; without them
   about 116. *)
let test_open_fstat_close_alloc () =
  let t = Core.boot_with { Core.Config.default with ncpus = Some 4 } in
  let sys = Core.sys t in
  let module U = Ksyscall.Usyscall in
  ignore (check_ok "mkdir" (U.sys_mkdir sys ~path:"/d"));
  let fd = check_ok "create" (U.sys_open sys ~path:"/d/f" ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (U.sys_write sys ~fd ~data:(Bytes.make 3000 'x')));
  ignore (check_ok "close" (U.sys_close sys ~fd));
  let iters = 1000 in
  let before = Host_words.now () in
  for _ = 1 to iters do
    let fd = check_ok "open" (U.sys_open sys ~path:"/d/f" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
    ignore (check_ok "fstat" (U.sys_fstat sys ~fd));
    ignore (check_ok "close" (U.sys_close sys ~fd))
  done;
  let per = (Host_words.now () -. before) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "under 150 words per open+fstat+close (got %.0f)" per)
    true (per < 150.)

(* --- read_into ---------------------------------------------------------------- *)

(* [read_into] against [read] on twin systems, for each filesystem that
   implements it: memfs natively, journalfs by delegation, wrapfs by
   staging (each behind the VFS's Fs_guard).  Both twins take the same
   writes (holes included) and truncates; then each read is a [read] on
   one and a [read_into] on the other.  They must agree on the result,
   the bytes must land at [pos] and nowhere else, and the clock and
   every kstat must stay identical. *)
type into_op =
  | I_write of int * int * char  (* offset, length, fill *)
  | I_truncate of int
  | I_read of int * int * int    (* offset, length, position in [into] *)

let pp_into_op = function
  | I_write (off, len, c) -> Printf.sprintf "write(%d,%d,%C)" off len c
  | I_truncate n -> Printf.sprintf "truncate(%d)" n
  | I_read (off, len, pos) -> Printf.sprintf "read(%d,%d)@%d" off len pos

let into_size = 3 * 4096

let into_fs_kinds =
  [
    ("memfs", fun k -> Kvfs.Memfs.ops (Kvfs.Memfs.create k));
    ("journalfs", fun k -> Kvfs.Journalfs.ops (Kvfs.Journalfs.create k));
    ( "wrapfs(kmalloc)",
      fun k ->
        Kvfs.Wrapfs.ops
          (Kvfs.Wrapfs.create ~allocator:(Kvfs.Wrapfs.kmalloc_allocator k)
             (Kvfs.Memfs.ops (Kvfs.Memfs.create k))) );
  ]

let qcheck_read_into =
  let bs = 4096 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun off len c -> I_write (off, len, c))
              (int_bound (3 * bs)) (int_bound bs) (char_range 'a' 'z') );
          (1, map (fun n -> I_truncate n) (int_bound (3 * bs)));
          ( 5,
            map3
              (fun off len pos -> I_read (off, len, pos))
              (frequency [ (1, return (-1)); (8, int_bound (4 * bs)) ])
              (frequency [ (1, return (-1)); (8, int_bound (2 * bs)) ])
              (int_bound bs) );
        ])
  in
  QCheck.Test.make ~name:"read_into = read on memfs, journalfs, wrapfs" ~count:100
    (QCheck.make
       ~print:(fun (k, ops) ->
         fst (List.nth into_fs_kinds k) ^ ": "
         ^ String.concat " " (List.map pp_into_op ops))
       QCheck.Gen.(
         pair (int_bound (List.length into_fs_kinds - 1))
           (list_size (int_range 1 30) gen_op)))
    (fun (k, ops) ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let twin () =
        let kernel = Ksim.Kernel.create () in
        Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
        let fs = Kvfs.Fs_guard.ops (snd (List.nth into_fs_kinds k) kernel) in
        let ino =
          check_ok "create"
            (fs.Kvfs.Vtypes.create ~dir:fs.Kvfs.Vtypes.root ~name:"f"
               Kvfs.Vtypes.Regular)
        in
        (kernel, fs, ino)
      in
      let ka, a, ino = twin () and kb, b, _ = twin () in
      let into = Bytes.init into_size (fun i -> Char.chr (i land 0xff)) in
      let err = function
        | Ok n -> string_of_int n
        | Error e -> Kvfs.Vtypes.errno_to_string e
      in
      List.iter
        (fun op ->
          (match op with
          | I_write (off, len, c) ->
              let data = Bytes.make len c in
              ignore (check_ok "write" (a.Kvfs.Vtypes.write ~ino ~off ~data));
              ignore (check_ok "write" (b.Kvfs.Vtypes.write ~ino ~off ~data))
          | I_truncate size ->
              check_ok "truncate" (a.Kvfs.Vtypes.truncate ~ino ~size);
              check_ok "truncate" (b.Kvfs.Vtypes.truncate ~ino ~size)
          | I_read (off, len, pos) -> (
              let before = Bytes.copy into in
              let got = a.Kvfs.Vtypes.read ~ino ~off ~len in
              let r = b.Kvfs.Vtypes.read_into ~ino ~off ~len ~into ~pos in
              match (got, r) with
              | Ok data, Ok n ->
                  if n <> Bytes.length data then
                    fail "%s: read_into gave %d, read %d" (pp_into_op op) n
                      (Bytes.length data);
                  if not (Bytes.equal (Bytes.sub into pos n) data) then
                    fail "%s: different bytes" (pp_into_op op);
                  Bytes.blit before pos into pos n;
                  if not (Bytes.equal into before) then
                    fail "%s: bytes outside [pos, pos+n) changed" (pp_into_op op)
              | Error e, Error e' when e = e' ->
                  if not (Bytes.equal into before) then
                    fail "%s: failed read_into changed [into]" (pp_into_op op)
              | _ ->
                  fail "%s: read %s, read_into %s" (pp_into_op op)
                    (err (Result.map Bytes.length got)) (err r)));
          if Ksim.Kernel.now ka <> Ksim.Kernel.now kb then
            fail "%s: clock %d vs %d" (pp_into_op op) (Ksim.Kernel.now ka)
              (Ksim.Kernel.now kb);
          let sa = Kstats.to_json (Ksim.Kernel.stats ka)
          and sb = Kstats.to_json (Ksim.Kernel.stats kb) in
          if sa <> sb then fail "%s: kstats differ" (pp_into_op op))
        ops;
      true)

(* --- wrapfs ------------------------------------------------------------------ *)

let mk_wrapfs ?(kernel = Ksim.Kernel.create ~cost:Ksim.Cost_model.zero ()) () =
  let lower = Kvfs.Memfs.ops (Kvfs.Memfs.create kernel) in
  let w = Kvfs.Wrapfs.create ~allocator:(Kvfs.Wrapfs.kmalloc_allocator kernel) lower in
  (kernel, w, Kvfs.Vfs.create ~root_fs:(Kvfs.Wrapfs.ops w) kernel)

let test_wrapfs_passthrough () =
  let _, w, vfs = mk_wrapfs () in
  ignore (check_ok "mkdir" (Kvfs.Vfs.mkdir vfs "/d"));
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/d/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "through the layers")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let h = check_ok "open" (Kvfs.Vfs.open_file vfs "/d/f" [ Kvfs.Vfs.O_RDONLY ]) in
  Alcotest.(check string) "data intact" "through the layers"
    (Bytes.to_string (check_ok "read" (Kvfs.Vfs.read vfs h 100)));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let s = Kvfs.Wrapfs.stats w in
  Alcotest.(check bool) "allocated private data" true (s.Kvfs.Wrapfs.live_private > 0);
  Alcotest.(check bool) "copied names" true (s.Kvfs.Wrapfs.name_copies > 0);
  Alcotest.(check bool) "staged pages" true (s.Kvfs.Wrapfs.page_copies > 0)

let test_wrapfs_private_freed_on_unlink () =
  let _, w, vfs = mk_wrapfs () in
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let before = (Kvfs.Wrapfs.stats w).Kvfs.Wrapfs.live_private in
  ignore (check_ok "unlink" (Kvfs.Vfs.unlink vfs "/f"));
  let after = (Kvfs.Wrapfs.stats w).Kvfs.Wrapfs.live_private in
  Alcotest.(check bool) "private data dropped" true (after < before)

(* --- journalfs ---------------------------------------------------------------- *)

let test_journalfs_ops () =
  let kernel = mk_kernel () in
  let j = Kvfs.Journalfs.create kernel in
  let vfs = Kvfs.Vfs.create ~root_fs:(Kvfs.Journalfs.ops j) kernel in
  let h = check_ok "create" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string "journaled")));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  let h = check_ok "open" (Kvfs.Vfs.open_file vfs "/f" [ Kvfs.Vfs.O_RDONLY ]) in
  Alcotest.(check string) "data" "journaled"
    (Bytes.to_string (check_ok "read" (Kvfs.Vfs.read vfs h 100)));
  ignore (check_ok "close" (Kvfs.Vfs.close vfs h));
  ignore (check_ok "unlink" (Kvfs.Vfs.unlink vfs "/f"));
  let s = Kvfs.Journalfs.stats j in
  Alcotest.(check bool) "journal records written" true (s.Kvfs.Journalfs.journal_records >= 2);
  Alcotest.(check bool) "mini-C hot paths ran" true (s.Kvfs.Journalfs.hot_calls > 0);
  Alcotest.(check bool) "interp did work" true (s.Kvfs.Journalfs.interp_steps > 0)

let test_journalfs_kgcc_equivalence () =
  (* the same workload through GCC- and KGCC-compiled journalfs must
     produce identical filesystem contents *)
  let go transform =
    let kernel = mk_kernel () in
    let j =
      match transform with
      | None -> Kvfs.Journalfs.create kernel
      | Some tr ->
          let rt =
            Kgcc.Kgcc_runtime.create ~clock:(Ksim.Kernel.clock kernel)
              ~cost:Ksim.Cost_model.zero ()
          in
          Kvfs.Journalfs.create ~transform:tr
            ~attach:(Kgcc.Kgcc_runtime.attach rt) kernel
    in
    let vfs = Kvfs.Vfs.create ~root_fs:(Kvfs.Journalfs.ops j) kernel in
    for i = 0 to 9 do
      let p = Printf.sprintf "/f%d" i in
      let h = check_ok "create" (Kvfs.Vfs.open_file vfs p [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
      ignore (check_ok "write" (Kvfs.Vfs.write vfs h (Bytes.of_string (string_of_int (i * i)))));
      ignore (check_ok "close" (Kvfs.Vfs.close vfs h))
    done;
    ignore (check_ok "unlink" (Kvfs.Vfs.unlink vfs "/f3"));
    List.map (fun d -> d.Kvfs.Vtypes.d_name) (check_ok "readdir" (Kvfs.Vfs.readdir vfs "/"))
  in
  Alcotest.(check (list string)) "same directory contents"
    (go None)
    (go (Some Kgcc.Compile.transform))

let () =
  Alcotest.run "kvfs"
    [
      ( "memfs",
        [
          Alcotest.test_case "create/lookup" `Quick test_memfs_create_lookup;
          Alcotest.test_case "read/write/truncate" `Quick test_memfs_rw;
          Alcotest.test_case "unlink/rename" `Quick test_memfs_unlink_rename;
          Alcotest.test_case "readdir order" `Quick test_memfs_readdir_order;
          QCheck_alcotest.to_alcotest qcheck_paged_storage;
          QCheck_alcotest.to_alcotest qcheck_shared_blocks;
        ] );
      ( "block-dev",
        [
          Alcotest.test_case "cache" `Quick test_block_dev_cache;
          Alcotest.test_case "second chance" `Quick test_block_dev_second_chance;
          Alcotest.test_case "freed blocks leave the ring" `Quick
            test_block_dev_freed_blocks;
          QCheck_alcotest.to_alcotest qcheck_block_dev_clock_model;
        ] );
      ( "dcache",
        [
          Alcotest.test_case "basic" `Quick test_dcache;
          Alcotest.test_case "sharded" `Quick test_dcache_sharded;
          Alcotest.test_case "lockless reads" `Quick test_dcache_sharded_lockless_reads;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "paths" `Quick test_vfs_paths;
          Alcotest.test_case "fd semantics" `Quick test_vfs_fd_semantics;
          Alcotest.test_case "open flags" `Quick test_vfs_open_flags;
          Alcotest.test_case "mounts" `Quick test_vfs_mounts;
          Alcotest.test_case "dcache integration" `Quick test_vfs_dcache_integration;
          QCheck_alcotest.to_alcotest qcheck_path_walk;
          Alcotest.test_case "open+fstat+close allocation" `Quick
            test_open_fstat_close_alloc;
        ] );
      ("read_into", [ QCheck_alcotest.to_alcotest qcheck_read_into ]);
      ( "wrapfs",
        [
          Alcotest.test_case "passthrough" `Quick test_wrapfs_passthrough;
          Alcotest.test_case "private freed" `Quick test_wrapfs_private_freed_on_unlink;
        ] );
      ( "journalfs",
        [
          Alcotest.test_case "ops" `Quick test_journalfs_ops;
          Alcotest.test_case "kgcc equivalence" `Quick test_journalfs_kgcc_equivalence;
        ] );
    ]
