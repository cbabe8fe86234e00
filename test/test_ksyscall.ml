(* Tests for the syscall layer: boundary accounting, service routines,
   consolidated calls. *)

let mk_sys () =
  let kernel = Ksim.Kernel.create () in
  (kernel, Ksyscall.Systable.create kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %a" Kvfs.Vtypes.pp_errno e

let test_open_read_write_close () =
  let _, sys = mk_sys () in
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/f"
                 ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  Alcotest.(check bool) "fd >= 3" true (fd >= 3);
  let n = ok (Ksyscall.Usyscall.sys_write sys ~fd ~data:(Bytes.of_string "payload")) in
  Alcotest.(check int) "wrote" 7 n;
  ignore (ok (Ksyscall.Usyscall.sys_lseek sys ~fd ~off:0 ~whence:Kvfs.Vfs.SEEK_SET));
  Alcotest.(check string) "read back" "payload"
    (Bytes.to_string (ok (Ksyscall.Usyscall.sys_read sys ~fd ~len:100)));
  ignore (ok (Ksyscall.Usyscall.sys_close sys ~fd));
  match Ksyscall.Usyscall.sys_read sys ~fd ~len:1 with
  | Error Kvfs.Vtypes.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF"

let test_boundary_accounting () =
  let kernel, sys = mk_sys () in
  let c0 = Ksim.Kernel.crossings kernel in
  let b0 = Ksim.Kernel.bytes_from_user kernel in
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/file"
                 ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (ok (Ksyscall.Usyscall.sys_write sys ~fd ~data:(Bytes.make 1000 'x')));
  ignore (ok (Ksyscall.Usyscall.sys_close sys ~fd));
  Alcotest.(check int) "three crossings" 3 (Ksim.Kernel.crossings kernel - c0);
  (* path copied for open, data for write *)
  Alcotest.(check int) "bytes in" (6 + 1000)
    (Ksim.Kernel.bytes_from_user kernel - b0);
  (* reads copy out *)
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/file" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let o0 = Ksim.Kernel.bytes_to_user kernel in
  ignore (ok (Ksyscall.Usyscall.sys_read sys ~fd ~len:400));
  Alcotest.(check int) "bytes out" 400 (Ksim.Kernel.bytes_to_user kernel - o0)

let test_mode_restored_on_error () =
  let kernel, sys = mk_sys () in
  (match Ksyscall.Usyscall.sys_open sys ~path:"/missing" ~flags:[ Kvfs.Vfs.O_RDONLY ] with
  | Error Kvfs.Vtypes.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT");
  Alcotest.(check bool) "back in user mode" true
    (Ksim.Kernel.mode kernel = Ksim.Kernel.User)

let test_service_requires_kernel_mode () =
  let _, sys = mk_sys () in
  try
    ignore (Ksyscall.Sys_file.service_getpid sys);
    Alcotest.fail "expected mode violation"
  with Ksim.Kernel.Kernel_mode_violation _ -> ()

let test_getpid_and_counts () =
  let kernel, sys = mk_sys () in
  let pid = Ksyscall.Usyscall.sys_getpid sys in
  Alcotest.(check int) "init pid" 1 pid;
  let p = Ksim.Kernel.current kernel in
  Alcotest.(check bool) "syscall counted" true (p.Ksim.Kproc.syscalls >= 1);
  Alcotest.(check int) "table count" 1
    (Ksyscall.Systable.count sys Ksyscall.Sysno.Getpid)

let test_readdirplus_equivalence () =
  let _, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d"));
  for i = 0 to 4 do
    let path = Printf.sprintf "/d/f%d" i in
    ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path
                  ~data:(Bytes.make (10 * (i + 1)) 'a')
                  ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]))
  done;
  (* plain sequence *)
  let entries = ok (Ksyscall.Usyscall.sys_readdir sys ~path:"/d") in
  let plain =
    List.map
      (fun d ->
        let st = ok (Ksyscall.Usyscall.sys_stat sys ~path:("/d/" ^ d.Kvfs.Vtypes.d_name)) in
        (d.Kvfs.Vtypes.d_name, st.Kvfs.Vtypes.st_size))
      entries
  in
  (* consolidated *)
  let merged =
    List.map
      (fun (d, st) -> (d.Kvfs.Vtypes.d_name, st.Kvfs.Vtypes.st_size))
      (ok (Ksyscall.Usyscall.sys_readdirplus sys ~path:"/d"))
  in
  Alcotest.(check (list (pair string int))) "identical results" plain merged

let test_readdirplus_fewer_crossings () =
  let kernel, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d"));
  for i = 0 to 9 do
    ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys
                  ~path:(Printf.sprintf "/d/f%d" i)
                  ~data:(Bytes.make 1 'x')
                  ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]))
  done;
  let c0 = Ksim.Kernel.crossings kernel in
  let entries = ok (Ksyscall.Usyscall.sys_readdir sys ~path:"/d") in
  List.iter
    (fun d -> ignore (ok (Ksyscall.Usyscall.sys_stat sys ~path:("/d/" ^ d.Kvfs.Vtypes.d_name))))
    entries;
  let plain_crossings = Ksim.Kernel.crossings kernel - c0 in
  let c1 = Ksim.Kernel.crossings kernel in
  ignore (ok (Ksyscall.Usyscall.sys_readdirplus sys ~path:"/d"));
  let merged_crossings = Ksim.Kernel.crossings kernel - c1 in
  Alcotest.(check int) "plain" 11 plain_crossings;
  Alcotest.(check int) "merged" 1 merged_crossings

let test_open_read_close () =
  let _, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/x"
                ~data:(Bytes.of_string "contents")
                ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  Alcotest.(check string) "read whole file" "contents"
    (Bytes.to_string (ok (Ksyscall.Usyscall.sys_open_read_close sys ~path:"/x" ~maxlen:1000)));
  (* no descriptor leaks *)
  let kernel = Ksyscall.Systable.kernel sys in
  Alcotest.(check int) "no fds leaked" 0
    (Ksim.Kproc.open_fd_count (Ksim.Kernel.current kernel));
  match Ksyscall.Usyscall.sys_open_read_close sys ~path:"/none" ~maxlen:10 with
  | Error Kvfs.Vtypes.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT"

let test_open_fstat () =
  let _, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/y"
                ~data:(Bytes.make 123 'b')
                ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  let fd, st = ok (Ksyscall.Usyscall.sys_open_fstat sys ~path:"/y" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  Alcotest.(check int) "size" 123 st.Kvfs.Vtypes.st_size;
  (* the fd stays open and usable *)
  Alcotest.(check int) "readable" 123
    (Bytes.length (ok (Ksyscall.Usyscall.sys_read sys ~fd ~len:1000)));
  ignore (ok (Ksyscall.Usyscall.sys_close sys ~fd))

let test_pread_pwrite () =
  let _, sys = mk_sys () in
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/p"
                 ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]) in
  ignore (ok (Ksyscall.Usyscall.sys_write sys ~fd ~data:(Bytes.of_string "0123456789")));
  ignore (ok (Ksyscall.Usyscall.sys_pwrite sys ~fd ~off:4 ~data:(Bytes.of_string "XY")));
  Alcotest.(check string) "pread" "3XY6"
    (Bytes.to_string (ok (Ksyscall.Usyscall.sys_pread sys ~fd ~off:3 ~len:4)));
  (* position unaffected by pread/pwrite *)
  Alcotest.(check int) "pos at end" 10
    (ok (Ksyscall.Usyscall.sys_lseek sys ~fd ~off:0 ~whence:Kvfs.Vfs.SEEK_CUR))

let test_rename_fsync () =
  let _, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/old"
                ~data:(Bytes.of_string "v") ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  ignore (ok (Ksyscall.Usyscall.sys_rename sys ~src:"/old" ~dst:"/new"));
  (match Ksyscall.Usyscall.sys_stat sys ~path:"/old" with
  | Error Kvfs.Vtypes.ENOENT -> ()
  | _ -> Alcotest.fail "old still there");
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/new" ~flags:[ Kvfs.Vfs.O_RDWR ]) in
  ignore (ok (Ksyscall.Usyscall.sys_fsync sys ~fd));
  ignore (ok (Ksyscall.Usyscall.sys_close sys ~fd))

let test_sendfile () =
  let kernel, sys = mk_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/doc"
                ~data:(Bytes.make 10_000 'w')
                ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/doc" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let out0 = Ksim.Kernel.bytes_to_user kernel in
  let n = ok (Ksyscall.Usyscall.sys_sendfile sys ~fd ~off:0 ~len:max_int) in
  Alcotest.(check int) "whole file sent" 10_000 n;
  (* the entire point: no data crossed into user space *)
  Alcotest.(check int) "zero copies out" 0 (Ksim.Kernel.bytes_to_user kernel - out0);
  (* partial range *)
  let n = ok (Ksyscall.Usyscall.sys_sendfile sys ~fd ~off:9_000 ~len:5_000) in
  Alcotest.(check int) "tail clamped" 1_000 n;
  ignore (ok (Ksyscall.Usyscall.sys_close sys ~fd));
  match Ksyscall.Usyscall.sys_sendfile sys ~fd ~off:0 ~len:1 with
  | Error Kvfs.Vtypes.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF"

let test_tracer () =
  let _, sys = mk_sys () in
  let seen = ref [] in
  Ksyscall.Systable.set_tracer sys (fun r -> seen := r :: !seen);
  ignore (Ksyscall.Usyscall.sys_getpid sys);
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/t"));
  Ksyscall.Systable.clear_tracer sys;
  ignore (ok (Ksyscall.Usyscall.sys_stat sys ~path:"/t"));
  let names =
    List.rev_map
      (fun r -> Ksyscall.Sysno.to_string r.Ksyscall.Systable.sysno)
      !seen
  in
  Alcotest.(check (list string)) "traced while attached" [ "getpid"; "mkdir" ] names;
  Alcotest.(check (list string)) "each with its argument" [ ""; "/t" ]
    (List.rev_map (fun r -> r.Ksyscall.Systable.arg) !seen)

(* --- typed descriptor wire codec ---------------------------------------- *)

(* Also encodes [req] in place at offset 3 of a larger buffer, as a
   ring entry is: the same bytes, the end offset returned, and the guard
   bytes around it untouched. *)
let roundtrip req =
  let wire = Ksyscall.Syscall.encode_req req in
  let req', consumed = Ksyscall.Syscall.decode_req wire ~off:0 in
  let n = Bytes.length wire in
  let buf = Bytes.make (n + 5) '#' in
  let stop = Ksyscall.Syscall.encode_req_into buf ~pos:3 req in
  req' = req && consumed = n && n = Ksyscall.Syscall.req_wire_size req
  && stop = 3 + n
  && Bytes.sub buf 3 n = wire
  && Bytes.sub_string buf 0 3 = "###"
  && Bytes.sub_string buf (3 + n) 2 = "##"

(* One handcrafted example per syscall number, so every decoder arm is
   exercised deterministically. *)
let test_req_roundtrip_all_sysnos () =
  let open Ksyscall.Syscall in
  let examples =
    [
      Open { path = "/etc/motd"; flags = [ Kvfs.Vfs.O_RDONLY ] };
      Close { fd = 7 };
      Read { fd = 3; len = 4096 };
      Write { fd = 4; data = Bytes.of_string "payload\000with\255bytes" };
      Pread { fd = 5; off = 123; len = 17 };
      Pwrite { fd = 5; off = 0; data = Bytes.empty };
      Lseek { fd = 9; off = 1 lsl 40; whence = Kvfs.Vfs.SEEK_END };
      Stat { path = "/" };
      Fstat { fd = 0 };
      Readdir { path = "/usr/share" };
      Mkdir { path = "/tmp/x" };
      Unlink { path = "/tmp/x/y" };
      Rename { src = "/a"; dst = "/b" };
      Fsync { fd = 11 };
      Getpid;
      Readdirplus { path = "/home" };
      Open_read_close { path = "/cfg"; maxlen = 65536 };
      Open_write_close
        {
          path = "/out";
          data = Bytes.of_string "x";
          flags = [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT; Kvfs.Vfs.O_TRUNC ];
        };
      Sendfile { fd = 6; off = 8192; len = 1 lsl 20 };
      Open_fstat { path = "/lib"; flags = [ Kvfs.Vfs.O_RDONLY ] };
      Socket;
      Bind { sock = 3; port = 80 };
      Listen { sock = 3; backlog = 128 };
      Accept { sock = 3 };
      Recv { sock = 4; len = 4096 };
      Send { sock = 4; data = Bytes.of_string "HTTP/1.0 200\r\n\r\n"; off = 0; len = 16 };
      Epoll_create;
      Epoll_ctl { ep = 5; sock = 4; add = true; mask = 3; cookie = 42 };
      Epoll_wait { ep = 5; max = 64 };
      Accept_recv { sock = 3; len = 512 };
      Recv_send { sock = 4; len = 512; data = Bytes.of_string "body" };
      Sendfile_sock { sock = 4; fd = 6; off = 0; len = 2048 };
    ]
  in
  (* the examples must cover the whole syscall table: adding a [Sysno.t]
     without a codec example here fails loudly, naming the stragglers *)
  let covered = List.sort_uniq compare (List.map sysno_of_req examples) in
  let missing =
    List.filter (fun s -> not (List.mem s covered)) Ksyscall.Sysno.all
  in
  Alcotest.(check (list string))
    "every sysno has a codec example" []
    (List.map Ksyscall.Sysno.to_string missing);
  List.iter
    (fun req ->
      Alcotest.(check bool)
        (Fmt.str "roundtrip %a" pp_req req)
        true (roundtrip req))
    examples

let gen_req =
  let open QCheck.Gen in
  let lc = map Char.chr (int_range 97 122) in
  let gen_path = map (fun s -> "/" ^ s) (string_size ~gen:lc (int_range 0 12)) in
  let gen_fd = int_range 0 1024 in
  let gen_len = int_range 0 1_000_000 in
  let gen_off = int_range 0 1_000_000 in
  let gen_data =
    map Bytes.of_string
      (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))
  in
  (* canonical flag lists only: the wire carries a bitmask, so a
     non-canonical ordering cannot survive; [flags_of_int] is the
     canonical form *)
  let gen_flags =
    map2
      (fun mode mods -> Ksyscall.Syscall.flags_of_int (mode lor (mods lsl 2)))
      (int_range 0 2) (int_range 0 7)
  in
  let gen_whence =
    oneofl [ Kvfs.Vfs.SEEK_SET; Kvfs.Vfs.SEEK_CUR; Kvfs.Vfs.SEEK_END ]
  in
  let open Ksyscall.Syscall in
  oneofl Ksyscall.Sysno.all >>= function
  | Ksyscall.Sysno.Open ->
      map2 (fun path flags -> Open { path; flags }) gen_path gen_flags
  | Ksyscall.Sysno.Close -> map (fun fd -> Close { fd }) gen_fd
  | Ksyscall.Sysno.Read ->
      map2 (fun fd len -> Read { fd; len }) gen_fd gen_len
  | Ksyscall.Sysno.Write ->
      map2 (fun fd data -> Write { fd; data }) gen_fd gen_data
  | Ksyscall.Sysno.Pread ->
      map3 (fun fd off len -> Pread { fd; off; len }) gen_fd gen_off gen_len
  | Ksyscall.Sysno.Pwrite ->
      map3 (fun fd off data -> Pwrite { fd; off; data }) gen_fd gen_off gen_data
  | Ksyscall.Sysno.Lseek ->
      map3 (fun fd off whence -> Lseek { fd; off; whence }) gen_fd gen_off
        gen_whence
  | Ksyscall.Sysno.Stat -> map (fun path -> Stat { path }) gen_path
  | Ksyscall.Sysno.Fstat -> map (fun fd -> Fstat { fd }) gen_fd
  | Ksyscall.Sysno.Readdir -> map (fun path -> Readdir { path }) gen_path
  | Ksyscall.Sysno.Mkdir -> map (fun path -> Mkdir { path }) gen_path
  | Ksyscall.Sysno.Unlink -> map (fun path -> Unlink { path }) gen_path
  | Ksyscall.Sysno.Rename ->
      map2 (fun src dst -> Rename { src; dst }) gen_path gen_path
  | Ksyscall.Sysno.Fsync -> map (fun fd -> Fsync { fd }) gen_fd
  | Ksyscall.Sysno.Getpid -> return Getpid
  | Ksyscall.Sysno.Readdirplus ->
      map (fun path -> Readdirplus { path }) gen_path
  | Ksyscall.Sysno.Open_read_close ->
      map2 (fun path maxlen -> Open_read_close { path; maxlen }) gen_path gen_len
  | Ksyscall.Sysno.Open_write_close ->
      map3
        (fun path data flags -> Open_write_close { path; data; flags })
        gen_path gen_data gen_flags
  | Ksyscall.Sysno.Sendfile ->
      map3 (fun fd off len -> Sendfile { fd; off; len }) gen_fd gen_off gen_len
  | Ksyscall.Sysno.Open_fstat ->
      map2 (fun path flags -> Open_fstat { path; flags }) gen_path gen_flags
  | Ksyscall.Sysno.Socket -> return Socket
  | Ksyscall.Sysno.Bind ->
      map2 (fun sock port -> Bind { sock; port }) gen_fd (int_range 1 65535)
  | Ksyscall.Sysno.Listen ->
      map2 (fun sock backlog -> Listen { sock; backlog }) gen_fd
        (int_range 1 4096)
  | Ksyscall.Sysno.Accept -> map (fun sock -> Accept { sock }) gen_fd
  | Ksyscall.Sysno.Recv ->
      map2 (fun sock len -> Recv { sock; len }) gen_fd gen_len
  | Ksyscall.Sysno.Send ->
      map2
        (fun sock data -> Send { sock; data; off = 0; len = Bytes.length data })
        gen_fd gen_data
  | Ksyscall.Sysno.Epoll_create -> return Epoll_create
  | Ksyscall.Sysno.Epoll_ctl ->
      map3
        (fun ep sock (add, mask, cookie) ->
          Epoll_ctl { ep; sock; add; mask; cookie })
        gen_fd gen_fd
        (map3 (fun a m c -> (a, m, c)) bool (int_range 0 7) (int_range 0 1024))
  | Ksyscall.Sysno.Epoll_wait ->
      map2 (fun ep max -> Epoll_wait { ep; max }) gen_fd (int_range 1 1024)
  | Ksyscall.Sysno.Accept_recv ->
      map2 (fun sock len -> Accept_recv { sock; len }) gen_fd gen_len
  | Ksyscall.Sysno.Recv_send ->
      map3 (fun sock len data -> Recv_send { sock; len; data }) gen_fd gen_len
        gen_data
  | Ksyscall.Sysno.Sendfile_sock ->
      map2
        (fun (sock, fd) (off, len) -> Sendfile_sock { sock; fd; off; len })
        (map2 (fun a b -> (a, b)) gen_fd gen_fd)
        (map2 (fun a b -> (a, b)) gen_off gen_len)

let qcheck_req_roundtrip =
  QCheck.Test.make ~name:"req -> wire -> req" ~count:1000
    (QCheck.make
       ~print:(fun r -> Fmt.str "%a" Ksyscall.Syscall.pp_req r)
       gen_req)
    roundtrip

(* A [Send] of a sub-range encodes, sizes and charges exactly as a
   [Send] of those bytes alone: the range lies at a random offset in a
   larger buffer between guard bytes, and decoding gives the exact
   form back. *)
let qcheck_send_range_wire =
  QCheck.Test.make ~name:"send sub-range on the wire = exact bytes" ~count:500
    QCheck.(quad (int_range 0 1024) (string_of_size Gen.(int_range 0 64))
              (int_range 0 20) (int_range 0 20))
    (fun (sock, body, head, tail) ->
      let open Ksyscall.Syscall in
      let len = String.length body in
      let data = Bytes.make (head + len + tail) '\xa5' in
      Bytes.blit_string body 0 data head len;
      let sub = Send { sock; data; off = head; len } in
      let exact = Send { sock; data = Bytes.of_string body; off = 0; len } in
      let wire = encode_req sub in
      wire = encode_req exact
      && req_wire_size sub = Bytes.length wire
      && req_copy_bytes sub = len
      && fst (decode_req wire ~off:0) = exact)

(* --- sys_read_into ------------------------------------------------------ *)

(* One read scenario, run on twin systems: [size] file bytes, the fd
   positioned at [seek], two reads of [len] (0, past the end of file
   and [max_int] included) on a good or a bad fd, under an optional
   gate that denies every read and an optional EINTR plan.  [pos] is
   where [sys_read_into] lands the bytes. *)
type rd_case = {
  size : int;
  seek : int;
  len : int;
  bad_fd : bool;
  deny : bool;
  eintr : Kfault.trigger option;
  pos : int;
}

let pp_rd_case c =
  Printf.sprintf "size=%d seek=%d len=%d bad_fd=%b deny=%b eintr=%s pos=%d"
    c.size c.seek c.len c.bad_fd c.deny
    (match c.eintr with
    | None -> "-"
    | Some (Kfault.One_shot k) -> Printf.sprintf "once:%d" k
    | Some (Kfault.Every_nth k) -> Printf.sprintf "nth:%d" k
    | Some _ -> "?")
    c.pos

let gen_rd_case =
  QCheck.Gen.(
    int_range 0 9000 >>= fun size ->
    int_range 0 (size + 100) >>= fun seek ->
    frequency
      [ (1, return 0); (3, int_range 1 (size + 10)); (1, return (size + 5000));
        (2, return max_int) ]
    >>= fun len ->
    map3
      (fun (bad_fd, deny) eintr pos -> { size; seek; len; bad_fd; deny; eintr; pos })
      (pair (map (fun n -> n = 0) (int_bound 5)) (map (fun n -> n = 0) (int_bound 5)))
      (frequency
         [ (4, return None);
           (1, map (fun k -> Some (Kfault.One_shot k)) (int_range 1 3));
           (1, return (Some (Kfault.Every_nth 1))) ])
      (int_bound 16))

(* Everything a read leaves behind on one system: each read's bytes or
   errno, the clock, crossings, copied bytes, the kstats dump and the
   tracer's records. *)
let read_twin c read =
  let kernel = Ksim.Kernel.create () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  let sys = Ksyscall.Systable.create kernel in
  let trace = ref [] in
  Ksyscall.Systable.set_tracer sys (fun r -> trace := r :: !trace);
  let data = Bytes.init c.size (fun i -> Char.chr ((i * 7) land 255)) in
  ignore
    (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/f" ~data ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/f" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  ignore (ok (Ksyscall.Usyscall.sys_lseek sys ~fd ~off:c.seek ~whence:Kvfs.Vfs.SEEK_SET));
  let fd = if c.bad_fd then fd + 100 else fd in
  if c.deny then
    Ksyscall.Systable.set_gate sys (fun ~pid:_ ~sysno ->
        if sysno = Ksyscall.Sysno.Read then Ksyscall.Systable.Gate_deny Kvfs.Vtypes.EPERM
        else Ksyscall.Systable.Gate_allow);
  Option.iter
    (fun trigger ->
      Kfault.arm (Ksim.Kernel.fault kernel) [ { Kfault.site = "syscall.eintr"; trigger } ])
    c.eintr;
  let results = List.init 2 (fun _ -> read sys ~fd) in
  ( results,
    ( Ksim.Kernel.now kernel,
      Ksim.Kernel.crossings kernel,
      Ksim.Kernel.bytes_to_user kernel,
      Ksim.Kernel.bytes_from_user kernel ),
    Kstats.dump (Ksim.Kernel.stats kernel),
    List.rev !trace )

let qcheck_read_into =
  QCheck.Test.make ~name:"sys_read_into = sys_read" ~count:300
    (QCheck.make ~print:pp_rd_case gen_rd_case)
    (fun c ->
      let plain sys ~fd =
        Result.map Bytes.to_string (Ksyscall.Usyscall.sys_read sys ~fd ~len:c.len)
      in
      (* the bytes land at [pos] of a guarded buffer that just fits the
         file; nothing around them moves *)
      let into sys ~fd =
        let into = Bytes.make (c.pos + c.size + 3) '#' in
        match Ksyscall.Usyscall.sys_read_into sys ~fd ~len:c.len ~into ~pos:c.pos with
        | Error _ as e ->
            if Bytes.exists (fun ch -> ch <> '#') into then
              QCheck.Test.fail_report "a failed read wrote the buffer";
            e
        | Ok n ->
            let rest = Bytes.length into - c.pos - n in
            if Bytes.sub_string into 0 c.pos <> String.make c.pos '#'
               || Bytes.sub_string into (c.pos + n) rest <> String.make rest '#'
            then QCheck.Test.fail_report "bytes landed outside their range";
            Ok (Bytes.sub_string into c.pos n)
      in
      let r1, m1, s1, t1 = read_twin c plain and r2, m2, s2, t2 = read_twin c into in
      let fail what = QCheck.Test.fail_reportf "%s differ" what in
      if r1 <> r2 then fail "results";
      if m1 <> m2 then fail "clock, crossings or copied bytes";
      if s1 <> s2 then fail "kstats dumps";
      if t1 <> t2 then fail "trace records";
      true)

(* A read whose bytes do not fit at [pos] fails loudly, before any byte
   moves: never a silent short read. *)
let test_read_into_no_truncation () =
  let _, sys = mk_sys () in
  let data = Bytes.make 100 'd' in
  ignore
    (ok (Ksyscall.Usyscall.sys_open_write_close sys ~path:"/f" ~data ~flags:[ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]));
  let fd = ok (Ksyscall.Usyscall.sys_open sys ~path:"/f" ~flags:[ Kvfs.Vfs.O_RDONLY ]) in
  let into = Bytes.make 107 '#' in
  (match Ksyscall.Usyscall.sys_read_into sys ~fd ~len:max_int ~into ~pos:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a body one byte too long must not be cut short");
  Alcotest.(check string) "nothing written" (String.make 107 '#') (Bytes.to_string into);
  Alcotest.(check int) "and the position did not move" 100
    (ok (Ksyscall.Usyscall.sys_read_into sys ~fd ~len:max_int ~into ~pos:7))

(* --- the file path's id tables ------------------------------------------ *)

(* A syscall table over a memfs the test can fsck. *)
let mk_memfs_sys () =
  let kernel = Ksim.Kernel.create () in
  let fs = Kvfs.Memfs.create kernel in
  (kernel, fs, Ksyscall.Systable.create ~root_fs:(Kvfs.Memfs.ops fs) kernel)

let rdwr_creat = [ Kvfs.Vfs.O_RDWR; Kvfs.Vfs.O_CREAT ]

(* Every id table on the file path stays O(1): after 4,000 open
   two-block files in two directories, no bucket chain in the fd table,
   the open-file table, memfs's inode table and bitmap, or the buffer
   cache is longer than 8.  Keys that share their low bits (a block map
   keyed by (ino lsl 31) lor (fblock + 1), say) would pile into one
   bucket under an identity hash and fail this. *)
let test_tables_stay_shallow () =
  let kernel, fs, sys = mk_memfs_sys () in
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d1"));
  ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d2"));
  let one = Bytes.make 1 'x' in
  for i = 0 to 3999 do
    let path = Printf.sprintf "/d%d/f%d" (1 + (i land 1)) i in
    let fd = ok (Ksyscall.Usyscall.sys_open sys ~path ~flags:rdwr_creat) in
    ignore (ok (Ksyscall.Usyscall.sys_pwrite sys ~fd ~off:0 ~data:one));
    ignore (ok (Ksyscall.Usyscall.sys_pwrite sys ~fd ~off:4096 ~data:one))
  done;
  let p = Ksim.Kernel.current kernel in
  Alcotest.(check int) "all open" 4000 (Ksim.Kproc.open_fd_count p);
  Alcotest.(check int) "inodes" 4003 (Kvfs.Memfs.inode_count fs);
  let shallow name chain =
    if chain > 8 then Alcotest.failf "%s: a bucket chain of %d" name chain
  in
  shallow "fd table" (Ksim.Int_table.max_chain p.Ksim.Kproc.fd_table);
  shallow "open files" (Kvfs.Vfs.max_chain (Ksyscall.Systable.vfs sys));
  shallow "memfs" (Kvfs.Memfs.max_chain fs);
  shallow "buffer cache" (Kvfs.Block_dev.max_chain (Kvfs.Memfs.dev fs))

(* Random open/read/pread/write/close/unlink sequences against a bytes
   model, with churn that pushes fds, handles and inode numbers far past
   their tables' initial sizes.  After every step: results equal the
   model's, a closed fd and its VFS handle answer EBADF, an fd whose
   file was unlinked answers ENOENT, the open-fd count is the model's,
   and fsck is clean. *)
type fp_op =
  | F_open of int * bool  (* name, create *)
  | F_read of int * int  (* fd index, length *)
  | F_pread of int * int * int  (* fd index, offset, length *)
  | F_write of int * int * char  (* fd index, length, fill *)
  | F_close of int
  | F_unlink of int
  | F_churn of int  (* open n new files at once, then close and unlink them *)

let fp_names = [| "/a"; "/b"; "/d/c" |]

let pp_fp_op = function
  | F_open (n, c) -> Printf.sprintf "open(%s,%b)" fp_names.(n) c
  | F_read (f, len) -> Printf.sprintf "read(#%d,%d)" f len
  | F_pread (f, off, len) -> Printf.sprintf "pread(#%d,%d,%d)" f off len
  | F_write (f, len, c) -> Printf.sprintf "write(#%d,%d,%C)" f len c
  | F_close f -> Printf.sprintf "close(#%d)" f
  | F_unlink n -> Printf.sprintf "unlink(%s)" fp_names.(n)
  | F_churn n -> Printf.sprintf "churn(%d)" n

type fp_file = { mutable data : Bytes.t; mutable alive : bool }

type fp_fd = {
  fd : int;
  handle : int;
  file : fp_file;
  mutable pos : int;
  mutable is_open : bool;
}

let qcheck_file_path_model =
  let gen_op =
    QCheck.Gen.(
      let name = int_bound (Array.length fp_names - 1) and fdi = int_bound 15 in
      frequency
        [
          (3, map2 (fun n c -> F_open (n, c)) name bool);
          (3, map2 (fun f len -> F_read (f, len)) fdi (int_bound 9000));
          ( 3,
            map3 (fun f off len -> F_pread (f, off, len)) fdi (int_bound 12000)
              (int_bound 9000) );
          ( 4,
            map3 (fun f len c -> F_write (f, len, c)) fdi (int_bound 9000)
              (char_range 'a' 'z') );
          (2, map (fun f -> F_close f) fdi);
          (1, map (fun n -> F_unlink n) name);
          (1, map (fun n -> F_churn n) (int_range 1 2500));
        ])
  in
  QCheck.Test.make ~name:"fd/handle/inode tables = bytes model, fsck clean"
    ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_fp_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let kernel, fs, sys = mk_memfs_sys () in
      let vfs = Ksyscall.Systable.vfs sys in
      let proc = Ksim.Kernel.current kernel in
      ignore (ok (Ksyscall.Usyscall.sys_mkdir sys ~path:"/d"));
      let names = Hashtbl.create 4 and fds = ref [||] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let show = function
        | Ok _ -> "ok"
        | Error e -> Kvfs.Vtypes.errno_to_string e
      in
      let expect op what want got =
        match (want, got) with
        | Ok w, Ok g when w = g -> ()
        | Error w, Error g when w = g -> ()
        | _ ->
            fail "%s: %s gave %s, model %s" (pp_fp_op op) what (show got)
              (show want)
      in
      (* the model's answer on an fd: EBADF once closed, ENOENT once its
         file is unlinked *)
      let usable r =
        if not r.is_open then Error Kvfs.Vtypes.EBADF
        else if not r.file.alive then Error Kvfs.Vtypes.ENOENT
        else Ok r
      in
      let model_read r ~off ~len =
        let n = max 0 (min len (Bytes.length r.file.data - off)) in
        if n = 0 then Bytes.empty else Bytes.sub r.file.data off n
      in
      let pick f k = if Array.length !fds = 0 then () else k !fds.(f mod Array.length !fds) in
      List.iter
        (fun op ->
          (match op with
          | F_open (n, create) -> (
              let path = fp_names.(n) in
              let flags = if create then rdwr_creat else [ Kvfs.Vfs.O_RDWR ] in
              let got = Ksyscall.Usyscall.sys_open sys ~path ~flags in
              let file =
                match Hashtbl.find_opt names path with
                | Some file -> Some file
                | None when create ->
                    let file = { data = Bytes.empty; alive = true } in
                    Hashtbl.replace names path file;
                    Some file
                | None -> None
              in
              match (file, got) with
              | Some file, Ok fd ->
                  let handle = Ksim.Kproc.find_fd proc fd in
                  fds :=
                    Array.append !fds
                      [| { fd; handle; file; pos = 0; is_open = true } |]
              | None, Error Kvfs.Vtypes.ENOENT -> ()
              | _ -> fail "%s: got %s" (pp_fp_op op) (show got))
          | F_read (f, len) ->
              pick f (fun r ->
                  let got = Ksyscall.Usyscall.sys_read sys ~fd:r.fd ~len in
                  let want =
                    Result.map (fun r -> model_read r ~off:r.pos ~len) (usable r)
                  in
                  expect op "read" want got;
                  Result.iter (fun d -> r.pos <- r.pos + Bytes.length d) got)
          | F_pread (f, off, len) ->
              pick f (fun r ->
                  expect op "pread"
                    (Result.map (fun r -> model_read r ~off ~len) (usable r))
                    (Ksyscall.Usyscall.sys_pread sys ~fd:r.fd ~off ~len))
          | F_write (f, len, c) ->
              pick f (fun r ->
                  let got =
                    Ksyscall.Usyscall.sys_write sys ~fd:r.fd
                      ~data:(Bytes.make len c)
                  in
                  expect op "write" (Result.map (fun _ -> len) (usable r)) got;
                  if Result.is_ok got then begin
                    let d = r.file.data in
                    let m = Bytes.make (max (Bytes.length d) (r.pos + len)) '\000' in
                    Bytes.blit d 0 m 0 (Bytes.length d);
                    Bytes.fill m r.pos len c;
                    r.file.data <- m;
                    r.pos <- r.pos + len
                  end)
          | F_close f ->
              pick f (fun r ->
                  let want = if r.is_open then Ok () else Error Kvfs.Vtypes.EBADF in
                  expect op "close" want (Ksyscall.Usyscall.sys_close sys ~fd:r.fd);
                  r.is_open <- false)
          | F_unlink n -> (
              let path = fp_names.(n) in
              let got = Ksyscall.Usyscall.sys_unlink sys ~path in
              match Hashtbl.find_opt names path with
              | Some file ->
                  expect op "unlink" (Ok ()) got;
                  file.alive <- false;
                  Hashtbl.remove names path
              | None -> expect op "unlink" (Error Kvfs.Vtypes.ENOENT) got)
          | F_churn n ->
              let live = Ksim.Kproc.open_fd_count proc in
              let tmp i = Printf.sprintf "/d/t%d" i in
              let fds =
                Array.init n (fun i ->
                    ok (Ksyscall.Usyscall.sys_open sys ~path:(tmp i) ~flags:rdwr_creat))
              in
              if Ksim.Kproc.open_fd_count proc <> live + n then
                fail "%s: %d fds open, model %d" (pp_fp_op op)
                  (Ksim.Kproc.open_fd_count proc) (live + n);
              Array.iteri
                (fun i fd ->
                  ok (Ksyscall.Usyscall.sys_close sys ~fd);
                  ok (Ksyscall.Usyscall.sys_unlink sys ~path:(tmp i)))
                fds);
          Array.iter
            (fun r ->
              if not r.is_open then
                match Kvfs.Vfs.read vfs r.handle 1 with
                | Error Kvfs.Vtypes.EBADF -> ()
                | got ->
                    fail "%s: closed handle %d gave %s" (pp_fp_op op) r.handle
                      (show got))
            !fds;
          let live = Array.fold_left (fun n r -> n + Bool.to_int r.is_open) 0 !fds in
          if Ksim.Kproc.open_fd_count proc <> live then
            fail "%s: %d fds open, model %d" (pp_fp_op op)
              (Ksim.Kproc.open_fd_count proc) live;
          match Kvfs.Memfs.fsck fs with
          | [] -> ()
          | errs -> fail "%s: fsck: %s" (pp_fp_op op) (String.concat "; " errs))
        ops;
      true)

let () =
  Alcotest.run "ksyscall"
    [
      ( "basic",
        [
          Alcotest.test_case "open/read/write/close" `Quick test_open_read_write_close;
          Alcotest.test_case "boundary accounting" `Quick test_boundary_accounting;
          Alcotest.test_case "mode restored on error" `Quick test_mode_restored_on_error;
          Alcotest.test_case "service mode check" `Quick test_service_requires_kernel_mode;
          Alcotest.test_case "getpid/counts" `Quick test_getpid_and_counts;
          Alcotest.test_case "pread/pwrite" `Quick test_pread_pwrite;
          Alcotest.test_case "rename/fsync" `Quick test_rename_fsync;
          Alcotest.test_case "tracer" `Quick test_tracer;
        ] );
      ( "consolidated",
        [
          Alcotest.test_case "readdirplus equivalence" `Quick test_readdirplus_equivalence;
          Alcotest.test_case "readdirplus crossings" `Quick test_readdirplus_fewer_crossings;
          Alcotest.test_case "open_read_close" `Quick test_open_read_close;
          Alcotest.test_case "open_fstat" `Quick test_open_fstat;
          Alcotest.test_case "sendfile" `Quick test_sendfile;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "wire roundtrip, all sysnos" `Quick
            test_req_roundtrip_all_sysnos;
          QCheck_alcotest.to_alcotest qcheck_req_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_send_range_wire;
        ] );
      ( "read_into",
        [
          QCheck_alcotest.to_alcotest qcheck_read_into;
          Alcotest.test_case "a read that does not fit raises" `Quick
            test_read_into_no_truncation;
        ] );
      ( "file-path",
        [
          Alcotest.test_case "id tables stay shallow" `Quick
            test_tables_stay_shallow;
          QCheck_alcotest.to_alcotest qcheck_file_path_model;
        ] );
    ]
