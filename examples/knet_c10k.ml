(* C10K-style serving over knet (§2.2): one process, one epoll loop,
   thousands of concurrent connections.  The same client population is
   served twice — once with read(2)+send(2), where every response byte
   crosses the user/kernel boundary twice (copied out of the page cache,
   then copied back in toward the socket), and once with sendfile(2),
   which stages the file straight from the page cache to the send queue.
   The client-side stream digests prove both servers put byte-identical
   responses on the wire; the crossing and copy counters show what each
   paid for them.

   Run with:  dune exec examples/knet_c10k.exe *)

let ndocs = 16
let conns = 1_000
let requests_per_conn = 3
let doc_path i = Printf.sprintf "/www/%d" i
let doc_size i = 512 + (i * 173 mod 1_536)

(* which document a given request asks for — shared with the clients *)
let doc_of ~conn ~req = ((conn * 7) + (req * 3)) mod ndocs

let setup_docs sys =
  ignore (Core.ok (Core.Syscall.sys_mkdir sys ~path:"/www"));
  for i = 0 to ndocs - 1 do
    let data = Bytes.make (doc_size i) (Char.chr (97 + (i mod 26))) in
    ignore
      (Core.ok
         (Core.Syscall.sys_open_write_close sys ~path:(doc_path i) ~data
            ~flags:Core.o_create))
  done

(* responses are framed as an 8-byte little-endian body length, then the
   body — the framing knet's traffic generator expects *)
let header len =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int len);
  b

(* a blocking send for example purposes: when the send queue is full,
   step the network simulation (the NIC drain is what frees space) *)
let send_all sys net ~sock data =
  let rec from off =
    let len = Bytes.length data - off in
    if len > 0 then
      match Core.Syscall.sys_send sys ~sock ~data ~off ~len with
      | Ok n -> from (off + n)
      | Error Kvfs.Vtypes.ENOBUFS ->
          ignore (Knet.step net);
          from off
      | Error e -> failwith (Fmt.str "send: %a" Kvfs.Vtypes.pp_errno e)
  in
  from 0

let rec sendfile_all sys net ~sock ~fd ~off ~len =
  if len > 0 then
    match Core.Syscall.sys_sendfile_sock sys ~sock ~fd ~off ~len with
    | Ok n when n = len -> ()
    | Ok n -> sendfile_all sys net ~sock ~fd ~off:(off + n) ~len:(len - n)
    | Error Kvfs.Vtypes.ENOBUFS ->
        ignore (Knet.step net);
        sendfile_all sys net ~sock ~fd ~off ~len
    | Error e -> failwith (Fmt.str "sendfile: %a" Kvfs.Vtypes.pp_errno e)

(* drain complete "GET <i>" lines out of a connection's input buffer *)
let take_lines buf =
  let s = Buffer.contents buf in
  Buffer.clear buf;
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  Buffer.add_string buf (String.sub s !start (String.length s - !start));
  List.rev !lines

let respond mode sys net ~sock line =
  let doc = int_of_string (String.sub line 4 (String.length line - 4)) in
  match mode with
  | `Read_send ->
      (* four syscalls, and the body crosses the boundary twice: page
         cache -> user buffer (read), user buffer -> socket (send) *)
      let fd =
        Core.ok (Core.Syscall.sys_open sys ~path:(doc_path doc) ~flags:Core.o_rdonly)
      in
      let data = Core.ok (Core.Syscall.sys_read sys ~fd ~len:(doc_size doc)) in
      ignore (Core.Syscall.sys_close sys ~fd);
      send_all sys net ~sock (header (Bytes.length data));
      send_all sys net ~sock data
  | `Sendfile ->
      (* only the 8-byte header is user data; the body never leaves the
         kernel *)
      let fd, st =
        Core.ok (Core.Syscall.sys_open_fstat sys ~path:(doc_path doc) ~flags:Core.o_rdonly)
      in
      send_all sys net ~sock (header st.Kvfs.Vtypes.st_size);
      sendfile_all sys net ~sock ~fd ~off:0 ~len:st.Kvfs.Vtypes.st_size;
      ignore (Core.Syscall.sys_close sys ~fd)

let serve mode =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let net = Core.net t in
  setup_docs sys;
  let lsock = Core.Syscall.sys_socket sys in
  Core.ok (Core.Syscall.sys_bind sys ~sock:lsock ~port:80);
  Core.ok (Core.Syscall.sys_listen sys ~sock:lsock ~backlog:128);
  let ep = Core.Syscall.sys_epoll_create sys in
  Core.ok
    (Core.Syscall.sys_epoll_ctl sys ~ep ~sock:lsock ~add:true ~mask:Knet.ep_in
       ~cookie:lsock);
  Knet.Traffic.install net
    {
      Knet.Traffic.default with
      Knet.Traffic.port = 80;
      conns;
      requests_per_conn;
      pipeline = 1;
      req_of = (fun ~conn ~req -> Printf.sprintf "GET %d\n" (doc_of ~conn ~req));
    };
  let inbufs = Hashtbl.create 256 in
  let kernel = Core.kernel t in
  let crossings0 = Ksim.Kernel.crossings kernel in
  let copied0 = Ksim.Kernel.bytes_to_user kernel + Ksim.Kernel.bytes_from_user kernel in
  let close_conn sock =
    ignore (Core.Syscall.sys_epoll_ctl sys ~ep ~sock ~add:false ~mask:0 ~cookie:0);
    ignore (Core.Syscall.sys_close sys ~fd:sock);
    Hashtbl.remove inbufs sock
  in
  let handle (cookie, _mask) =
    if cookie = lsock then
      (* accept everything queued; register each conn for readability *)
      let rec accept_all () =
        match Core.Syscall.sys_accept sys ~sock:lsock with
        | Ok sock ->
            Core.ok
              (Core.Syscall.sys_epoll_ctl sys ~ep ~sock ~add:true
                 ~mask:Knet.ep_in ~cookie:sock);
            Hashtbl.replace inbufs sock (Buffer.create 64);
            accept_all ()
        | Error _ -> ()
      in
      accept_all ()
    else
      match Core.Syscall.sys_recv sys ~sock:cookie ~len:4096 with
      | Ok b when Bytes.length b = 0 -> close_conn cookie (* EOF *)
      | Ok b ->
          let buf = Hashtbl.find inbufs cookie in
          Buffer.add_bytes buf b;
          List.iter (respond mode sys net ~sock:cookie) (take_lines buf)
      | Error _ -> ()
  in
  let running = ref true in
  while !running do
    match Core.Syscall.sys_epoll_wait sys ~ep ~max:64 with
    | Ok [] -> running := false (* traffic heap exhausted: clients done *)
    | Ok events -> List.iter handle events
    | Error _ -> running := false
  done;
  ( Knet.Traffic.completed net ~port:80,
    Knet.Traffic.digest net ~port:80,
    Ksim.Kernel.crossings kernel - crossings0,
    Ksim.Kernel.bytes_to_user kernel
    + Ksim.Kernel.bytes_from_user kernel
    - copied0 )

let () =
  Printf.printf "serving %d connections x %d requests over knet epoll\n\n" conns
    requests_per_conn;
  let done_rs, digest_rs, crossings_rs, copied_rs = serve `Read_send in
  let done_sf, digest_sf, crossings_sf, copied_sf = serve `Sendfile in
  Printf.printf "read+send: %5d conns served, %7d crossings, %9d bytes copied\n"
    done_rs crossings_rs copied_rs;
  Printf.printf "sendfile : %5d conns served, %7d crossings, %9d bytes copied\n"
    done_sf crossings_sf copied_sf;
  Printf.printf "\nsendfile saved %d crossings and %d copied bytes (%.1f%% of copies)\n"
    (crossings_rs - crossings_sf)
    (copied_rs - copied_sf)
    (100. *. float_of_int (copied_rs - copied_sf) /. float_of_int copied_rs);
  assert (done_rs = conns && done_sf = conns);
  assert (digest_rs = digest_sf);
  print_endline "response streams byte-identical across both servers"
