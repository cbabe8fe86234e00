(* knet: the simulated socket layer — listening sockets and backlogs,
   bounded per-connection buffers, level-triggered epoll readiness,
   blocking waits that ride the traffic-generator event queue, and the
   syscall-boundary plumbing (fd mapping, sendfile-to-socket). *)

let errno = Alcotest.testable Kvfs.Vtypes.pp_errno ( = )

let find_counter stats name =
  match Kstats.find stats name with Some (Kstats.Counter_v v) -> v | _ -> 0

(* A fresh stack on a bare kernel, small buffers so backpressure is easy
   to reach. *)
let bare ?rcvbuf ?sndbuf () =
  let kernel = Ksim.Kernel.create () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  (kernel, Knet.create ?rcvbuf ?sndbuf kernel)

let listener ?(port = 80) ?(backlog = 4) net =
  let s = Knet.socket net in
  (match Knet.bind net ~sock:s ~port with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bind: %s" (Kvfs.Vtypes.errno_to_string e));
  (match Knet.listen net ~sock:s ~backlog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "listen: %s" (Kvfs.Vtypes.errno_to_string e));
  s

(* [Knet.send] of the whole of [data]. *)
let send_bytes net ~sock data =
  Knet.send net ~sock ~data ~off:0 ~len:(Bytes.length data)

(* --- sockets and connections -------------------------------------------- *)

let test_accept_recv_send () =
  let _kernel, net = bare () in
  let s = listener net in
  Alcotest.(check (result int errno))
    "accept on empty backlog" (Error Kvfs.Vtypes.EAGAIN)
    (Knet.accept net ~sock:s);
  let cl = Option.get (Knet.inject_connect net ~port:80) in
  let conn =
    match Knet.accept net ~sock:s with
    | Ok c -> c
    | Error e -> Alcotest.failf "accept: %s" (Kvfs.Vtypes.errno_to_string e)
  in
  Alcotest.(check int) "accept pops the injected connection" cl conn;
  Alcotest.(check (result bytes errno))
    "recv before any bytes" (Error Kvfs.Vtypes.EAGAIN)
    (Knet.recv net ~sock:conn ~len:64);
  Alcotest.(check int) "inject fits" 5 (Knet.inject_bytes net ~sock:conn "hello");
  Alcotest.(check (result bytes errno))
    "recv returns the bytes"
    (Ok (Bytes.of_string "hello"))
    (Knet.recv net ~sock:conn ~len:64);
  (match send_bytes net ~sock:conn (Bytes.of_string "world") with
  | Ok 5 -> ()
  | _ -> Alcotest.fail "send should queue all 5 bytes");
  Knet.inject_fin net ~sock:conn;
  Alcotest.(check (result bytes errno))
    "recv after FIN and drain is end-of-stream" (Ok Bytes.empty)
    (Knet.recv net ~sock:conn ~len:64)

let test_bind_errors () =
  let _kernel, net = bare () in
  let _s = listener ~port:80 net in
  let s2 = Knet.socket net in
  Alcotest.(check (result unit errno))
    "port already taken" (Error Kvfs.Vtypes.EADDRINUSE)
    (Knet.bind net ~sock:s2 ~port:80);
  Alcotest.(check (result unit errno))
    "bind on a bad id" (Error Kvfs.Vtypes.EBADF)
    (Knet.bind net ~sock:9999 ~port:81)

let test_backlog_drops () =
  let kernel, net = bare () in
  let _s = listener ~port:80 ~backlog:2 net in
  Alcotest.(check bool) "first fits" true
    (Knet.inject_connect net ~port:80 <> None);
  Alcotest.(check bool) "second fits" true
    (Knet.inject_connect net ~port:80 <> None);
  Alcotest.(check (option int)) "third overflows the backlog" None
    (Knet.inject_connect net ~port:80);
  Alcotest.(check int) "drop counted" 1
    (find_counter (Ksim.Kernel.stats kernel) "net.backlog_drops")

let test_bounded_sendq () =
  let kernel, net = bare ~sndbuf:8 () in
  let s = listener net in
  let _cl = Knet.inject_connect net ~port:80 in
  let conn = Result.get_ok (Knet.accept net ~sock:s) in
  (match send_bytes net ~sock:conn (Bytes.make 16 'x') with
  | Ok 8 -> ()
  | Ok n -> Alcotest.failf "partial send took %d, want 8" n
  | Error e -> Alcotest.failf "send: %s" (Kvfs.Vtypes.errno_to_string e));
  Alcotest.(check (result int errno))
    "full queue would block" (Error Kvfs.Vtypes.ENOBUFS)
    (send_bytes net ~sock:conn (Bytes.of_string "y"));
  Alcotest.(check bool) "sendq_full counted" true
    (find_counter (Ksim.Kernel.stats kernel) "net.sendq_full" >= 1);
  Alcotest.(check (result int errno)) "no space left" (Ok 0)
    (Knet.send_space net ~sock:conn)

(* [send_kernel]'s contract: the fill is offered [min len space] bytes
   and runs before [net_op] is charged; [net_op] is charged once after a
   fill that wrote bytes, never after a 0-byte or failed fill; a full
   queue returns [Ok 0] without calling the fill. *)
let test_send_kernel_fill () =
  let kernel, net = bare ~sndbuf:8 () in
  let s = listener net in
  let _cl = Knet.inject_connect net ~port:80 in
  let conn = Result.get_ok (Knet.accept net ~sock:s) in
  let net_op = (Ksim.Kernel.cost kernel).Ksim.Cost_model.net_op in
  let send ~len result =
    let t0 = Ksim.Kernel.now kernel and offered = ref (-1) in
    let r =
      Knet.send_kernel net ~sock:conn ~len (fun buf pos room ->
          offered := room;
          Alcotest.(check int) "the fill runs before net_op" t0 (Ksim.Kernel.now kernel);
          Result.map (fun n -> Bytes.fill buf pos n 'x'; n) result)
    in
    (r, !offered, Ksim.Kernel.now kernel - t0)
  in
  let check name want got =
    Alcotest.(check (triple (result int errno) int int)) name want got
  in
  check "a 0-byte fill charges nothing" (Ok 0, 5, 0) (send ~len:5 (Ok 0));
  check "a failed fill charges nothing" (Error Kvfs.Vtypes.EIO, 5, 0)
    (send ~len:5 (Error Kvfs.Vtypes.EIO));
  check "a fill that writes charges net_op once" (Ok 6, 8, net_op)
    (send ~len:20 (Ok 6));
  check "the fill is offered the space left" (Ok 2, 2, net_op) (send ~len:4 (Ok 2));
  check "a full queue is not filled" (Ok 0, -1, 0) (send ~len:4 (Ok 1));
  Alcotest.(check int) "sendfile bytes" 8
    (find_counter (Ksim.Kernel.stats kernel) "net.sendfile.bytes")

(* The socket table is indexed by id: ids past its end, closed ids and
   the conns a closing listener still queues all read as absent. *)
let test_socket_table () =
  let _kernel, net = bare () in
  let ebadf = Error Kvfs.Vtypes.EBADF in
  Alcotest.(check (result unit errno)) "bind past the table" ebadf
    (Knet.bind net ~sock:100_000 ~port:81);
  Alcotest.(check (result bytes errno)) "recv past the table" ebadf
    (Knet.recv net ~sock:100_000 ~len:8);
  Alcotest.(check (result bytes errno)) "recv on a negative id" ebadf
    (Knet.recv net ~sock:(-3) ~len:8);
  Alcotest.(check int) "inject past the table" 0
    (Knet.inject_bytes net ~sock:100_000 "x");
  let ep = Knet.epoll_create net in
  Alcotest.(check (result unit errno)) "epoll_ctl on an absent id" ebadf
    (Knet.epoll_ctl net ~ep ~sock:100_000 ~op:(`Add (Knet.ep_in, 0)));
  (* grow the table well past its first 64 slots *)
  let socks = List.init 200 (fun _ -> Knet.socket net) in
  List.iteri
    (fun i id ->
      Alcotest.(check (result unit errno)) "grown slot binds" (Ok ())
        (Knet.bind net ~sock:id ~port:(1000 + i)))
    socks;
  let l = listener ~port:80 ~backlog:4 net in
  let queued =
    List.init 3 (fun _ -> Option.get (Knet.inject_connect net ~port:80))
  in
  let conn = Result.get_ok (Knet.accept net ~sock:l) in
  Alcotest.(check int) "accept pops the oldest" (List.hd queued) conn;
  ignore (Knet.inject_bytes net ~sock:(List.nth queued 1) "queued bytes");
  Knet.close net ~sock:conn;
  Alcotest.(check (result bytes errno)) "recv after close" ebadf
    (Knet.recv net ~sock:conn ~len:8);
  Alcotest.(check (result int errno)) "send after close" ebadf
    (send_bytes net ~sock:conn (Bytes.of_string "x"));
  Knet.close net ~sock:conn;
  Knet.close net ~sock:l;
  List.iter
    (fun id ->
      Alcotest.(check (result bytes errno)) "queued conn closed with it" ebadf
        (Knet.recv net ~sock:id ~len:8))
    (List.tl queued);
  Alcotest.(check (result int errno)) "accept on a closed listener" ebadf
    (Knet.accept net ~sock:l);
  Alcotest.(check (result int errno)) "port no longer listening"
    (Error Kvfs.Vtypes.ECONNREFUSED)
    (Knet.inject_connect_result net ~port:80);
  Alcotest.(check bool) "queued storage back in the pool" true
    (Knet.pool_consistent net);
  let l2 = listener ~port:80 ~backlog:1 net in
  Alcotest.(check bool) "fresh id past the closed ones" true (l2 > l);
  Alcotest.(check bool) "port rebinds" true
    (Knet.inject_connect net ~port:80 <> None);
  Alcotest.(check (result int errno)) "full backlog times out"
    (Error Kvfs.Vtypes.ETIMEDOUT)
    (Knet.inject_connect_result net ~port:80)

(* --- epoll --------------------------------------------------------------- *)

let test_epoll_level_triggered () =
  let _kernel, net = bare () in
  let s = listener net in
  let ep = Knet.epoll_create net in
  (match
     Knet.epoll_ctl net ~ep ~sock:s ~op:(`Add (Knet.ep_in, 1000))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "epoll_ctl: %s" (Kvfs.Vtypes.errno_to_string e));
  let cl = Option.get (Knet.inject_connect net ~port:80) in
  Alcotest.(check (result (list (pair int int)) errno))
    "pending accept is readable"
    (Ok [ (1000, Knet.ep_in) ])
    (Knet.epoll_wait net ~ep ~max:8);
  Alcotest.(check (result (list (pair int int)) errno))
    "level-triggered: still readable until consumed"
    (Ok [ (1000, Knet.ep_in) ])
    (Knet.epoll_wait net ~ep ~max:8);
  let conn = Result.get_ok (Knet.accept net ~sock:s) in
  Alcotest.(check int) "same connection" cl conn;
  Alcotest.(check (result (list (pair int int)) errno))
    "consumed: nothing ready, event queue empty" (Ok [])
    (Knet.epoll_wait net ~ep ~max:8);
  ignore (Knet.inject_bytes net ~sock:conn "r");
  (match
     Knet.epoll_ctl net ~ep ~sock:conn
       ~op:(`Add (Knet.ep_in lor Knet.ep_out, 2000))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "epoll_ctl: %s" (Kvfs.Vtypes.errno_to_string e));
  (match Knet.epoll_wait net ~ep ~max:8 with
  | Ok [ (2000, m) ] ->
      Alcotest.(check bool) "readable" true (m land Knet.ep_in <> 0);
      Alcotest.(check bool) "writable" true (m land Knet.ep_out <> 0)
  | Ok l -> Alcotest.failf "want one ready socket, got %d" (List.length l)
  | Error e -> Alcotest.failf "epoll_wait: %s" (Kvfs.Vtypes.errno_to_string e));
  Knet.inject_fin net ~sock:conn;
  ignore (Result.get_ok (Knet.recv net ~sock:conn ~len:8));
  (match Knet.epoll_wait net ~ep ~max:8 with
  | Ok [ (2000, m) ] ->
      Alcotest.(check bool) "HUP delivered even when unrequested" true
        (m land Knet.ep_hup <> 0)
  | Ok _ | Error _ -> Alcotest.fail "want HUP readiness")

let test_epoll_wait_blocks_until_traffic () =
  let t = Core.boot_with Core.Config.default in
  Kstats.set_enabled (Core.stats t) true;
  let kernel = Core.kernel t in
  let net = Core.net t in
  let s = listener ~port:80 net in
  let ep = Knet.epoll_create net in
  ignore (Knet.epoll_ctl net ~ep ~sock:s ~op:(`Add (Knet.ep_in, 1)));
  Knet.Traffic.install net
    { Knet.Traffic.default with port = 80; conns = 1; requests_per_conn = 1;
      start = 50_000 };
  let before = Ksim.Kernel.now kernel in
  (match Knet.epoll_wait net ~ep ~max:4 with
  | Ok [ (1, _) ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "want the listener ready after blocking");
  Alcotest.(check bool) "clock advanced to the connect event" true
    (Ksim.Kernel.now kernel - before >= 50_000);
  Alcotest.(check bool) "wakeup counted" true
    (find_counter (Core.stats t) "net.epoll.wakeups" >= 1)

(* epoll_wait against a reference model: random connects, accepts,
   bytes, recvs, FINs, (re-)registrations, deletions and closes, and
   after every step the ready list must be the model's ready sockets in
   ascending id order, cut to [max]. *)
type op =
  | Connect
  | Accept
  | Bytes_in of int * int  (* socket pick, length *)
  | Recv of int * int      (* socket pick, length *)
  | Fin of int
  | Add of int * int * int (* socket pick, mask, cookie *)
  | Del of int
  | Close of int

let pp_op = function
  | Connect -> "connect"
  | Accept -> "accept"
  | Bytes_in (p, n) -> Printf.sprintf "bytes(%d,%d)" p n
  | Recv (p, n) -> Printf.sprintf "recv(%d,%d)" p n
  | Fin p -> Printf.sprintf "fin(%d)" p
  | Add (p, m, c) -> Printf.sprintf "add(%d,%d,%d)" p m c
  | Del p -> Printf.sprintf "del(%d)" p
  | Close p -> Printf.sprintf "close(%d)" p

let gen_op =
  QCheck.Gen.(
    let pick = int_bound 63 in
    frequency
      [
        (4, return Connect);
        (3, return Accept);
        (3, map2 (fun p n -> Bytes_in (p, n)) pick (int_range 1 8));
        (3, map2 (fun p n -> Recv (p, n)) pick (int_range 1 8));
        (1, map (fun p -> Fin p) pick);
        (5, map3 (fun p m c -> Add (p, m, c)) pick (int_bound 7) (int_bound 999));
        (2, map (fun p -> Del p) pick);
        (1, map (fun p -> Close p) pick);
      ])

(* The model's view of one socket: the listener or a connection. *)
type msock = {
  ms_id : int;
  ms_listener : bool;
  mutable ms_live : bool;            (* still in the socket table *)
  mutable ms_unread : int;
  mutable ms_fin : bool;
  mutable ms_reg : (int * int) option;  (* mask, cookie *)
}

let qcheck_epoll_order =
  QCheck.Test.make ~name:"epoll_wait = model's ready set, id order, cut to max"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_op))
    (fun ops ->
      let _kernel, net = bare () in
      let lid = listener ~backlog:3 net in
      let ep = Knet.epoll_create net in
      let lsock =
        { ms_id = lid; ms_listener = true; ms_live = true; ms_unread = 0;
          ms_fin = false; ms_reg = None }
      in
      let socks = ref [ lsock ] in          (* creation order *)
      let backlog = Queue.create () in
      let nth p = List.nth !socks (p mod List.length !socks) in
      let ready s =
        if not s.ms_live then 0
        else if s.ms_listener then
          if Queue.is_empty backlog then 0 else Knet.ep_in
        else
          (if s.ms_unread > 0 || s.ms_fin then Knet.ep_in else 0)
          lor (if s.ms_fin then Knet.ep_hup else 0)
          lor Knet.ep_out
      in
      let expected k =
        List.filter_map
          (fun s ->
            match s.ms_reg with
            | Some (mask, cookie) ->
                let r = ready s land (mask lor Knet.ep_hup) in
                if r <> 0 then Some (cookie, r) else None
            | None -> None)
          !socks
        |> List.filteri (fun i _ -> i < k)
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let apply = function
        | Connect -> (
            let full = Queue.length backlog >= 3 in
            match Knet.inject_connect net ~port:80 with
            | Some id when lsock.ms_live && not full ->
                let s =
                  { ms_id = id; ms_listener = false; ms_live = true;
                    ms_unread = 0; ms_fin = false; ms_reg = None }
                in
                socks := !socks @ [ s ];
                Queue.push s backlog
            | None when full || not lsock.ms_live -> ()
            | _ -> fail "connect disagrees with the model")
        | Accept -> (
            match (Knet.accept net ~sock:lid, Queue.take_opt backlog) with
            | Ok id, Some s when s.ms_id = id -> ()
            | Error _, None -> ()
            | _ -> fail "accept disagrees with the model")
        | Bytes_in (p, n) ->
            let s = nth p in
            let got = Knet.inject_bytes net ~sock:s.ms_id (String.make n 'b') in
            let want = if s.ms_live && not s.ms_listener then n else 0 in
            if got <> want then fail "inject_bytes took %d, want %d" got want;
            s.ms_unread <- s.ms_unread + got
        | Recv (p, n) -> (
            let s = nth p in
            match Knet.recv net ~sock:s.ms_id ~len:n with
            | Ok b when s.ms_live && not s.ms_listener ->
                let want = min n s.ms_unread in
                if Bytes.length b <> want || (want = 0 && not s.ms_fin) then
                  fail "recv returned %d bytes, want %d" (Bytes.length b) want;
                s.ms_unread <- s.ms_unread - want
            | Error Kvfs.Vtypes.EAGAIN
              when s.ms_live && (not s.ms_listener) && s.ms_unread = 0
                   && not s.ms_fin ->
                ()
            | Error _ when s.ms_listener || not s.ms_live -> ()
            | _ -> fail "recv disagrees with the model")
        | Fin p ->
            let s = nth p in
            Knet.inject_fin net ~sock:s.ms_id;
            if s.ms_live && not s.ms_listener then s.ms_fin <- true
        | Add (p, mask, cookie) -> (
            let s = nth p in
            match Knet.epoll_ctl net ~ep ~sock:s.ms_id ~op:(`Add (mask, cookie)) with
            | Ok () when s.ms_live -> s.ms_reg <- Some (mask, cookie)
            | Error Kvfs.Vtypes.EBADF when not s.ms_live -> ()
            | _ -> fail "epoll_ctl add disagrees with the model")
        | Del p ->
            let s = nth p in
            ignore (Knet.epoll_ctl net ~ep ~sock:s.ms_id ~op:`Del);
            s.ms_reg <- None
        | Close p ->
            let s = nth p in
            Knet.close net ~sock:s.ms_id;
            s.ms_reg <- None;
            s.ms_live <- false;
            (* queued, never-accepted connections die with the listener;
               a closed connection keeps its backlog slot, as in knet *)
            if s.ms_listener then begin
              Queue.iter (fun q -> q.ms_live <- false) backlog;
              Queue.clear backlog
            end
      in
      List.iter
        (fun op ->
          apply op;
          List.iter
            (fun k ->
              match Knet.epoll_wait net ~ep ~max:k with
              | Ok got when got = expected k -> ()
              | Ok got ->
                  fail "after %s, max %d: got [%s], want [%s]" (pp_op op) k
                    (String.concat ";"
                       (List.map (fun (c, m) -> Printf.sprintf "%d/%d" c m) got))
                    (String.concat ";"
                       (List.map
                          (fun (c, m) -> Printf.sprintf "%d/%d" c m)
                          (expected k)))
              | Error e ->
                  fail "epoll_wait: %s" (Kvfs.Vtypes.errno_to_string e))
            [ 1; 2; 3; 64 ])
        ops;
      true)

(* A ready set far larger than [max] must cost the walk of [max]
   registrations, not a copy of the whole interest set. *)
let test_epoll_wait_cost_is_max_bound () =
  let _kernel, net = bare () in
  let s = listener ~backlog:4 net in
  let ep = Knet.epoll_create net in
  let ids =
    List.init 4_000 (fun _ ->
        ignore (Knet.inject_connect net ~port:80);
        let id = Result.get_ok (Knet.accept net ~sock:s) in
        ignore (Knet.inject_bytes net ~sock:id "x");
        ignore (Knet.epoll_ctl net ~ep ~sock:id ~op:(`Add (Knet.ep_in, id)));
        id)
  in
  let before = Gc.minor_words () in
  let got = Knet.epoll_wait net ~ep ~max:8 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (result (list int) errno))
    "the 8 lowest socket ids"
    (Ok (List.filteri (fun i _ -> i < 8) ids))
    (Result.map (List.map fst) got);
  Alcotest.(check bool)
    (Printf.sprintf "fewer than 2000 minor words (got %.0f)" words)
    true (words < 2_000.)

(* Closed ids cost a scan nothing: behind a long-lived listener, 2,000
   connections open, register and close, and the scan that follows
   reads only the registrations left.  A walk over every id from the
   listener up, as a low-water mark gives, reads about 2,000 slots. *)
let test_epoll_scan_skips_closed () =
  let _kernel, net = bare () in
  let l = listener ~backlog:4 net in
  let ep = Knet.epoll_create net in
  ignore (Knet.epoll_ctl net ~ep ~sock:l ~op:(`Add (Knet.ep_in, l)));
  let conn () =
    ignore (Knet.inject_connect net ~port:80);
    let id = Result.get_ok (Knet.accept net ~sock:l) in
    ignore (Knet.epoll_ctl net ~ep ~sock:id ~op:(`Add (Knet.ep_in, id)));
    id
  in
  for _ = 1 to 2_000 do
    Knet.close net ~sock:(conn ())
  done;
  let live = List.init 3 (fun _ -> conn ()) in
  ignore (Knet.inject_bytes net ~sock:(List.nth live 2) "x");
  Alcotest.(check (result (list int) errno))
    "only the live conn with bytes is ready"
    (Ok [ List.nth live 2 ])
    (Result.map (List.map fst) (Knet.epoll_wait net ~ep ~max:8));
  let registered = 1 + List.length live in
  let slots = Knet.epoll_scan_slots net ~ep in
  Alcotest.(check bool)
    (Printf.sprintf "fewer than %d slots read (got %d)"
       (2 * (registered + 1)) slots)
    true
    (slots < 2 * (registered + 1))

(* --- queue storage ------------------------------------------------------- *)

(* Pooled queue storage against plain strings.  Raw connections on port
   81 take injected bytes, recvs and sends, and get closed (or die with
   their listener), so new connections recycle freed buffers while
   other queues are live.  Traffic clients on port 80 are served by the
   test; every byte recv hands out must continue the model's stream,
   and each client's digest must be the digest of what the server
   sent.  The pool's ownership rule is checked after every step. *)
type sop =
  | S_connect
  | S_accept_raw
  | S_inject of int * int       (* raw pick, length *)
  | S_recv of int * int         (* raw pick, length *)
  | S_send of int * int * bool  (* raw pick, length, via [send_filled] *)
  | S_close of int
  | S_relisten                  (* close the raw listener, open a new one *)
  | S_accept
  | S_serve of int * int * bool (* traffic pick, recv length, [send_filled] *)
  | S_step of int

let pp_sop = function
  | S_connect -> "connect"
  | S_accept_raw -> "accept-raw"
  | S_inject (p, n) -> Printf.sprintf "inject(%d,%d)" p n
  | S_recv (p, n) -> Printf.sprintf "recv(%d,%d)" p n
  | S_send (p, n, k) -> Printf.sprintf "send(%d,%d,%b)" p n k
  | S_close p -> Printf.sprintf "close(%d)" p
  | S_relisten -> "relisten"
  | S_accept -> "accept"
  | S_serve (p, n, k) -> Printf.sprintf "serve(%d,%d,%b)" p n k
  | S_step k -> Printf.sprintf "step(%d)" k

let gen_sop =
  QCheck.Gen.(
    let pick = int_bound 31 in
    frequency
      [
        (3, return S_connect);
        (1, return S_accept_raw);
        (4, map2 (fun p n -> S_inject (p, n)) pick (int_range 1 300));
        (4, map2 (fun p n -> S_recv (p, n)) pick (int_range 1 300));
        (3, map3 (fun p n k -> S_send (p, n, k)) pick (int_range 1 700) bool);
        (2, map (fun p -> S_close p) pick);
        (1, return S_relisten);
        (3, return S_accept);
        (6, map3 (fun p n k -> S_serve (p, n, k)) pick (int_range 1 64) bool);
        (5, map (fun k -> S_step k) (int_range 1 8));
      ])

(* One raw connection's unread bytes; [queued] = still on the listener's
   accept queue, so it dies when the listener closes. *)
type mraw = {
  r_id : int;
  mutable r_unread : string;
  mutable r_live : bool;
  mutable r_queued : bool;
}

(* One accepted Traffic connection, server side. *)
type mserved = {
  v_id : int;
  v_rx : Buffer.t;                   (* every byte recv returned *)
  mutable v_parsed : int;            (* prefix of [v_rx] answered *)
  mutable v_reqs : int;              (* requests answered *)
  mutable v_pending : string;        (* framed responses not yet sent *)
  v_sent : Buffer.t;                 (* bytes the send queue accepted *)
  mutable v_client : int;            (* from the first request; -1 before *)
  mutable v_open : bool;
}

let req_line ~conn ~req = Printf.sprintf "R%d.%d\n" conn req

let response ~conn ~req =
  let n = 40 + ((conn * 7 + req * 13) * 37 mod 600) in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int n);
  Bytes.to_string hdr
  ^ String.init n (fun k -> Char.chr (97 + ((conn + req + k) mod 26)))

(* [data] through [Knet.send_kernel]'s fill: the bytes are written where
   the send queue's tail lies, as sendfile's file read writes them.  The
   fill writes at most 300 bytes, so it sometimes stops short of its
   room, as a read at the end of a file does. *)
let send_filled net ~sock data =
  Knet.send_kernel net ~sock ~len:(Bytes.length data) (fun buf pos n ->
      let n = min n 300 in
      Bytes.blit data 0 buf pos n;
      Ok n)

(* [s] through [Knet.send]'s sub-range: the bytes lie inside a larger
   buffer, between guard bytes, at an offset that varies with their
   length, as a server's pooled response buffer holds them after a
   partial send. *)
let send_range net ~sock s =
  let len = String.length s in
  let off = len mod 11 in
  let data = Bytes.make (off + len + 3) '\xff' in
  Bytes.blit_string s 0 data off len;
  Knet.send net ~sock ~data ~off ~len

let qcheck_pooled_storage =
  let conns = 5 and total = 3 in
  QCheck.Test.make ~name:"pooled queues = string model, ownership rule holds"
    ~count:200
    (QCheck.make
       ~print:(fun (short, ops) ->
         Printf.sprintf "recv_short=%d %s" short
           (String.concat " " (List.map pp_sop ops)))
       QCheck.Gen.(pair (int_bound 3) (list_size (int_range 1 120) gen_sop)))
    (fun (short, ops) ->
      let kernel, net = bare ~rcvbuf:300 ~sndbuf:512 () in
      if short > 0 then
        Kfault.arm (Ksim.Kernel.fault kernel)
          [ { Kfault.site = "net.recv_short"; trigger = Kfault.Every_nth (short + 1) } ];
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let tl = listener ~port:80 ~backlog:16 net in
      let rl = ref (listener ~port:81 ~backlog:6 net) in
      Knet.Traffic.install net
        { Knet.Traffic.default with port = 80; conns; requests_per_conn = total;
          pipeline = 2; spacing = 700; req_of = req_line };
      let raws = ref [||] and served = ref [||] in
      let nth a p = if Array.length !a = 0 then None else Some !a.(p mod Array.length !a) in
      let fill = ref 0 in
      let fresh n =
        String.init n (fun _ -> incr fill; Char.chr (33 + (!fill mod 90)))
      in
      (* One recv and one send on a served connection; [true] if either
         moved a byte (or saw EOF). *)
      let serve v ~len ~kernel_send =
        let moved =
          match Knet.recv net ~sock:v.v_id ~len with
          | Ok b when Bytes.length b = 0 ->
              Knet.close net ~sock:v.v_id;
              v.v_open <- false;
              true
          | Ok b ->
              Buffer.add_bytes v.v_rx b;
              let rx = Buffer.contents v.v_rx in
              let rec answer () =
                match String.index_from_opt rx v.v_parsed '\n' with
                | None -> ()
                | Some nl ->
                    let line = String.sub rx v.v_parsed (nl - v.v_parsed + 1) in
                    if v.v_client < 0 then
                      v.v_client <-
                        (try Scanf.sscanf line "R%d." Fun.id
                         with _ -> fail "garbled request %S" line);
                    let conn = v.v_client and req = v.v_reqs in
                    if line <> req_line ~conn ~req then
                      fail "request %S, want %S" line (req_line ~conn ~req);
                    v.v_parsed <- nl + 1;
                    v.v_reqs <- req + 1;
                    v.v_pending <- v.v_pending ^ response ~conn ~req;
                    answer ()
              in
              answer ();
              true
          | Error Kvfs.Vtypes.EAGAIN -> false
          | Error e -> fail "serve recv: %s" (Kvfs.Vtypes.errno_to_string e)
        in
        if v.v_open && v.v_pending <> "" then begin
          match
            if kernel_send then
              send_filled net ~sock:v.v_id (Bytes.of_string v.v_pending)
            else send_range net ~sock:v.v_id v.v_pending
          with
          | Ok n ->
              Buffer.add_string v.v_sent (String.sub v.v_pending 0 n);
              v.v_pending <-
                String.sub v.v_pending n (String.length v.v_pending - n);
              moved || n > 0
          | Error Kvfs.Vtypes.ENOBUFS -> moved
          | Error e -> fail "serve send: %s" (Kvfs.Vtypes.errno_to_string e)
        end
        else moved
      in
      let accept () =
        match Knet.accept net ~sock:tl with
        | Ok id ->
            served :=
              Array.append !served
                [| { v_id = id; v_rx = Buffer.create 16; v_parsed = 0; v_reqs = 0;
                     v_pending = ""; v_sent = Buffer.create 16; v_client = -1;
                     v_open = true } |];
            true
        | Error _ -> false
      in
      let apply = function
        | S_connect -> (
            match Knet.inject_connect net ~port:81 with
            | Some id ->
                raws :=
                  Array.append !raws
                    [| { r_id = id; r_unread = ""; r_live = true; r_queued = true } |]
            | None -> ())
        | S_accept_raw -> (
            match Knet.accept net ~sock:!rl with
            | Ok id ->
                Array.iter (fun r -> if r.r_id = id then r.r_queued <- false) !raws
            | Error _ -> ())
        | S_inject (p, n) ->
            Option.iter
              (fun r ->
                let s = fresh n in
                let got = Knet.inject_bytes net ~sock:r.r_id s in
                let want =
                  if r.r_live then min n (300 - String.length r.r_unread) else 0
                in
                if got <> want then fail "inject took %d, want %d" got want;
                r.r_unread <- r.r_unread ^ String.sub s 0 got)
              (nth raws p)
        | S_recv (p, n) ->
            Option.iter
              (fun r ->
                match Knet.recv net ~sock:r.r_id ~len:n with
                | Ok b when r.r_live ->
                    let want = min n (String.length r.r_unread) in
                    let got = Bytes.length b in
                    if got = 0 || got > want || (short = 0 && got <> want) then
                      fail "recv returned %d bytes, model holds %d" got want;
                    if Bytes.to_string b <> String.sub r.r_unread 0 got then
                      fail "recv returned bytes the model does not hold";
                    r.r_unread <-
                      String.sub r.r_unread got (String.length r.r_unread - got)
                | Error Kvfs.Vtypes.EAGAIN when r.r_live && r.r_unread = "" -> ()
                | Error Kvfs.Vtypes.EBADF when not r.r_live -> ()
                | _ -> fail "raw recv disagrees with the model")
              (nth raws p)
        | S_send (p, n, kernel_send) ->
            Option.iter
              (fun r ->
                let s = fresh n in
                match
                  if kernel_send then send_filled net ~sock:r.r_id (Bytes.of_string s)
                  else send_range net ~sock:r.r_id s
                with
                | Ok _ | Error Kvfs.Vtypes.ENOBUFS when r.r_live -> ()
                | Error Kvfs.Vtypes.EBADF when not r.r_live -> ()
                | _ -> fail "raw send disagrees with the model")
              (nth raws p)
        | S_close p ->
            Option.iter
              (fun r ->
                Knet.close net ~sock:r.r_id;
                r.r_live <- false)
              (nth raws p)
        | S_relisten ->
            Knet.close net ~sock:!rl;
            Array.iter
              (fun r ->
                if r.r_queued then begin
                  r.r_live <- false;
                  r.r_queued <- false
                end)
              !raws;
            rl := listener ~port:81 ~backlog:6 net
        | S_accept -> ignore (accept ())
        | S_serve (p, len, kernel_send) ->
            Option.iter
              (fun v -> if v.v_open then ignore (serve v ~len ~kernel_send))
              (nth served p)
        | S_step k ->
            for _ = 1 to k do
              ignore (Knet.step net)
            done
      in
      List.iter
        (fun op ->
          apply op;
          if not (Knet.pool_consistent net) then
            fail "after %s: a buffer is both live and free" (pp_sop op))
        ops;
      (* drive every client to completion *)
      let fuel = ref 100_000 in
      let busy () =
        let accepted = ref false in
        while accept () do accepted := true done;
        Array.fold_left
          (fun moved v ->
            (v.v_open && serve v ~len:64 ~kernel_send:false) || moved)
          !accepted !served
      in
      let progress () =
        let moved = busy () in
        Knet.step net || moved
      in
      while !fuel > 0 && progress () do
        decr fuel;
        if not (Knet.pool_consistent net) then fail "a buffer is both live and free"
      done;
      if !fuel = 0 then fail "traffic never drained";
      let digests = Array.make conns "" in
      Array.iter
        (fun v ->
          if v.v_client >= 0 then begin
            let want =
              String.concat ""
                (List.init total (fun req -> req_line ~conn:v.v_client ~req))
            in
            if Buffer.contents v.v_rx <> want then
              fail "client %d: server read %S, want %S" v.v_client
                (Buffer.contents v.v_rx) want;
            digests.(v.v_client) <-
              Digest.to_hex (Digest.string (Buffer.contents v.v_sent))
          end)
        !served;
      let want = Digest.to_hex (Digest.string (String.concat "," (Array.to_list digests))) in
      if Knet.Traffic.completed net ~port:80 <> conns then
        fail "%d of %d clients completed" (Knet.Traffic.completed net ~port:80) conns;
      if Knet.Traffic.digest net ~port:80 <> want then fail "client digests differ";
      true)

(* A client that times out hands its response stream back while its
   connection is still open: every frame after the first response is
   dropped, so the second request runs out of retransmits. *)
let test_timeout_releases_stream () =
  let kernel, net = bare () in
  let s = listener net in
  Knet.Traffic.install net
    { Knet.Traffic.default with port = 80; conns = 1; requests_per_conn = 2;
      pipeline = 1; req_of = req_line };
  let conn = ref None in
  while Knet.Traffic.responses net ~port:80 = 0 && Knet.step net do
    match !conn with
    | None -> conn := Result.to_option (Knet.accept net ~sock:s)
    | Some c -> (
        match Knet.recv net ~sock:c ~len:64 with
        | Ok b when Bytes.length b > 0 ->
            let data = Bytes.of_string (response ~conn:0 ~req:0) in
            ignore (send_bytes net ~sock:c data)
        | Ok _ | Error _ -> ())
  done;
  Alcotest.(check int) "first response delivered" 1
    (Knet.Traffic.responses net ~port:80);
  Kfault.arm (Ksim.Kernel.fault kernel)
    [ { Kfault.site = "net.wire_drop"; trigger = Kfault.Every_nth 1 } ];
  while Knet.step net do () done;
  Alcotest.(check int) "the client timed out" 1
    (find_counter (Ksim.Kernel.stats kernel) "retry.net_timeouts");
  Alcotest.(check bool) "its stream is back on a free list, only there" true
    (Knet.pool_consistent net)

(* A minimal epoll server over [Knet]: accept everything, hand each
   connection's received bytes to [on_data id b], close on EOF. *)
let epoll_loop net ~port ~on_data =
  let l = listener ~port ~backlog:64 net in
  let ep = Knet.epoll_create net in
  ignore (Knet.epoll_ctl net ~ep ~sock:l ~op:(`Add (Knet.ep_in, l)));
  let rec accept_all () =
    match Knet.accept net ~sock:l with
    | Ok id ->
        ignore (Knet.epoll_ctl net ~ep ~sock:id ~op:(`Add (Knet.ep_in, id)));
        accept_all ()
    | Error _ -> ()
  in
  let handle (id, _) =
    if id = l then accept_all ()
    else
      match Knet.recv net ~sock:id ~len:4096 with
      | Ok b when Bytes.length b = 0 -> Knet.close net ~sock:id
      | Ok b -> on_data id b
      | Error _ -> ()
  in
  let rec loop () =
    match Knet.epoll_wait net ~ep ~max:64 with
    | Ok [] -> ()
    | Ok ready ->
        List.iter handle ready;
        loop ()
    | Error e -> Alcotest.failf "epoll_wait: %s" (Kvfs.Vtypes.errno_to_string e)
  in
  loop ()

(* [epoll_loop] answering each newline-terminated request with a canned
   framed response.  Returns the responses sent. *)
let epoll_serve net ~port ~(bodies : Bytes.t array) =
  let sent = ref 0 in
  epoll_loop net ~port ~on_data:(fun id b ->
      Bytes.iter
        (fun ch ->
          if ch = '\n' then begin
            let data = bodies.(!sent mod Array.length bodies) in
            (match send_bytes net ~sock:id data with
            | Ok n when n = Bytes.length data -> ()
            | _ -> Alcotest.fail "response did not fit the send queue");
            incr sent
          end)
        b);
  !sent

(* Eight framed responses of 2-3 KB: an 8-byte little-endian length,
   then the body. *)
let framed_bodies () =
  Array.init 8 (fun i ->
      let n = 2048 + (i * 128) in
      let b = Bytes.make (8 + n) 'x' in
      Bytes.set_int64_le b 0 (Int64.of_int n);
      b)

(* Host words allocated per response by the knet data path, counted by
   [Host_words]: a response body is over 256 words, so its buffers go
   straight to the major heap, where a minor-words count alone cannot
   see them.  Copying each response through growing per-queue buffers
   costs about 2,200 words here; pooled, in-place queues and the flat
   event queue about 340, most of it the pool filling up (the warm test
   below leaves that share out). *)
let test_traffic_alloc_per_response () =
  let _kernel, net = bare () in
  let bodies = framed_bodies () in
  Knet.Traffic.install net
    { Knet.Traffic.default with port = 80; conns = 200; requests_per_conn = 2 };
  let before = Host_words.now () in
  let sent = epoll_serve net ~port:80 ~bodies in
  let per = (Host_words.now () -. before) /. float_of_int sent in
  Alcotest.(check int) "every request answered" 400 sent;
  Alcotest.(check int) "every client completed" 200
    (Knet.Traffic.completed net ~port:80);
  Alcotest.(check bool)
    (Printf.sprintf "under 800 words per response (got %.0f)" per)
    true (per < 800.)

(* Words per response once the pool and the digest memo are warm: the
   same traffic served a second time on the same stack, with request
   lines built before the run as the webserver builds them.  The first
   pass leaves every buffer the second needs on the pool's free stacks
   and every stream in the memo, so this reads the per-request and
   per-response garbage of knet and the server loop ([Printf]'s and the
   pool's shares left out), and every client of the second pass takes
   its digest from the memo.  With a fresh drain event per drain, a
   tx-list copy and two [Queue] cells per request and a hex digest per
   client, it read 99; with a fresh raw digest per client (4 words, 2
   per response), 79.4; reusing the memo's, 77.4; with free stacks in
   place of free lists (no cons cell per buffer handed back), 74.2. *)
let test_warm_alloc_per_response () =
  let _kernel, net = bare () in
  let bodies = framed_bodies () in
  let lines = Array.init 8 (fun i -> Printf.sprintf "GET %d\n" i) in
  let serve port =
    Knet.Traffic.install net
      { Knet.Traffic.default with
        port; conns = 200; requests_per_conn = 2;
        req_of = (fun ~conn ~req -> lines.((conn + req) land 7)) };
    epoll_serve net ~port ~bodies
  in
  ignore (serve 80);
  let hits = Knet.memo_hits net in
  let before = Host_words.now () in
  let sent = serve 81 in
  let per = (Host_words.now () -. before) /. float_of_int sent in
  Alcotest.(check int) "every client completed" 200
    (Knet.Traffic.completed net ~port:81);
  Alcotest.(check int) "every client hit the memo" 200
    (Knet.memo_hits net - hits);
  Alcotest.(check bool)
    (Printf.sprintf "under 75 words per response (got %.1f)" per)
    true (per < 75.)

(* The same warm measurement for the ring server the c10k_ring_opt
   benchmark runs: kopt on, recvs and sends batched through a kring,
   bodies by sendfile.  A first run on the system warms the pool, the
   memo and kopt's plan cache; the second run's words per response
   include its listener, epoll set and ring (a 64 KB shared region,
   about 20 words per response here).  Sendfile through a fresh read
   buffer and a staging copy, a fresh wire buffer per SQ entry and a
   second decode of every admitted entry read 820.2; filling the send
   queue in place, encoding in place and decoding once, 450.7. *)
let test_ring_alloc_per_response () =
  let module Web = Workloads.Webserver in
  let t = Core.boot_with { Core.Config.default with optimize = true } in
  let sys = Core.sys t in
  let config port =
    { Web.net_default_config with
      variant = Web.Net_ring; conns = 200; port;
      make_ring = Some (fun _ -> Core.ring t) }
  in
  Web.net_setup ~config:(config 80) sys;
  ignore (Web.run_net ~config:(config 80) sys);
  let before = Host_words.now () in
  let r = Web.run_net ~config:(config 81) sys in
  let per = (Host_words.now () -. before) /. float_of_int r.Web.n_served in
  Alcotest.(check int) "every client completed" 200 r.Web.n_completed;
  Alcotest.(check bool)
    (Printf.sprintf "under 600 words per response (got %.1f)" per)
    true (per < 600.)

(* The same warm measurement for the naive server the c10k_naive
   benchmark runs: open, a plain read, close and a plain send per
   response, on kopt-off defaults.  Reading each body into a fresh
   buffer, framing it with [Bytes.cat] and re-copying the tail of a
   partial send read 753.0; reading into a pooled response buffer
   behind its header and sending from a moving offset, 273.4. *)
let test_naive_alloc_per_response () =
  let module Web = Workloads.Webserver in
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let config port =
    { Web.net_default_config with variant = Web.Net_naive; conns = 200; port }
  in
  Web.net_setup ~config:(config 80) sys;
  ignore (Web.run_net ~config:(config 80) sys);
  let before = Host_words.now () in
  let r = Web.run_net ~config:(config 81) sys in
  let per = (Host_words.now () -. before) /. float_of_int r.Web.n_served in
  Alcotest.(check int) "every client completed" 200 r.Web.n_completed;
  Alcotest.(check bool)
    (Printf.sprintf "under 350 words per response (got %.1f)" per)
    true (per < 350.)

(* Two pipelined documents of 14-22 kB overflow a 32 kB send queue, so
   the naive server's second response often leaves in several sends,
   each resuming its pooled buffer where the last one stopped: the
   clients receive the same bytes as from the sendfile server, which
   resumes by file offset.  Every document fits an empty queue, so a
   server that resent from the wrong place would still finish, with a
   different digest. *)
let test_naive_partial_sends () =
  let module Web = Workloads.Webserver in
  let run variant =
    let t = Core.boot_with Core.Config.default in
    Kstats.set_enabled (Core.stats t) true;
    let config =
      { Web.net_default_config with
        variant; conns = 20;
        docs =
          { Web.net_default_config.Web.docs with
            Web.documents = 6; doc_size = 14_000; doc_size_spread = 8_000 } }
    in
    Web.net_setup ~config (Core.sys t);
    let r = Web.run_net ~config (Core.sys t) in
    (r, find_counter (Core.stats t) "net.sendq_full")
  in
  let naive, partial = run Web.Net_naive and sendfile, _ = run Web.Net_sendfile in
  Alcotest.(check bool) "some sends were partial" true (partial > 0);
  Alcotest.(check int) "every client completed" 20 naive.Web.n_completed;
  Alcotest.(check string) "the same bytes on the wire" sendfile.Web.n_digest
    naive.Web.n_digest

(* --- the stream digest memo ----------------------------------------------- *)

(* An 8-byte little-endian length, then the body. *)
let frame body =
  let h = Bytes.create 8 in
  Bytes.set_int64_le h 0 (Int64.of_int (String.length body));
  Bytes.to_string h ^ body

(* The digest [Traffic.digest] must report for these client streams,
   computed without knet: MD5 per stream, then MD5 over the hex list. *)
let expected_digest streams =
  Array.to_list streams
  |> List.map (fun s -> Digest.to_hex (Digest.string s))
  |> String.concat "," |> Digest.string |> Digest.to_hex

(* [epoll_loop] for [Traffic] clients whose requests are [req_line]s:
   request [req] of client [conn] gets the sends [sends.(conn).(req)],
   with [gaps conn] event steps after each send but the last, so drains
   cut the client's stream where the sends do. *)
let frame_serve net ~port ~(sends : string list array array) ~gaps =
  let partial = Hashtbl.create 64 in
  let send id s =
    match send_bytes net ~sock:id (Bytes.of_string s) with
    | Ok n when n = String.length s -> ()
    | _ -> Alcotest.fail "response did not fit the send queue"
  in
  let answer id line =
    Scanf.sscanf line "R%d.%d" (fun conn req ->
        List.iteri
          (fun i s ->
            if i > 0 then
              for _ = 1 to gaps conn do
                ignore (Knet.step net)
              done;
            send id s)
          sends.(conn).(req))
  in
  let rec feed id = function
    | [ rest ] -> Hashtbl.replace partial id rest
    | line :: more ->
        answer id line;
        feed id more
    | [] -> ()
  in
  epoll_loop net ~port ~on_data:(fun id b ->
      let before = Option.value ~default:"" (Hashtbl.find_opt partial id) in
      feed id (String.split_on_char '\n' (before ^ Bytes.to_string b)))

(* [s.[start .. stop - 1]] in [c]-byte sends, but bytes from [fin] on
   ride the send before them. *)
let rec cut c s start fin stop =
  if fin - start <= c then [ String.sub s start (stop - start) ]
  else String.sub s start c :: cut c s (start + c) fin stop

(* Serve [streams.(conn)] to [Traffic] clients on [port], one frame per
   request: the frames end at [ends conn], and bytes past the last end
   ride the final frame's last send, so they reach the client with it.
   Each frame goes out in [chunk conn]-byte sends; every client must
   complete. *)
let serve_streams net ~port ~(streams : string array) ~ends ~pipeline ~chunk
    ~gaps =
  let sends =
    Array.mapi
      (fun conn s ->
        let ends = Array.of_list (ends conn) in
        let last = Array.length ends - 1 in
        Array.mapi
          (fun req fin ->
            let start = if req = 0 then 0 else ends.(req - 1) in
            let stop = if req = last then String.length s else fin in
            cut (chunk conn) s start fin stop)
          ends)
      streams
  in
  let conns = Array.length streams in
  Knet.Traffic.install net
    { Knet.Traffic.default with
      port; conns; requests_per_conn = Array.length sends.(0); pipeline;
      req_of = req_line };
  frame_serve net ~port ~sends ~gaps;
  Alcotest.(check int) "every client completed" conns
    (Knet.Traffic.completed net ~port)

type flip = No_flip | First_body | Last | Tail_word

(* One client of the memo qcheck: its two bodies, flip, bytes after the
   final frame, send size and event steps between sends. *)
type mclient = {
  b0 : int;
  b1 : int;
  flip : flip;
  trail : int;
  chunk : int;
  gaps : int;
}

let pp_mclient c =
  Printf.sprintf "%d%d%s+%d/%d.%d" c.b0 c.b1
    (match c.flip with
    | No_flip -> "-"
    | First_body -> "first"
    | Last -> "last"
    | Tail_word -> "tail")
    c.trail c.chunk c.gaps

(* Three bodies whose frames end off a word boundary. *)
let memo_bodies =
  [| String.make 21 'a'; String.init 37 (fun k -> Char.chr (65 + (k mod 26)));
     String.init 50 (fun k -> Char.chr (48 + (k mod 10))) |]

(* A client's stream: two framed bodies from [memo_bodies], [trail]
   bytes after the final frame, and at most one byte flipped: the first
   body byte, the last byte, or one inside the stream's last partial
   word (the last byte when there is none).  Returns the stream and
   where its frames end. *)
let client_stream c =
  let f0 = frame memo_bodies.(c.b0) in
  let s = Bytes.of_string (f0 ^ frame memo_bodies.(c.b1) ^ String.make c.trail 'z') in
  let n = Bytes.length s in
  let flip_at p = Bytes.set s p (Char.chr (Char.code (Bytes.get s p) lxor 0x40)) in
  (match c.flip with
  | No_flip -> ()
  | First_body -> flip_at 8
  | Last -> flip_at (n - 1)
  | Tail_word -> flip_at (n - 1 - ((n land 7) / 2)));
  (Bytes.to_string s, [ String.length f0; n - c.trail ])

(* Clients served from a small body set, some with one byte flipped,
   some with bytes after their final frame, sends cut into random chunks
   with event steps between them: [Traffic.digest] equals MD5 of what
   each client received, and a client hits the memo only for a stream
   an earlier client received byte for byte.  Flips at the first body
   byte, the last byte and inside the last partial word catch a compare
   that stops at the first word or skips the sub-word tail. *)
let qcheck_memo_exact =
  let gen_client =
    QCheck.Gen.(
      map
        (fun ((b0, b1, flip), (trail, chunk, gaps)) ->
          { b0; b1; flip; trail; chunk; gaps })
        (pair
           (triple (int_bound 2) (int_bound 2)
              (frequency
                 [ (5, return No_flip); (1, return First_body); (1, return Last);
                   (1, return Tail_word) ]))
           (triple
              (frequency [ (3, return 0); (1, int_range 1 11) ])
              (int_range 1 64) (int_bound 2))))
  in
  QCheck.Test.make ~name:"client digests = MD5 of received bytes, memo or not"
    ~count:150
    (QCheck.make
       ~print:(fun (pipeline, cls) ->
         Printf.sprintf "pipeline=%d %s" pipeline
           (String.concat " " (List.map pp_mclient cls)))
       QCheck.Gen.(pair (int_range 1 2) (list_size (int_range 1 40) gen_client)))
    (fun (pipeline, cls) ->
      let cls = Array.of_list cls in
      let _kernel, net = bare () in
      let built = Array.map client_stream cls in
      let streams = Array.map fst built in
      serve_streams net ~port:80 ~streams
        ~ends:(fun conn -> snd built.(conn))
        ~pipeline
        ~chunk:(fun conn -> cls.(conn).chunk)
        ~gaps:(fun conn -> cls.(conn).gaps);
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if Knet.Traffic.digest net ~port:80 <> expected_digest streams then
        fail "client digests differ from MD5 of the streams";
      let distinct = List.sort_uniq compare (Array.to_list streams) in
      let repeats = Array.length streams - List.length distinct in
      let same_len d =
        List.length
          (List.filter (fun e -> String.length e = String.length d) distinct)
      in
      let hits = Knet.memo_hits net in
      (* a memo that can hold every distinct stream hits every repeat *)
      if List.for_all (fun d -> same_len d <= 8) distinct && hits <> repeats
      then fail "%d memo hits, %d repeated streams" hits repeats;
      if hits > repeats then
        fail "%d memo hits, only %d repeated streams" hits repeats;
      true)

(* Serve [streams], one frame each, and check the digest. *)
let serve_frames net ~port streams =
  serve_streams net ~port ~streams
    ~ends:(fun conn -> [ String.length streams.(conn) ])
    ~pipeline:1 ~chunk:(fun _ -> 8192) ~gaps:(fun _ -> 0);
  Alcotest.(check string) "digest = MD5 of the streams"
    (expected_digest streams) (Knet.Traffic.digest net ~port)

(* Streams that are all different, together past the memo's cap: the
   memo fills up to its cap and stops, every digest stays exact, and
   a second pass of the same streams hits exactly the ones it kept. *)
let test_memo_cap () =
  let _kernel, net = bare () in
  let streams =
    Array.init 300 (fun conn ->
        frame
          (String.init (3_500 + conn) (fun k ->
               Char.chr (97 + ((conn + k) mod 26)))))
  in
  serve_frames net ~port:80 streams;
  let full = Knet.memo_bytes net in
  Alcotest.(check int) "no stream repeated, no hit" 0 (Knet.memo_hits net);
  Alcotest.(check bool)
    (Printf.sprintf "at most memo_cap bytes held (%d)" full)
    true (full <= Knet.memo_cap);
  Alcotest.(check bool) "filled to within one stream of the cap" true
    (full > Knet.memo_cap - 4_000);
  serve_frames net ~port:81 streams;
  Alcotest.(check int) "nothing added past the cap" full (Knet.memo_bytes net);
  (* the streams are 3,508..3,807 bytes long *)
  let hits = Knet.memo_hits net in
  Alcotest.(check bool)
    (Printf.sprintf "the second pass hits each kept stream (%d hits)" hits)
    true
    (hits > 0 && hits * 3_508 <= full && full <= hits * 3_807)

(* Distinct streams of one length: the memo keeps eight of them, so a
   lookup compares with at most eight, and every digest stays exact. *)
let test_memo_per_length () =
  let _kernel, net = bare () in
  let streams = Array.init 40 (fun conn -> frame (Printf.sprintf "%0100d" conn)) in
  serve_frames net ~port:80 streams;
  Alcotest.(check int) "eight streams of 108 bytes kept" (8 * 108)
    (Knet.memo_bytes net);
  serve_frames net ~port:81 streams;
  Alcotest.(check int) "the second pass hits those eight" 8
    (Knet.memo_hits net)

(* Each stack owns its memo: a second kernel starts empty, serves the
   same streams with the same hits, and hashes its own first copies. *)
let test_memo_per_kernel () =
  let streams =
    Array.init 30 (fun conn -> frame memo_bodies.(conn mod 3) ^ frame memo_bodies.(conn mod 2))
  in
  let run net =
    serve_streams net ~port:80 ~streams
      ~ends:(fun conn -> [ 8 + String.length memo_bodies.(conn mod 3);
                           String.length streams.(conn) ])
      ~pipeline:2 ~chunk:(fun _ -> 4096) ~gaps:(fun _ -> 0);
    Knet.Traffic.digest net ~port:80
  in
  let _, a = bare () and _, b = bare () in
  let da = run a in
  Alcotest.(check int) "repeats hit" (30 - 6) (Knet.memo_hits a);
  Alcotest.(check int) "a fresh stack's memo is empty" 0 (Knet.memo_bytes b);
  let db = run b in
  Alcotest.(check string) "same digest" da db;
  Alcotest.(check int) "the second stack hits only its own entries"
    (Knet.memo_hits a) (Knet.memo_hits b);
  Alcotest.(check int) "and holds its own copies" (Knet.memo_bytes a)
    (Knet.memo_bytes b)

(* --- the event queue ----------------------------------------------------- *)

(* The event queue against a model: interleaved pushes (dues drawn from
   a small range, so they collide, in no particular order) and pops.
   Three pushes to each pop over 150..400 ops leave about 75..200
   entries pending, so lanes open and grow past their first slots.
   Every pop must return the pending entry a stable sort by (due, seq)
   puts first, and no popped event may stay reachable from the queue's
   arrays. *)
type hop = H_push of int | H_pop

let qcheck_heap_model =
  QCheck.Test.make ~name:"event heap = stable sort by (due, seq)" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function H_push d -> Printf.sprintf "+%d" d | H_pop -> "-")
              ops))
       QCheck.Gen.(
         list_size (int_range 150 400)
           (frequency
              [ (3, map (fun d -> H_push d) (int_bound 7)); (1, return H_pop) ])))
    (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let h = Knet.Lanes.create (ref (-1)) in
      (* pending entries in push order: (due, seq, event) *)
      let model = ref [] and seq = ref 0 in
      let pop () =
        let sorted =
          List.stable_sort (fun (d1, _, _) (d2, _, _) -> compare d1 d2) !model
        in
        match sorted with
        | [] -> ()
        | (due, s, want) :: _ ->
            if Knet.Lanes.top_due h <> due then
              fail "top due %d, model %d" (Knet.Lanes.top_due h) due;
            let got = Knet.Lanes.pop h in
            if got != want then fail "popped seq %d, model seq %d" !got s;
            if Knet.Lanes.holds h got then fail "popped seq %d still reachable" s;
            model := List.filter (fun (_, s', _) -> s' <> s) !model
      in
      List.iter
        (function
          | H_push due ->
              incr seq;
              let ev = ref !seq in
              Knet.Lanes.push h due !seq ev;
              model := !model @ [ (due, !seq, ev) ]
          | H_pop -> pop ())
        ops;
      while !model <> [] do
        pop ()
      done;
      if not (Knet.Lanes.is_empty h) then fail "queue not empty after draining";
      Knet.Lanes.length h = 0)

(* Lanes order by the whole key, not by due and then lane: the seqs
   here are a shuffle, so equal dues arrive out of seq order and land in
   different lanes.  (knet's own seqs rise with every push, and then
   equal dues happen to sit in lane order too.)  Every pop must return
   the least pending (due, seq). *)
let qcheck_lanes_any_seq =
  QCheck.Test.make ~name:"event lanes = sort by (due, seq), seqs in any order"
    ~count:300
    (QCheck.make
       ~print:(fun keys ->
         String.concat " "
           (List.map
              (function
                | Some (d, s) -> Printf.sprintf "+%d/%d" d s | None -> "-")
              keys))
       QCheck.Gen.(
         int_range 20 120 >>= fun n ->
         shuffle_l (List.init n Fun.id) >>= fun seqs ->
         flatten_l
           (List.map
              (fun s ->
                map2
                  (fun d pop -> if pop then [ Some (d, s); None ] else [ Some (d, s) ])
                  (int_bound 3) (int_bound 2 >|= ( = ) 0))
              seqs)
         >|= List.concat))
    (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let q = Knet.Lanes.create (-1) in
      let pending = ref [] in
      let pop () =
        match List.sort compare !pending with
        | [] -> ()
        | ((d, s) as least) :: _ ->
            if Knet.Lanes.top_due q <> d then
              fail "top due %d, want %d" (Knet.Lanes.top_due q) d;
            let got = Knet.Lanes.pop q in
            if got <> s then fail "popped seq %d, want %d/%d" got d s;
            pending := List.filter (( <> ) least) !pending
      in
      List.iter
        (function
          | Some (d, s) ->
              Knet.Lanes.push q d s s;
              pending := (d, s) :: !pending
          | None -> pop ())
        ops;
      while !pending <> [] do
        pop ()
      done;
      Knet.Lanes.is_empty q)

(* The event queue as knet drives it: a monotone clock, each push at
   [now + d].  Steps push with a delay from a small set, push an
   install-style run (increasing dues, all at once), push a decreasing
   run (one key below the last, so every push opens a lane), pop, or
   let the clock jump.  A pop moves the clock to the popped due, as
   knet's I/O wait does.  Checked against a stable sort by (due, seq):
   [top_due] before every pop, each popped event, that no popped event
   stays reachable, and that no more lanes open than the longest
   decreasing run of pushed keys (what patience sorting guarantees). *)
type mop =
  | M_push of int          (* delay index *)
  | M_install of int * int (* arrivals, spacing *)
  | M_falling of int       (* arrivals in decreasing due order *)
  | M_pop
  | M_jump of int

let pp_mop = function
  | M_push d -> Printf.sprintf "+%d" d
  | M_install (n, s) -> Printf.sprintf "i%dx%d" n s
  | M_falling n -> Printf.sprintf "f%d" n
  | M_pop -> "-"
  | M_jump k -> Printf.sprintf "j%d" k

let delays = [| 0; 5; 20; 21; 80; 160; 320 |]

(* The length of the longest strictly decreasing subsequence of the
   (due, seq) keys [keys], in push order: [ends.(k)] is the greatest
   last key of a decreasing subsequence of length [k + 1], so [ends]
   decreases and each key replaces the first end not above it. *)
let longest_falling keys =
  let ends = Array.make (List.length keys) (0, 0) and n = ref 0 in
  let above (d1, s1) (d2, s2) = d1 > d2 || (d1 = d2 && s1 > s2) in
  List.iter
    (fun key ->
      let lo = ref 0 and hi = ref !n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if above ends.(mid) key then lo := mid + 1 else hi := mid
      done;
      ends.(!lo) <- key;
      if !lo = !n then incr n)
    keys;
  !n

let qcheck_lanes_monotone =
  QCheck.Test.make ~name:"event lanes under a monotone clock = sorted model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_mop ops))
       QCheck.Gen.(
         list_size (int_range 100 250)
           (frequency
              [
                (8, map (fun d -> M_push d) (int_bound (Array.length delays - 1)));
                (1, map2 (fun n s -> M_install (n, s)) (int_range 1 20) (int_bound 9));
                (1, map (fun n -> M_falling n) (int_range 1 6));
                (6, return M_pop);
                (1, map (fun k -> M_jump k) (int_bound 50));
              ])))
    (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let q = Knet.Lanes.create (ref (-1)) in
      let now = ref 0 and seq = ref 0 in
      (* pending entries, kept stably sorted by due *)
      let model = ref [] and keys = ref [] in
      let push due =
        incr seq;
        let ev = ref !seq in
        Knet.Lanes.push q due !seq ev;
        let rec insert = function
          | ((d, _, _) as x) :: rest when d <= due -> x :: insert rest
          | rest -> (due, !seq, ev) :: rest
        in
        model := insert !model;
        keys := (due, !seq) :: !keys
      in
      let pop () =
        match !model with
        | [] -> ()
        | (due, s, want) :: rest ->
            if Knet.Lanes.top_due q <> due then
              fail "top due %d, model %d" (Knet.Lanes.top_due q) due;
            let got = Knet.Lanes.pop q in
            if got != want then fail "popped seq %d, model seq %d" !got s;
            if Knet.Lanes.holds q got then fail "popped seq %d still reachable" s;
            model := rest;
            now := max !now due
      in
      List.iter
        (function
          | M_push d -> push (!now + delays.(d))
          | M_install (n, spacing) ->
              for i = 0 to n - 1 do
                push (!now + 100 + (i * spacing))
              done
          | M_falling n ->
              for i = 0 to n - 1 do
                push (!now + 400 - (i * 7))
              done
          | M_pop -> pop ()
          | M_jump k -> now := !now + k)
        ops;
      while !model <> [] do
        pop ()
      done;
      if not (Knet.Lanes.is_empty q) then fail "queue not empty after draining";
      let bound = longest_falling (List.rev !keys) in
      if Knet.Lanes.width q > bound then
        fail "%d lanes opened, longest falling run %d" (Knet.Lanes.width q) bound;
      Knet.Lanes.length q = 0)

(* A 2,000-connection flash crowd on the naive epoll server, with its
   backlog drops, backoff redials, pipelined requests, think time and
   drains, keeps its event queue to a few lanes: the push delays are
   few, and so are the lanes. *)
let test_flash_crowd_lanes () =
  let t = Core.boot_with Core.Config.default in
  Kstats.set_enabled (Core.stats t) true;
  let sys = Core.sys t in
  let config =
    { Workloads.Webserver.net_default_config with
      variant = Workloads.Webserver.Net_naive; conns = 2_000; spacing = 50 }
  in
  Workloads.Webserver.net_setup ~config sys;
  let r = Workloads.Webserver.run_net ~config sys in
  let net = Core.net t in
  Alcotest.(check int) "every connection served" 2_000
    r.Workloads.Webserver.n_completed;
  Alcotest.(check bool) "the backlog overflowed" true
    (find_counter (Core.stats t) "retry.net_redials" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at most 8 lanes open (got %d)" (Knet.event_lanes net))
    true
    (Knet.event_lanes net <= 8)

(* Host words per processed event on the redial path: a flash crowd of
   clients dials a listener whose backlog of 4 is never accepted, so
   after the first few connects every event is a dropped SYN and a
   backoff redial.  Boxing each queue entry, each connect result and
   each optional argument cost 20 words per event; flat lanes and
   prebuilt events cost none, and even one fresh 2-word event per redial
   fails. *)
let test_redial_alloc_per_event () =
  let _kernel, net = bare () in
  let _l = listener ~port:80 ~backlog:4 net in
  Knet.Traffic.install net
    { Knet.Traffic.default with
      port = 80; conns = 500; requests_per_conn = 1; start = 0; spacing = 0 };
  for _ = 1 to 5_000 do
    ignore (Knet.step net)
  done;
  let events = 20_000 in
  let before = Host_words.now () in
  for _ = 1 to events do
    ignore (Knet.step net)
  done;
  let per = (Host_words.now () -. before) /. float_of_int events in
  Alcotest.(check bool) "still redialling" true (Knet.pending_events net >= 496);
  Alcotest.(check bool)
    (Printf.sprintf "under 1 word per redial event (got %.1f)" per)
    true (per < 1.)

(* --- the syscall boundary ------------------------------------------------ *)

(* Kproc.find_fd maps a socket fd to handle_base + id; recover the raw
   id for NIC-side injection the way the service routines do. *)
let sock_id sys fd =
  let h =
    Ksim.Kproc.find_fd (Ksim.Kernel.current (Ksyscall.Systable.kernel sys)) fd
  in
  if h >= Knet.handle_base then h - Knet.handle_base
  else Alcotest.fail "fd is not a socket"

let test_syscall_fd_mapping () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let net = Core.net t in
  let s = Core.Syscall.sys_socket sys in
  Alcotest.(check (result unit errno)) "bind via syscall" (Ok ())
    (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  Alcotest.(check (result unit errno)) "listen via syscall" (Ok ())
    (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  (* a VFS fd is not a socket, and a socket is not a VFS fd *)
  let file =
    Core.ok (Core.Syscall.sys_open sys ~path:"/f" ~flags:Core.o_create)
  in
  Alcotest.(check (result bytes errno))
    "recv on a file" (Error Kvfs.Vtypes.ENOTSOCK)
    (Core.Syscall.sys_recv sys ~sock:file ~len:8);
  Alcotest.(check (result bytes errno))
    "read on a socket" (Error Kvfs.Vtypes.EBADF)
    (Core.Syscall.sys_read sys ~fd:s ~len:8);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  ignore (Knet.inject_bytes net ~sock:(sock_id sys conn) "ping");
  Alcotest.(check (result bytes errno))
    "recv via syscall"
    (Ok (Bytes.of_string "ping"))
    (Core.Syscall.sys_recv sys ~sock:conn ~len:64)

let test_close_releases_socket () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let net = Core.net t in
  let s = Core.Syscall.sys_socket sys in
  ignore (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  ignore (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  Alcotest.(check (result unit errno)) "close the connection" (Ok ())
    (Core.Syscall.sys_close sys ~fd:conn);
  Alcotest.(check (result bytes errno))
    "closed fd is gone" (Error Kvfs.Vtypes.EBADF)
    (Core.Syscall.sys_recv sys ~sock:conn ~len:8);
  Alcotest.(check (result unit errno)) "close the listener" (Ok ())
    (Core.Syscall.sys_close sys ~fd:s);
  Alcotest.(check (option int)) "port released: connects are refused" None
    (Knet.inject_connect net ~port:80)

let test_sendfile_sock_zero_copy () =
  let t = Core.boot_with Core.Config.default in
  Kstats.set_enabled (Core.stats t) true;
  let sys = Core.sys t in
  let net = Core.net t in
  let kernel = Core.kernel t in
  let body = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
  ignore
    (Core.ok
       (Core.Syscall.sys_open_write_close sys ~path:"/doc" ~data:body
          ~flags:Core.o_create));
  let s = Core.Syscall.sys_socket sys in
  ignore (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  ignore (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/doc" ~flags:Core.o_rdonly) in
  let tu0 = Ksim.Kernel.bytes_to_user kernel in
  let fu0 = Ksim.Kernel.bytes_from_user kernel in
  Alcotest.(check (result int errno))
    "sendfile queues the whole document" (Ok 1000)
    (Core.Syscall.sys_sendfile_sock sys ~sock:conn ~fd ~off:0 ~len:2000);
  Alcotest.(check int) "no payload bytes copied to user space" 0
    (Ksim.Kernel.bytes_to_user kernel - tu0);
  Alcotest.(check int) "no payload bytes copied from user space" 0
    (Ksim.Kernel.bytes_from_user kernel - fu0);
  Alcotest.(check int) "counted as sendfile bytes" 1000
    (find_counter (Core.stats t) "net.sendfile.bytes");
  (* the payload really is queued: exactly 1000 bytes of send space gone *)
  Alcotest.(check (result int errno)) "payload occupies the send queue"
    (Ok 31768)
    (Knet.send_space net ~sock:(sock_id sys conn))

(* --- determinism --------------------------------------------------------- *)

let serve_once variant =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let kernel = Core.kernel t in
  let config =
    { Workloads.Webserver.net_default_config with variant; conns = 25 }
  in
  Workloads.Webserver.net_setup ~config sys;
  let r = Workloads.Webserver.run_net ~config sys in
  ( r.Workloads.Webserver.n_digest,
    r.Workloads.Webserver.n_completed,
    Ksim.Kernel.now kernel,
    Ksim.Kernel.crossings kernel )

let test_deterministic_replay () =
  List.iter
    (fun variant ->
      let d1, c1, now1, x1 = serve_once variant in
      let d2, c2, now2, x2 = serve_once variant in
      Alcotest.(check int) "all connections served" 25 c1;
      Alcotest.(check string) "same digest" d1 d2;
      Alcotest.(check int) "same completions" c1 c2;
      Alcotest.(check int) "same final clock" now1 now2;
      Alcotest.(check int) "same crossings" x1 x2)
    [ Workloads.Webserver.Net_naive; Workloads.Webserver.Net_ring ]

let () =
  Alcotest.run "knet"
    [
      ( "sockets",
        [
          Alcotest.test_case "accept/recv/send/fin" `Quick test_accept_recv_send;
          Alcotest.test_case "bind errors" `Quick test_bind_errors;
          Alcotest.test_case "backlog drops" `Quick test_backlog_drops;
          Alcotest.test_case "bounded send queue" `Quick test_bounded_sendq;
          Alcotest.test_case "kernel send fills, then charges" `Quick
            test_send_kernel_fill;
          Alcotest.test_case "id-indexed socket table" `Quick test_socket_table;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "level-triggered readiness" `Quick
            test_epoll_level_triggered;
          Alcotest.test_case "blocking wait rides the event heap" `Quick
            test_epoll_wait_blocks_until_traffic;
          QCheck_alcotest.to_alcotest qcheck_epoll_order;
          Alcotest.test_case "wait cost is bounded by max" `Quick
            test_epoll_wait_cost_is_max_bound;
          Alcotest.test_case "scan skips closed ids" `Quick
            test_epoll_scan_skips_closed;
        ] );
      ( "storage",
        [
          QCheck_alcotest.to_alcotest qcheck_pooled_storage;
          Alcotest.test_case "a timed-out client releases its stream" `Quick
            test_timeout_releases_stream;
          Alcotest.test_case "traffic allocation per response" `Quick
            test_traffic_alloc_per_response;
          Alcotest.test_case "warm allocation per response" `Quick
            test_warm_alloc_per_response;
          Alcotest.test_case "ring allocation per response" `Quick
            test_ring_alloc_per_response;
          Alcotest.test_case "naive allocation per response" `Quick
            test_naive_alloc_per_response;
          Alcotest.test_case "naive partial sends resume in place" `Quick
            test_naive_partial_sends;
        ] );
      ( "digest memo",
        [
          QCheck_alcotest.to_alcotest qcheck_memo_exact;
          Alcotest.test_case "the memo stops at its cap" `Quick test_memo_cap;
          Alcotest.test_case "eight streams per length" `Quick
            test_memo_per_length;
          Alcotest.test_case "each stack owns its memo" `Quick
            test_memo_per_kernel;
        ] );
      ( "events",
        [
          QCheck_alcotest.to_alcotest qcheck_heap_model;
          QCheck_alcotest.to_alcotest qcheck_lanes_any_seq;
          QCheck_alcotest.to_alcotest qcheck_lanes_monotone;
          Alcotest.test_case "a flash crowd opens few lanes" `Quick
            test_flash_crowd_lanes;
          Alcotest.test_case "redial allocation per event" `Quick
            test_redial_alloc_per_event;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "fd mapping and type errors" `Quick
            test_syscall_fd_mapping;
          Alcotest.test_case "close releases sockets and ports" `Quick
            test_close_releases_socket;
          Alcotest.test_case "sendfile-to-socket is zero-copy" `Quick
            test_sendfile_sock_zero_copy;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs replay bit-for-bit" `Quick
            test_deterministic_replay;
        ] );
    ]
