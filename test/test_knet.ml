(* knet: the simulated socket layer — listening sockets and backlogs,
   bounded per-connection buffers, level-triggered epoll readiness,
   blocking waits that ride the traffic-generator event heap, and the
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
  (match Knet.send net ~sock:conn ~data:(Bytes.of_string "world") with
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
  (match Knet.send net ~sock:conn ~data:(Bytes.make 16 'x') with
  | Ok 8 -> ()
  | Ok n -> Alcotest.failf "partial send took %d, want 8" n
  | Error e -> Alcotest.failf "send: %s" (Kvfs.Vtypes.errno_to_string e));
  Alcotest.(check (result int errno))
    "full queue would block" (Error Kvfs.Vtypes.ENOBUFS)
    (Knet.send net ~sock:conn ~data:(Bytes.of_string "y"));
  Alcotest.(check bool) "sendq_full counted" true
    (find_counter (Ksim.Kernel.stats kernel) "net.sendq_full" >= 1);
  Alcotest.(check (result int errno)) "no space left" (Ok 0)
    (Knet.send_space net ~sock:conn)

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
    "consumed: nothing ready, heap empty" (Ok [])
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
  | S_send of int * int * bool  (* raw pick, length, via send_kernel *)
  | S_close of int
  | S_relisten                  (* close the raw listener, open a new one *)
  | S_accept
  | S_serve of int * int * bool (* traffic pick, recv length, send_kernel *)
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
          let data = Bytes.of_string v.v_pending in
          match
            if kernel_send then Knet.send_kernel net ~sock:v.v_id data
            else Knet.send net ~sock:v.v_id ~data
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
                let data = Bytes.of_string (fresh n) in
                match
                  if kernel_send then Knet.send_kernel net ~sock:r.r_id data
                  else Knet.send net ~sock:r.r_id ~data
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
            ignore (Knet.send net ~sock:c ~data)
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

(* A minimal epoll server over [Knet]: accept everything, answer each
   newline-terminated request with a canned framed response, close on
   EOF.  Returns the responses sent. *)
let epoll_serve net ~port ~(bodies : Bytes.t array) =
  let l = listener ~port ~backlog:64 net in
  let ep = Knet.epoll_create net in
  ignore (Knet.epoll_ctl net ~ep ~sock:l ~op:(`Add (Knet.ep_in, l)));
  let sent = ref 0 in
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
      | Ok b ->
          Bytes.iter
            (fun ch ->
              if ch = '\n' then begin
                let data = bodies.(!sent mod Array.length bodies) in
                (match Knet.send net ~sock:id ~data with
                | Ok n when n = Bytes.length data -> ()
                | _ -> Alcotest.fail "response did not fit the send queue");
                incr sent
              end)
            b
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
  loop ();
  !sent

(* Host words allocated per response by the knet data path, counted as
   minor + major - promoted: a response body is over 256 words, so its
   buffers go straight to the major heap, where a minor-words count
   cannot see them.  Copying each response through growing per-queue
   buffers costs about 2,200 words here; pooled, in-place queues about
   340. *)
let test_traffic_alloc_per_response () =
  let _kernel, net = bare () in
  let bodies =
    Array.init 8 (fun i ->
        let n = 2048 + (i * 128) in
        let b = Bytes.make (8 + n) 'x' in
        Bytes.set_int64_le b 0 (Int64.of_int n);
        b)
  in
  Knet.Traffic.install net
    { Knet.Traffic.default with port = 80; conns = 200; requests_per_conn = 2 };
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let sent = epoll_serve net ~port:80 ~bodies in
  let per = (words () -. before) /. float_of_int sent in
  Alcotest.(check int) "every request answered" 400 sent;
  Alcotest.(check int) "every client completed" 200
    (Knet.Traffic.completed net ~port:80);
  Alcotest.(check bool)
    (Printf.sprintf "under 800 words per response (got %.0f)" per)
    true (per < 800.)

(* --- the syscall boundary ------------------------------------------------ *)

(* Kproc.lookup_fd maps a socket fd to handle_base + id; recover the raw
   id for NIC-side injection the way the service routines do. *)
let sock_id sys fd =
  match
    Ksim.Kproc.lookup_fd (Ksim.Kernel.current (Ksyscall.Systable.kernel sys)) fd
  with
  | Some h when h >= Knet.handle_base -> h - Knet.handle_base
  | _ -> Alcotest.fail "fd is not a socket"

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
        ] );
      ( "storage",
        [
          QCheck_alcotest.to_alcotest qcheck_pooled_storage;
          Alcotest.test_case "a timed-out client releases its stream" `Quick
            test_timeout_releases_stream;
          Alcotest.test_case "traffic allocation per response" `Quick
            test_traffic_alloc_per_response;
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
