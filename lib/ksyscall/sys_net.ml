(* In-kernel socket service routines.  Same contract as Sys_file: the
   kernel is already in kernel mode, fd bookkeeping goes through the
   current process's descriptor table.  Socket ids from Knet are mapped
   into the table at [Knet.handle_base + id], so close(2) and the VFS
   can tell them apart from file handles. *)

open Kvfs

let net sys = Systable.net sys
let cur sys = Ksim.Kernel.current (Systable.kernel sys)

let sock_of_fd sys fd =
  let h = Ksim.Kproc.find_fd (cur sys) fd in
  if h >= Knet.handle_base then Ok (h - Knet.handle_base)
  else if h >= 0 then Error Vtypes.ENOTSOCK
  else Error Vtypes.EBADF

let alloc_sock_fd sys id = Ksim.Kproc.alloc_fd (cur sys) (Knet.handle_base + id)

let service_socket sys =
  Sys_file.check_kernel_mode sys;
  alloc_sock_fd sys (Knet.socket (net sys))

let service_bind sys ~sock ~port =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> Knet.bind (net sys) ~sock:id ~port

let service_listen sys ~sock ~backlog =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> Knet.listen (net sys) ~sock:id ~backlog

let service_accept sys ~sock =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> (
      match Knet.accept (net sys) ~sock:id with
      | Error e -> Error e
      | Ok conn -> Ok (alloc_sock_fd sys conn))

let service_recv sys ~sock ~len =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> Knet.recv (net sys) ~sock:id ~len

let service_send sys ~sock ~data =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> Knet.send (net sys) ~sock:id ~data

let service_epoll_create sys =
  Sys_file.check_kernel_mode sys;
  alloc_sock_fd sys (Knet.epoll_create (net sys))

let service_epoll_ctl sys ~ep ~sock ~add ~mask ~cookie =
  Sys_file.check_kernel_mode sys;
  match (sock_of_fd sys ep, sock_of_fd sys sock) with
  | Error e, _ | _, Error e -> Error e
  | Ok epid, Ok sockid ->
      let op = if add then `Add (mask, cookie) else `Del in
      Knet.epoll_ctl (net sys) ~ep:epid ~sock:sockid ~op

let service_epoll_wait sys ~ep ~max =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys ep with
  | Error e -> Error e
  | Ok epid -> Knet.epoll_wait (net sys) ~ep:epid ~max

(* accept + first recv in one crossing (§2.2 applied to the server hot
   loop).  The recv may legitimately find nothing yet — the new
   connection is returned with an empty payload. *)
let service_accept_recv sys ~sock ~len =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> (
      match Knet.accept (net sys) ~sock:id with
      | Error e -> Error e
      | Ok conn ->
          let fd = alloc_sock_fd sys conn in
          let data =
            match Knet.recv (net sys) ~sock:conn ~len with
            | Ok b -> b
            | Error _ -> Bytes.empty
          in
          Ok (fd, data))

(* send the previous response + recv the next pipelined request in one
   crossing.  Either half may have nothing to do; the reply carries how
   many bytes were queued and whatever arrived. *)
let service_recv_send sys ~sock ~len ~data =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id ->
      let received =
        match Knet.recv (net sys) ~sock:id ~len with
        | Ok b -> b
        | Error _ -> Bytes.empty
      in
      let sent =
        if Bytes.length data = 0 then 0
        else
          match Knet.send (net sys) ~sock:id ~data with
          | Ok n -> n
          | Error _ -> 0
      in
      Ok (sent, received)

(* sendfile to a socket (§2.3 technique): file pages are read on the
   kernel side straight into the tail of the connection's send queue —
   the payload never crosses the boundary and is never copied on the
   way, so the only user-visible bytes are the operands.  Only as much
   as the send queue can take is read; the caller resumes at [off + n]
   when the socket turns writable again. *)
let service_sendfile_sock sys ~sock ~fd ~off ~len =
  Sys_file.check_kernel_mode sys;
  match sock_of_fd sys sock with
  | Error e -> Error e
  | Ok id -> (
      let fill into pos n =
        Sys_file.service_pread_into sys ~fd ~off ~len:n ~into ~pos
      in
      match Knet.send_kernel (net sys) ~sock:id ~len fill with
      | Error e -> Error e
      | Ok 0 -> Ok 0
      | Ok n ->
          (* DMA from the page cache to the NIC: device time, as in
             Consolidated.service_sendfile *)
          let kernel = Systable.kernel sys in
          let cost = Ksim.Kernel.cost kernel in
          Ksim.Kernel.charge_io kernel
            (n * cost.Ksim.Cost_model.copy_per_byte
            / (4 * max 1 cost.Ksim.Cost_model.copy_byte_div));
          Ok n)
