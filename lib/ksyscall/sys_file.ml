(* In-kernel service routines.  Precondition: the kernel is in kernel
   mode (Usyscall guarantees this for normal processes; Cosy_exec calls
   these directly from its decode loop).  All fd bookkeeping goes through
   the current process's descriptor table, so compounds and plain
   processes see the same descriptors — "the system call invocation by
   the Cosy kernel module is the same as a normal process and hence all
   the necessary checks are performed" (§2.3). *)

open Kvfs

let fd_err = Error Vtypes.EBADF

let check_kernel_mode sys =
  if Ksim.Kernel.mode (Systable.kernel sys) <> Ksim.Kernel.Kernel_mode then
    raise (Ksim.Kernel.Kernel_mode_violation "service routine in user mode")

(* The VFS handle behind [fd] in the current process, -1 when none. *)
let handle_of_fd sys fd =
  Ksim.Kproc.find_fd (Ksim.Kernel.current (Systable.kernel sys)) fd

let service_open sys ~path ~flags =
  check_kernel_mode sys;
  match Vfs.open_file (Systable.vfs sys) path flags with
  | Error e -> Error e
  | Ok handle ->
      let p = Ksim.Kernel.current (Systable.kernel sys) in
      Ok (Ksim.Kproc.alloc_fd p handle)

let service_close sys ~fd =
  check_kernel_mode sys;
  let p = Ksim.Kernel.current (Systable.kernel sys) in
  match Ksim.Kproc.release_fd p fd with
  | None -> fd_err
  | Some handle ->
      (* fds above [Knet.handle_base] are sockets, not VFS files *)
      if handle >= Knet.handle_base then begin
        Knet.close (Systable.net sys) ~sock:(handle - Knet.handle_base);
        Ok ()
      end
      else Vfs.close (Systable.vfs sys) handle

let service_read sys ~fd ~len =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.read (Systable.vfs sys) h len

(* [service_read]/[service_pread] with the bytes landing in [into] at
   [pos] (Cosy's shared buffer) instead of a fresh result. *)
let service_read_into sys ~fd ~len ~into ~pos =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.read_into (Systable.vfs sys) h len ~into ~pos

let service_pread_into sys ~fd ~off ~len ~into ~pos =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err
  else Vfs.pread_into (Systable.vfs sys) h ~off ~len ~into ~pos

let service_write sys ~fd ~data =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.write (Systable.vfs sys) h data

let service_pread sys ~fd ~off ~len =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.pread (Systable.vfs sys) h ~off ~len

let service_pwrite sys ~fd ~off ~data =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.pwrite (Systable.vfs sys) h ~off ~data

let service_lseek sys ~fd ~off ~whence =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.lseek (Systable.vfs sys) h ~off ~whence

let service_fstat sys ~fd =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.fstat (Systable.vfs sys) h

let service_stat sys ~path =
  check_kernel_mode sys;
  Vfs.stat (Systable.vfs sys) path

let service_readdir sys ~path =
  check_kernel_mode sys;
  Vfs.readdir (Systable.vfs sys) path

let service_mkdir sys ~path =
  check_kernel_mode sys;
  Vfs.mkdir (Systable.vfs sys) path

let service_unlink sys ~path =
  check_kernel_mode sys;
  Vfs.unlink (Systable.vfs sys) path

let service_rename sys ~src ~dst =
  check_kernel_mode sys;
  Vfs.rename (Systable.vfs sys) ~src ~dst

let service_fsync sys ~fd =
  check_kernel_mode sys;
  let h = handle_of_fd sys fd in
  if h < 0 then fd_err else Vfs.fsync (Systable.vfs sys) h

let service_getpid sys =
  check_kernel_mode sys;
  (Ksim.Kernel.current (Systable.kernel sys)).Ksim.Kproc.pid
