(* Exception-to-errno boundary for filesystem operations.

   Kernel-internal failures surface as OCaml exceptions (an exhausted —
   or kfault-injected — allocator raises [Kalloc.Out_of_memory], a bad
   sector raises [Block_dev.Io_error]).  Real kernels translate these
   to errnos at the VFS boundary rather than letting them unwind into
   user land; [ops] does the same for an entire [Vtypes.ops] record, so
   the VFS can wrap every mounted filesystem once and injected faults
   always reach the syscall layer as clean [Error ENOMEM] / [Error EIO]
   results. *)

let errno_of_exn = function
  | Ksim.Kalloc.Out_of_memory _ -> Some Vtypes.ENOMEM
  | Block_dev.Io_error _ -> Some Vtypes.EIO
  | _ -> None

(* Each op installs its own handler rather than passing a thunk to a
   shared wrapper: a closure per filesystem call is host garbage. *)
let fail e =
  match errno_of_exn e with Some errno -> Error errno | None -> raise e

let ops (o : Vtypes.ops) =
  {
    o with
    Vtypes.lookup =
      (fun ~dir name -> try o.Vtypes.lookup ~dir name with e -> fail e);
    create =
      (fun ~dir ~name kind ->
        try o.Vtypes.create ~dir ~name kind with e -> fail e);
    unlink =
      (fun ~dir ~name -> try o.Vtypes.unlink ~dir ~name with e -> fail e);
    readdir = (fun ~dir -> try o.Vtypes.readdir ~dir with e -> fail e);
    getattr = (fun ~ino -> try o.Vtypes.getattr ~ino with e -> fail e);
    read =
      (fun ~ino ~off ~len -> try o.Vtypes.read ~ino ~off ~len with e -> fail e);
    read_into =
      (fun ~ino ~off ~len ~into ~pos ->
        try o.Vtypes.read_into ~ino ~off ~len ~into ~pos with e -> fail e);
    write =
      (fun ~ino ~off ~data ->
        try o.Vtypes.write ~ino ~off ~data with e -> fail e);
    truncate =
      (fun ~ino ~size -> try o.Vtypes.truncate ~ino ~size with e -> fail e);
    rename =
      (fun ~src_dir ~src ~dst_dir ~dst ->
        try o.Vtypes.rename ~src_dir ~src ~dst_dir ~dst with e -> fail e);
    fsync = (fun ~ino -> try o.Vtypes.fsync ~ino with e -> fail e);
  }
