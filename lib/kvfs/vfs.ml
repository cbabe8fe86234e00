(* The VFS layer: a mount table, path resolution through the dentry
   cache, and per-process open-file handles.  The syscall layer calls
   only into this module. *)

type file = {
  handle : int;
  ino : int;
  fs : Vtypes.ops;
  mutable pos : int;
  mutable closed : bool;
}

type mount = { prefix : string; fs : Vtypes.ops }

type t = {
  kernel : Ksim.Kernel.t;
  dcache : Dcache.t;
  mutable mounts : mount list;    (* longest prefix first *)
  files : file Ksim.Int_table.t;  (* handle -> open file *)
  mutable next_handle : int;
  mutable opens : int;
  mutable path_components_resolved : int;
}

let create ?(root_fs : Vtypes.ops option) ?(dcache_shards = 1) kernel =
  let root_fs =
    match root_fs with
    | Some fs -> fs
    | None -> Memfs.ops (Memfs.create kernel)
  in
  (* every mounted fs gets the exception-to-errno boundary, so injected
     kernel failures (kfault ENOMEM/EIO) surface as clean errnos *)
  let root_fs = Fs_guard.ops root_fs in
  {
    kernel;
    dcache =
      Dcache.create ~stats:(Ksim.Kernel.stats kernel)
        ~ctx:(Ksim.Kernel.lock_ctx kernel) ~perf:(Ksim.Kernel.perf kernel)
        ~shards:dcache_shards ();
    mounts = [ { prefix = "/"; fs = root_fs } ];
    files = Ksim.Int_table.create 256;
    next_handle = 1;
    opens = 0;
    path_components_resolved = 0;
  }

let dcache t = t.dcache

(* Attribute dcache lock events to the process driving the operation. *)
let cur_pid t = (Ksim.Kernel.current t.kernel).Ksim.Kproc.pid

let mount t ~prefix ~fs =
  if prefix = "" || prefix.[0] <> '/' then invalid_arg "Vfs.mount: prefix";
  t.mounts <- { prefix; fs = Fs_guard.ops fs } :: t.mounts;
  (* keep longest prefixes first so resolution picks the innermost mount *)
  t.mounts <-
    List.sort
      (fun a b -> compare (String.length b.prefix) (String.length a.prefix))
      t.mounts;
  Dcache.clear ~pid:(cur_pid t) t.dcache

let umount t ~prefix =
  match List.find_opt (fun m -> m.prefix = prefix) t.mounts with
  | None -> Error Vtypes.ENOENT
  | Some m ->
      m.fs.Vtypes.destroy_private ();
      t.mounts <- List.filter (fun m' -> m' != m) t.mounts;
      Dcache.clear ~pid:(cur_pid t) t.dcache;
      Ok ()

(* Paths are walked by index, component by component, with no list of
   components: a component is a maximal run without '/', and "." is
   skipped.  [skip path i] is the start of the next component at or
   after [i] (or the length of [path]); [component_end path i] is the
   end of the component starting at [i]. *)
let rec skip path i =
  let n = String.length path in
  if i >= n then n
  else if path.[i] = '/' then skip path (i + 1)
  else if path.[i] = '.' && (i + 1 = n || path.[i + 1] = '/') then
    skip path (i + 1)
  else i

let rec component_end path i =
  if i < String.length path && path.[i] <> '/' then component_end path (i + 1)
  else i

(* Start of the last component at or after [i], or [last] if there is
   none. *)
let rec last_component path i last =
  let i = skip path i in
  if i >= String.length path then last
  else last_component path (component_end path i) i

(* [path] agrees with [p] from index [i] to the end of [p] *)
let rec same_from p path i =
  i >= String.length p || (p.[i] = path.[i] && same_from p path (i + 1))

(* Does mount prefix [p] govern [path]? *)
let governs p path =
  let n = String.length p in
  p = "/"
  || String.length path >= n
     && same_from p path 0
     && (String.length path = n || path.[n] = '/')

(* The mount governing [path] (longest prefix first); its path relative
   to the mount starts at [rel_start m]. *)
let rec find_mount path = function
  | [] -> raise Not_found
  | m :: rest -> if governs m.prefix path then m else find_mount path rest

let rel_start m = if m.prefix = "/" then 0 else String.length m.prefix

(* Walk the components of [path] that start in [i, stop), one
   dcache-guarded lookup each, from directory [dir].  [count] says
   whether they add to [path_components_resolved]. *)
let rec walk t (fs : Vtypes.ops) path ~count ~stop dir i =
  let i = skip path i in
  if i >= stop then Ok dir
  else begin
    let j = component_end path i in
    let name = String.sub path i (j - i) in
    if count then t.path_components_resolved <- t.path_components_resolved + 1;
    match Dcache.lookup ~pid:(cur_pid t) t.dcache ~dir ~name with
    | Some ino -> walk t fs path ~count ~stop ino j
    | None -> (
        match fs.Vtypes.lookup ~dir name with
        | Error e -> Error e
        | Ok ino ->
            Dcache.insert ~pid:(cur_pid t) t.dcache ~dir ~name ~ino;
            walk t fs path ~count ~stop ino j)
  end

let resolve t path =
  match find_mount path t.mounts with
  | exception Not_found -> Error Vtypes.ENOENT
  | m -> (
      match
        walk t m.fs path ~count:true ~stop:(String.length path) m.fs.Vtypes.root
          (rel_start m)
      with
      | Error e -> Error e
      | Ok ino -> Ok (m.fs, ino))

(* Resolve the parent directory of [path]; returns (fs, dir ino, name). *)
let resolve_parent t path =
  match find_mount path t.mounts with
  | exception Not_found -> Error Vtypes.ENOENT
  | m -> (
      let last = last_component path (rel_start m) (-1) in
      if last < 0 then Error Vtypes.EINVAL
      else
        match
          walk t m.fs path ~count:false ~stop:last m.fs.Vtypes.root
            (rel_start m)
        with
        | Error e -> Error e
        | Ok dir ->
            let name = String.sub path last (component_end path last - last) in
            Ok (m.fs, dir, name))

(* --- file-handle operations ------------------------------------------- *)

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND

(* [path]'s inode, created as a regular file if missing and [creating] *)
let open_ino t path ~creating =
  match resolve t path with
  | Ok _ as found -> found
  | Error Vtypes.ENOENT when creating -> (
      match resolve_parent t path with
      | Error e -> Error e
      | Ok (fs, dir, name) -> (
          match fs.Vtypes.create ~dir ~name Vtypes.Regular with
          | Error e -> Error e
          | Ok ino ->
              Dcache.insert ~pid:(cur_pid t) t.dcache ~dir ~name ~ino;
              Ok (fs, ino)))
  | Error e -> Error e

let open_file t path flags =
  t.opens <- t.opens + 1;
  match open_ino t path ~creating:(List.mem O_CREAT flags) with
  | Error e -> Error e
  | Ok (fs, ino) -> (
      match fs.Vtypes.getattr ~ino with
      | Error e -> Error e
      | Ok st ->
          if st.Vtypes.st_kind = Vtypes.Directory
             && List.exists (fun f -> f = O_WRONLY || f = O_RDWR) flags
          then Error Vtypes.EISDIR
          else begin
            if List.mem O_TRUNC flags then
              ignore (fs.Vtypes.truncate ~ino ~size:0);
            let handle = t.next_handle in
            t.next_handle <- t.next_handle + 1;
            let pos =
              if List.mem O_APPEND flags then st.Vtypes.st_size else 0
            in
            Ksim.Int_table.replace t.files handle
              { handle; ino; fs; pos; closed = false };
            Ok handle
          end)

(* The open file behind [handle].  @raise Not_found if there is none:
   callers map that to EBADF, so a lookup boxes nothing. *)
let file t handle =
  let f = Ksim.Int_table.find t.files handle in
  if f.closed then raise Not_found else f

let close t handle =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f ->
      f.closed <- true;
      Ksim.Int_table.remove t.files handle;
      Ok ()

(* A transfer at the file position advances it by the bytes moved. *)
let advance f = function
  | Ok n as r ->
      f.pos <- f.pos + n;
      r
  | Error _ as e -> e

let read t handle len =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> (
      match f.fs.Vtypes.read ~ino:f.ino ~off:f.pos ~len with
      | Error e -> Error e
      | Ok data ->
          f.pos <- f.pos + Bytes.length data;
          Ok data)

let read_into t handle len ~into ~pos =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> advance f (f.fs.Vtypes.read_into ~ino:f.ino ~off:f.pos ~len ~into ~pos)

let write t handle data =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> advance f (f.fs.Vtypes.write ~ino:f.ino ~off:f.pos ~data)

let pread t handle ~off ~len =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> f.fs.Vtypes.read ~ino:f.ino ~off ~len

let pread_into t handle ~off ~len ~into ~pos =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> f.fs.Vtypes.read_into ~ino:f.ino ~off ~len ~into ~pos

let pwrite t handle ~off ~data =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> f.fs.Vtypes.write ~ino:f.ino ~off ~data

type whence = SEEK_SET | SEEK_CUR | SEEK_END

let lseek t handle ~off ~whence =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> (
      let base =
        match whence with
        | SEEK_SET -> Ok 0
        | SEEK_CUR -> Ok f.pos
        | SEEK_END -> (
            match f.fs.Vtypes.getattr ~ino:f.ino with
            | Error e -> Error e
            | Ok st -> Ok st.Vtypes.st_size)
      in
      match base with
      | Error e -> Error e
      | Ok b ->
          let pos = b + off in
          if pos < 0 then Error Vtypes.EINVAL
          else begin
            f.pos <- pos;
            Ok pos
          end)

let fstat t handle =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> f.fs.Vtypes.getattr ~ino:f.ino

let stat t path =
  match resolve t path with
  | Error e -> Error e
  | Ok (fs, ino) -> fs.Vtypes.getattr ~ino

let readdir t path =
  match resolve t path with
  | Error e -> Error e
  | Ok (fs, ino) -> fs.Vtypes.readdir ~dir:ino

let mkdir t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (fs, dir, name) -> (
      match fs.Vtypes.create ~dir ~name Vtypes.Directory with
      | Error e -> Error e
      | Ok ino ->
          Dcache.insert ~pid:(cur_pid t) t.dcache ~dir ~name ~ino;
          Ok ino)

let unlink t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (fs, dir, name) -> (
      match fs.Vtypes.unlink ~dir ~name with
      | Error e -> Error e
      | Ok () ->
          Dcache.invalidate ~pid:(cur_pid t) t.dcache ~dir ~name;
          Ok ())

let rename t ~src ~dst =
  match (resolve_parent t src, resolve_parent t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (fs1, sdir, sname), Ok (fs2, ddir, dname) ->
      if fs1 != fs2 then Error Vtypes.EINVAL
      else begin
        match fs1.Vtypes.rename ~src_dir:sdir ~src:sname ~dst_dir:ddir ~dst:dname with
        | Error e -> Error e
        | Ok () ->
            Dcache.invalidate ~pid:(cur_pid t) t.dcache ~dir:sdir ~name:sname;
            Dcache.invalidate ~pid:(cur_pid t) t.dcache ~dir:ddir ~name:dname;
            Ok ()
      end

let fsync t handle =
  match file t handle with
  | exception Not_found -> Error Vtypes.EBADF
  | f -> f.fs.Vtypes.fsync ~ino:f.ino

let open_file_count t = Ksim.Int_table.length t.files
let max_chain t = Ksim.Int_table.max_chain t.files
let path_components_resolved t = t.path_components_resolved
