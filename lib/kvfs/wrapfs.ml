(* Wrapfs: a stackable filesystem that redirects every operation to a
   lower filesystem, as in FiST.  Like the paper's Wrapfs, each object it
   touches gets dynamically allocated private data, temporary page
   buffers for data copies, and temporary name buffers — all through a
   pluggable allocator.  With the default kmalloc allocator this is
   "vanilla Wrapfs"; with Kefence's guarded vmalloc allocator it is the
   instrumented version of E5.

   The private buffers are real simulated memory and are written through
   the address space, so an injected off-by-one actually lands on a
   guardian page and faults. *)

type allocator = {
  alloc_name : string;
  space : Ksim.Address_space.t;
  alloc : int -> int;       (* size in bytes -> virtual address *)
  free : int -> unit;
}

let kmalloc_allocator kernel =
  let ka = Ksim.Kernel.alloc kernel in
  {
    alloc_name = "kmalloc";
    space = Ksim.Kernel.kspace kernel;
    alloc = (fun size -> Ksim.Kalloc.kmalloc ka size);
    free = (fun addr -> Ksim.Kalloc.kfree ka addr);
  }

type t = {
  lower : Vtypes.ops;
  allocator : allocator;
  (* per-inode private data, as in the paper: "each Wrapfs object
     contains a private data field which gets dynamically allocated" *)
  private_data : (int, int) Hashtbl.t;  (* lower ino -> buffer addr *)
  mutable name_copies : int;
  mutable page_copies : int;
  (* one reusable staging page, as the kernel's page cache provides;
     allocated lazily so the allocator (possibly kefence) sees it *)
  mutable page_pool : int option;
  (* fault injection for tests: write this many bytes past the end of
     every temporary name buffer *)
  mutable overflow_bytes : int;
}

let create ~allocator lower =
  {
    lower;
    allocator;
    private_data = Hashtbl.create 1024;
    name_copies = 0;
    page_copies = 0;
    page_pool = None;
    overflow_bytes = 0;
  }

let inject_overflow t n = t.overflow_bytes <- n

(* Per-inode private data: 80 bytes, the paper's measured mean
   allocation size. *)
let private_size = 80

(* Attach private data to a lower inode on first sight. *)
let ensure_private t ino =
  if not (Hashtbl.mem t.private_data ino) then begin
    let addr = t.allocator.alloc private_size in
    (* initialize the private area: a real write through the MMU *)
    Ksim.Address_space.write_bytes ~pc:"wrapfs.ml:ensure_private"
      t.allocator.space ~addr
      (Bytes.make private_size '\000');
    Hashtbl.replace t.private_data ino addr
  end

let drop_private t ino =
  match Hashtbl.find_opt t.private_data ino with
  | Some addr ->
      t.allocator.free addr;
      Hashtbl.remove t.private_data ino
  | None -> ()

(* Copy [name] into a freshly allocated temporary buffer, touch it, and
   free it — the "strings containing file names are allocated
   dynamically" behaviour of the paper's Wrapfs. *)
let with_name_copy t name f =
  t.name_copies <- t.name_copies + 1;
  let len = String.length name + 1 in
  let addr = t.allocator.alloc len in
  let payload = Bytes.make (len + t.overflow_bytes) 'x' in
  Bytes.blit_string name 0 payload 0 (String.length name);
  Bytes.set payload (String.length name) '\000';
  (* an injected overflow writes past the end of the allocation *)
  Ksim.Address_space.write_bytes ~pc:"wrapfs.ml:with_name_copy"
    t.allocator.space ~addr payload;
  let finally () = t.allocator.free addr in
  match f () with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

(* Stage data page by page through the reusable staging buffer, as
   Wrapfs copies pages between layers. *)
let page_size = 4096

let pool_page t =
  match t.page_pool with
  | Some addr -> addr
  | None ->
      let addr = t.allocator.alloc page_size in
      t.page_pool <- Some addr;
      addr

let with_page_copy t data f =
  t.page_copies <- t.page_copies + 1;
  let addr = pool_page t in
  let len = Bytes.length data in
  let staged = Bytes.create len in
  let rec chunks off =
    if off < len then begin
      let n = min page_size (len - off) in
      Ksim.Address_space.write_bytes ~pc:"wrapfs.ml:with_page_copy"
        t.allocator.space ~addr (Bytes.sub data off n);
      Bytes.blit
        (Ksim.Address_space.read_bytes ~pc:"wrapfs.ml:with_page_copy"
           t.allocator.space ~addr ~len:n)
        0 staged off n;
      chunks (off + n)
    end
  in
  chunks 0;
  f staged

let read t ~ino ~off ~len =
  ensure_private t ino;
  match t.lower.Vtypes.read ~ino ~off ~len with
  | Error _ as e -> e
  | Ok data ->
      if Bytes.length data = 0 then Ok data
      else with_page_copy t data (fun staged -> Ok staged)

let ops t =
  let lower = t.lower in
  {
    Vtypes.fs_name = "wrapfs(" ^ lower.Vtypes.fs_name ^ ")";
    root = lower.Vtypes.root;
    lookup =
      (fun ~dir name ->
        ensure_private t dir;
        with_name_copy t name (fun () ->
            match lower.Vtypes.lookup ~dir name with
            | Ok ino ->
                ensure_private t ino;
                Ok ino
            | Error _ as e -> e));
    create =
      (fun ~dir ~name kind ->
        ensure_private t dir;
        with_name_copy t name (fun () ->
            match lower.Vtypes.create ~dir ~name kind with
            | Ok ino ->
                ensure_private t ino;
                Ok ino
            | Error _ as e -> e));
    unlink =
      (fun ~dir ~name ->
        with_name_copy t name (fun () ->
            match lower.Vtypes.lookup ~dir name with
            | Error e -> Error e
            | Ok ino -> (
                match lower.Vtypes.unlink ~dir ~name with
                | Ok () ->
                    drop_private t ino;
                    Ok ()
                | Error _ as e -> e)));
    readdir =
      (fun ~dir ->
        ensure_private t dir;
        lower.Vtypes.readdir ~dir);
    getattr =
      (fun ~ino ->
        ensure_private t ino;
        lower.Vtypes.getattr ~ino);
    read = (fun ~ino ~off ~len -> read t ~ino ~off ~len);
    read_into =
      (fun ~ino ~off ~len ~into ~pos ->
        (* staged exactly as [read], then copied out *)
        match read t ~ino ~off ~len with
        | Error e -> Error e
        | Ok data ->
            let n = Bytes.length data in
            Bytes.blit data 0 into pos n;
            Ok n);
    write =
      (fun ~ino ~off ~data ->
        ensure_private t ino;
        if Bytes.length data = 0 then lower.Vtypes.write ~ino ~off ~data
        else
          with_page_copy t data (fun staged ->
              lower.Vtypes.write ~ino ~off ~data:staged));
    truncate = (fun ~ino ~size -> lower.Vtypes.truncate ~ino ~size);
    rename =
      (fun ~src_dir ~src ~dst_dir ~dst ->
        with_name_copy t src (fun () ->
            with_name_copy t dst (fun () ->
                lower.Vtypes.rename ~src_dir ~src ~dst_dir ~dst)));
    fsync = (fun ~ino -> lower.Vtypes.fsync ~ino);
    destroy_private =
      (fun () ->
        Hashtbl.iter (fun _ addr -> t.allocator.free addr) t.private_data;
        Hashtbl.reset t.private_data;
        (match t.page_pool with
        | Some addr ->
            t.allocator.free addr;
            t.page_pool <- None
        | None -> ()));
  }

type stats = { live_private : int; name_copies : int; page_copies : int }

let stats t =
  {
    live_private = Hashtbl.length t.private_data;
    name_copies = t.name_copies;
    page_copies = t.page_copies;
  }
