(* Kernel allocators.

   [kmalloc] models the slab allocator: fast, byte-granular carving from
   slab pages, no per-allocation page-table work, and therefore no way to
   guard an individual allocation.

   [vmalloc] models Linux's vmalloc: every allocation gets its own
   page-aligned virtually-mapped area, which is slower but gives each
   buffer its own PTEs — the property Kefence builds on.  As in the paper,
   a hash table maps addresses to areas so vfree does not scan a list. *)

type area = {
  addr : int;                 (* user-visible start address *)
  size : int;                 (* requested size in bytes *)
  npages : int;               (* data pages (excluding any guardian) *)
  guardian_vpn : int option;  (* Kefence guardian page, if any *)
  align_end : bool;           (* data flush against the end of last page *)
}

type t = {
  space : Address_space.t;
  clock : Sim_clock.t;
  cost : Cost_model.t;
  stats : Kstats.t;
  st_kmallocs : Kstats.counter;
  st_kfrees : Kstats.counter;
  st_vmallocs : Kstats.counter;
  st_vfrees : Kstats.counter;
  st_alloc_bytes : Kstats.counter;
  st_pages_live : Kstats.gauge;
  page_size : int;
  (* kmalloc state: a simple bump region refilled page by page. *)
  mutable slab_addr : int;        (* next free byte in the current slab *)
  mutable slab_left : int;        (* bytes left in the current slab *)
  mutable slab_next_vpn : int;    (* next vpn in the kmalloc region *)
  slab_end_vpn : int;
  kmalloc_live : (int, int) Hashtbl.t; (* addr -> size *)
  km_owner : (int, int) Hashtbl.t;     (* addr -> owning pid (containment) *)
  (* vmalloc state *)
  mutable vm_next_vpn : int;
  vm_end_vpn : int;
  vm_areas : (int, area) Hashtbl.t;    (* the paper's vfree hash table *)
  vm_owner : (int, int) Hashtbl.t;     (* addr -> owning pid (containment) *)
  pid : unit -> int;                   (* owner of fresh allocations *)
  mutable vm_pages_live : int;
  mutable vm_pages_high_water : int;
  mutable vm_bytes_requested : int;
  mutable vm_allocs : int;
  fault : Kfault.t;
  site_kmalloc : Kfault.site;
  site_vmalloc : Kfault.site;
}

(* Virtual layout of the simulated kernel address space, in pages. *)
let kmalloc_base_vpn = 0x1000
let kmalloc_limit_pages = 0x8000
let vmalloc_base_vpn = 0x10000
let vmalloc_limit_pages = 0x40000

let create ?(stats = Kstats.create ()) ~space ~clock ~cost ~fault ~pid () =
  let page_size = Address_space.page_size space in
  (* vmalloc's site registers first: a site's id seeds its Prob stream,
     so this order fixes both allocators' fault schedules *)
  let site_vmalloc = Kfault.register fault "kalloc.vmalloc" in
  let site_kmalloc = Kfault.register fault "kalloc.kmalloc" in
  {
    space;
    clock;
    cost;
    stats;
    st_kmallocs = Kstats.counter stats "kalloc.kmallocs";
    st_kfrees = Kstats.counter stats "kalloc.kfrees";
    st_vmallocs = Kstats.counter stats "kalloc.vmallocs";
    st_vfrees = Kstats.counter stats "kalloc.vfrees";
    st_alloc_bytes = Kstats.counter stats "kalloc.bytes_requested";
    st_pages_live = Kstats.gauge stats "kalloc.vm_pages_live";
    page_size;
    slab_addr = 0;
    slab_left = 0;
    slab_next_vpn = kmalloc_base_vpn;
    slab_end_vpn = kmalloc_base_vpn + kmalloc_limit_pages;
    kmalloc_live = Hashtbl.create 512;
    km_owner = Hashtbl.create 512;
    vm_next_vpn = vmalloc_base_vpn;
    vm_end_vpn = vmalloc_base_vpn + vmalloc_limit_pages;
    vm_areas = Hashtbl.create 512;
    vm_owner = Hashtbl.create 512;
    pid;
    vm_pages_live = 0;
    vm_pages_high_water = 0;
    vm_bytes_requested = 0;
    vm_allocs = 0;
    fault;
    site_kmalloc;
    site_vmalloc;
  }

let note_owner t owners addr = Hashtbl.replace owners addr (t.pid ())

exception Out_of_memory of string

let pages_for t size = (size + t.page_size - 1) / t.page_size

(* --- kmalloc ---------------------------------------------------------- *)

let kmalloc t size =
  if size <= 0 then invalid_arg "kmalloc: size";
  Sim_clock.advance t.clock t.cost.Cost_model.kmalloc_cost;
  Kstats.incr t.stats t.st_kmallocs;
  Kstats.add t.stats t.st_alloc_bytes size;
  if Kfault.fire t.fault t.site_kmalloc then
    raise (Out_of_memory "kmalloc: injected failure (kfault)");
  (* align to 8 bytes like the slab allocator's minimum object size *)
  let size = (size + 7) land lnot 7 in
  if size > t.slab_left then begin
    let need = pages_for t size in
    if t.slab_next_vpn + need > t.slab_end_vpn then
      raise (Out_of_memory "kmalloc region exhausted");
    Address_space.map_fresh t.space ~vpn:t.slab_next_vpn ~npages:need
      ~writable:true;
    t.slab_addr <- t.slab_next_vpn * t.page_size;
    t.slab_left <- need * t.page_size;
    t.slab_next_vpn <- t.slab_next_vpn + need
  end;
  let addr = t.slab_addr in
  t.slab_addr <- t.slab_addr + size;
  t.slab_left <- t.slab_left - size;
  Hashtbl.replace t.kmalloc_live addr size;
  note_owner t t.km_owner addr;
  addr

let kfree t addr =
  Sim_clock.advance t.clock t.cost.Cost_model.kfree_cost;
  Kstats.incr t.stats t.st_kfrees;
  match Hashtbl.find_opt t.kmalloc_live addr with
  | None -> invalid_arg "kfree: not a live kmalloc address"
  | Some _ ->
      Hashtbl.remove t.kmalloc_live addr;
      Hashtbl.remove t.km_owner addr

(* --- vmalloc ---------------------------------------------------------- *)

(* [guard]: add a no-access guardian PTE after (or before, when
   [align_end] is false) the buffer.  [align_end] places the buffer flush
   against the guardian so the very first out-of-bounds byte traps; this
   is Kefence's overflow-detecting configuration. *)
let vmalloc ?(guard = false) ?(align_end = true) t size =
  if size <= 0 then invalid_arg "vmalloc: size";
  Sim_clock.advance t.clock t.cost.Cost_model.vmalloc_cost;
  if Kfault.fire t.fault t.site_vmalloc then
    raise (Out_of_memory "vmalloc: injected failure (kfault)");
  let npages = pages_for t size in
  let total = npages + (if guard then 1 else 0) in
  if t.vm_next_vpn + total + 1 > t.vm_end_vpn then
    raise (Out_of_memory "vmalloc region exhausted");
  let base_vpn = t.vm_next_vpn in
  (* leave an unmapped hole page between areas, like vmalloc does *)
  t.vm_next_vpn <- t.vm_next_vpn + total + 1;
  let data_vpn, guardian_vpn =
    if guard && not align_end then (base_vpn + 1, Some base_vpn)
    else (base_vpn, if guard then Some (base_vpn + npages) else None)
  in
  Address_space.map_fresh t.space ~vpn:data_vpn ~npages ~writable:true;
  (match guardian_vpn with
  | Some g -> Address_space.map_guardian t.space ~vpn:g
  | None -> ());
  let addr =
    if align_end then (data_vpn * t.page_size) + (npages * t.page_size) - size
    else data_vpn * t.page_size
  in
  let area = { addr; size; npages; guardian_vpn; align_end } in
  Hashtbl.replace t.vm_areas addr area;
  note_owner t t.vm_owner addr;
  t.vm_pages_live <- t.vm_pages_live + npages;
  if t.vm_pages_live > t.vm_pages_high_water then
    t.vm_pages_high_water <- t.vm_pages_live;
  t.vm_bytes_requested <- t.vm_bytes_requested + size;
  t.vm_allocs <- t.vm_allocs + 1;
  Kstats.incr t.stats t.st_vmallocs;
  Kstats.add t.stats t.st_alloc_bytes size;
  Kstats.set t.stats t.st_pages_live t.vm_pages_live;
  area

let find_area t addr =
  Sim_clock.advance t.clock t.cost.Cost_model.vfree_lookup_cost;
  Hashtbl.find_opt t.vm_areas addr

let vfree t addr =
  Sim_clock.advance t.clock t.cost.Cost_model.vfree_cost;
  match find_area t addr with
  | None -> invalid_arg "vfree: not a live vmalloc address"
  | Some area ->
      let data_vpn =
        if area.align_end then Address_space.(vpn_of t.space area.addr)
        else area.addr / t.page_size
      in
      let data_vpn =
        (* when aligned to the end, addr may sit mid-page; the area starts
           at the page containing addr *)
        min data_vpn (area.addr / t.page_size)
      in
      Address_space.unmap t.space ~vpn:data_vpn ~npages:area.npages;
      (match area.guardian_vpn with
      | Some g ->
          Page_table.unmap (Address_space.page_table t.space) ~vpn:g;
          Tlb.invalidate (Address_space.tlb t.space) ~vpn:g
      | None -> ());
      Hashtbl.remove t.vm_areas addr;
      Hashtbl.remove t.vm_owner addr;
      t.vm_pages_live <- t.vm_pages_live - area.npages;
      Kstats.incr t.stats t.st_vfrees;
      Kstats.set t.stats t.st_pages_live t.vm_pages_live

(* --- crash containment ------------------------------------------------- *)

type reap = {
  reaped_kmallocs : int;
  reaped_vmallocs : int;
  reaped_vm_addrs : int list;  (* freed vmalloc addresses, ascending *)
}

(* Free everything a dying process still owns, through the normal kfree/
   vfree paths (normal charges, PTE unmaps and TLB shootdowns included).
   Addresses are processed in ascending order for determinism. *)
let reap_pid t pid =
  let owned owners live =
    Hashtbl.fold
      (fun addr owner acc ->
        if owner = pid && Hashtbl.mem live addr then addr :: acc else acc)
      owners []
    |> List.sort compare
  in
  let kms = owned t.km_owner t.kmalloc_live in
  List.iter (fun addr -> kfree t addr) kms;
  let vms = owned t.vm_owner t.vm_areas in
  List.iter (fun addr -> vfree t addr) vms;
  {
    reaped_kmallocs = List.length kms;
    reaped_vmallocs = List.length vms;
    reaped_vm_addrs = vms;
  }

(* --- statistics (E5 reports these like the paper does) ----------------- *)

type stats = {
  live_areas : int;
  pages_live : int;
  pages_high_water : int;
  allocs : int;
  mean_alloc_bytes : float;
}

let stats t =
  {
    live_areas = Hashtbl.length t.vm_areas;
    pages_live = t.vm_pages_live;
    pages_high_water = t.vm_pages_high_water;
    allocs = t.vm_allocs;
    mean_alloc_bytes =
      (if t.vm_allocs = 0 then 0.
       else float_of_int t.vm_bytes_requested /. float_of_int t.vm_allocs);
  }

let kmalloc_live_count t = Hashtbl.length t.kmalloc_live
