(* The int-keyed table behind the kernel's id lookups: fds, file
   handles, inodes and the buffer cache.  A generic [Hashtbl] pays
   [caml_hash] and a polymorphic [compare] per probe, and one built by
   [Hashtbl.Make] still calls its hash and equality through closures;
   here both are inline int arithmetic.

   Buckets are chains in a power-of-two array.  A key's bucket is the
   top bits of a multiplicative (Fibonacci) product, so it depends on
   every bit of the key: dense ids spread evenly, and so do keys whose
   low bits are all alike, which an identity hash would pile into one
   bucket.  The table doubles when it holds two keys per bucket. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable buckets : 'a bucket array;
  mutable shift : int;  (* 63 - log2 (Array.length buckets) *)
}

let golden = 0x4F1BBCDCBFA53E0B

let index t k = (k * golden) lsr t.shift

let create n =
  let rec bits b = if 1 lsl b >= n || b >= 30 then b else bits (b + 1) in
  let b = bits 4 in
  { size = 0; buckets = Array.make (1 lsl b) Empty; shift = 63 - b }

let length t = t.size

let rec find_in k = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = k then c.data else find_in k c.next

let find t k = find_in k t.buckets.(index t k)

let rec find_opt_in k = function
  | Empty -> None
  | Cons c -> if c.key = k then Some c.data else find_opt_in k c.next

let find_opt t k = find_opt_in k t.buckets.(index t k)

let rec mem_in k = function
  | Empty -> false
  | Cons c -> c.key = k || mem_in k c.next

let mem t k = mem_in k t.buckets.(index t k)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) Empty;
  t.shift <- t.shift - 1;
  let rec move = function
    | Empty -> ()
    | Cons c as cell ->
        let next = c.next in
        let i = index t c.key in
        c.next <- t.buckets.(i);
        t.buckets.(i) <- cell;
        move next
  in
  Array.iter move old

let rec set_in k v = function
  | Empty -> false
  | Cons c ->
      if c.key = k then begin
        c.data <- v;
        true
      end
      else set_in k v c.next

let replace t k v =
  let i = index t k in
  let b = t.buckets.(i) in
  if not (set_in k v b) then begin
    t.buckets.(i) <- Cons { key = k; data = v; next = b };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t
  end

(* Unlink [k] from the chain after [prev] (Empty: bucket [i]'s head);
   top level, so a removal allocates no closure. *)
let rec unlink t i k prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = k then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> t.buckets.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else unlink t i k cell c.next

let remove t k =
  let i = index t k in
  unlink t i k Empty t.buckets.(i)

let fold f t acc =
  let rec chain acc = function
    | Empty -> acc
    | Cons c -> chain (f c.key c.data acc) c.next
  in
  Array.fold_left chain acc t.buckets

let max_chain t =
  let rec len n = function Empty -> n | Cons c -> len (n + 1) c.next in
  Array.fold_left (fun m b -> Int.max m (len 0 b)) 0 t.buckets
