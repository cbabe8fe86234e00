(* Host words allocated so far, for the allocation guards: minor +
   major - promoted.  The minor part comes from [Gc.minor_words], not
   from [Gc.counters]: on OCaml 5.1 the latter's minor count reads low
   (by a factor of eight in a standalone check) and is exact only at a
   minor-GC boundary.  Buffers over 256 words are allocated straight on
   the major heap, which is why the major words count too. *)
let now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
