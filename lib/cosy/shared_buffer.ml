(* The zero-copy shared buffer (§2.3): a region mapped into both the user
   and kernel address spaces, so data produced by one syscall inside a
   compound can be consumed by the next without crossing the boundary.
   Both sides see the same bytes; neither pays a copy_{to,from}_user.

   In-kernel readers and writers that work on [data] in place (a read
   landing straight in the buffer, a ring entry parsed where it lies)
   report their traffic with [note_read]/[note_written], so the
   [cosy.shared.*] counters read the same as for the copying accessors. *)

type t = {
  data : Bytes.t;
  kstats : Kstats.t;
  st_bytes_read : Kstats.counter;
  st_bytes_written : Kstats.counter;
  st_high_water : Kstats.gauge;
  mutable high_water : int;    (* bytes actually used, for reporting *)
}

let create ?(stats = Kstats.create ()) size =
  if size <= 0 then invalid_arg "Shared_buffer.create";
  {
    data = Bytes.make size '\000';
    kstats = stats;
    st_bytes_read = Kstats.counter stats "cosy.shared.bytes_read";
    st_bytes_written = Kstats.counter stats "cosy.shared.bytes_written";
    st_high_water = Kstats.gauge stats "cosy.shared.high_water";
    high_water = 0;
  }

let size t = Bytes.length t.data
let data t = t.data

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Shared_buffer: range [%d,+%d) outside buffer of %d" off
         len (Bytes.length t.data))

let note_written t ~off ~len =
  check t ~off ~len;
  Kstats.add t.kstats t.st_bytes_written len;
  if off + len > t.high_water then begin
    t.high_water <- off + len;
    Kstats.set t.kstats t.st_high_water t.high_water
  end

let note_read t ~off ~len =
  check t ~off ~len;
  Kstats.add t.kstats t.st_bytes_read len

let write t ~off data =
  let len = Bytes.length data in
  note_written t ~off ~len;
  Bytes.blit data 0 t.data off len

let read t ~off ~len =
  note_read t ~off ~len;
  Bytes.sub t.data off len

let write_string t ~off s = write t ~off (Bytes.unsafe_of_string s)

let read_string t ~off ~len =
  note_read t ~off ~len;
  Bytes.sub_string t.data off len

let high_water t = t.high_water
