(* Counting semaphore.  In the single-threaded simulation a down on an
   empty semaphore cannot be satisfied by another runner, so it raises
   [Would_block]; the monitors treat that as the deadlock signal. *)

type t = { id : int; name : string; mutable count : int; mutable waiters : int }

let next_id = ref 20_000

let create ?(initial = 1) name =
  if initial < 0 then invalid_arg "Semaphore.create";
  incr next_id;
  { id = !next_id; name; count = initial; waiters = 0 }

exception Would_block of string

let down ?(file = "<unknown>") ?(line = 0) t =
  Instrument.emit ~pid:0 ~obj:t.id ~value:t.count ~kind:Instrument.Sem_down
    ~file ~line ();
  if t.count = 0 then begin
    t.waiters <- t.waiters + 1;
    raise (Would_block t.name)
  end;
  t.count <- t.count - 1

let up ?(file = "<unknown>") ?(line = 0) t =
  t.count <- t.count + 1;
  Instrument.emit ~pid:0 ~obj:t.id ~value:t.count ~kind:Instrument.Sem_up
    ~file ~line ()

let try_down t =
  if t.count = 0 then false
  else begin
    t.count <- t.count - 1;
    true
  end

let count t = t.count
let id t = t.id
