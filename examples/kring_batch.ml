(* The same small-file workload two ways: one trap per syscall, and
   batched through the kring submission/completion ring at batch size 32
   (one submit crossing drains the whole queue; replies are reaped from
   the completion queue without crossing again).

   Run with:  dune exec examples/kring_batch.exe -- [nops] *)

let batch = 32

(* mkdir + (nops-1) small file writes, as typed syscall descriptors the
   synchronous dispatcher and the ring both accept *)
let mk_reqs nops =
  Core.Req.Mkdir { path = "/data" }
  :: List.init (nops - 1) (fun i ->
         Core.Req.Open_write_close
           {
             path = Printf.sprintf "/data/f%03d" (i + 1);
             data = Bytes.of_string (Printf.sprintf "record %03d" (i + 1));
             flags = Core.o_create;
           })

let crossings t =
  match Core.Stats.find (Core.stats t) "kernel.crossings" with
  | Some (Core.Stats.Counter_v v) -> v
  | _ -> 0

(* every file's name and contents, for the byte-identical check *)
let readback sys =
  List.map
    (fun (d : Core.Vtypes.dirent) ->
      ( d.Core.Vtypes.d_name,
        Bytes.to_string
          (Core.ok
             (Core.Syscall.sys_open_read_close sys
                ~path:("/data/" ^ d.Core.Vtypes.d_name) ~maxlen:256)) ))
    (Core.ok (Core.Syscall.sys_readdir sys ~path:"/data"))
  |> List.sort compare

let () =
  let nops = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 64 in
  Core.Stats.default_enabled := true;
  let reqs = mk_reqs nops in

  (* synchronous: every call is its own kernel crossing *)
  let t1 = Core.boot_with Core.Config.default in
  List.iter (fun r -> ignore (Core.Syscall.invoke (Core.sys t1) r)) reqs;
  let sync_crossings = crossings t1 in

  (* ring: push 32 at a time, one enter per batch *)
  let t2 = Core.boot_with Core.Config.default in
  let ring = Core.ring ~sq_entries:batch t2 in
  let completions = Core.Ring.run_batch ring reqs in
  let ring_crossings = crossings t2 in

  let failures =
    List.length
      (List.filter
         (fun (c : Core.Ring.completion) -> Result.is_error c.Core.Ring.reply)
         completions)
  in
  Printf.printf "%d file ops (%d completions, %d errors):\n"
    (List.length reqs) (List.length completions) failures;
  Printf.printf "  synchronous      : %4d kernel crossings\n" sync_crossings;
  Printf.printf "  ring (batch %2d)  : %4d kernel crossings\n" batch
    ring_crossings;
  Printf.printf "  => %.1fx fewer crossings\n"
    (float_of_int sync_crossings /. float_of_int (max 1 ring_crossings));

  (* the two filesystems must end up byte-identical *)
  let a = readback (Core.sys t1) and b = readback (Core.sys t2) in
  assert (a = b);
  assert (List.length completions = List.length reqs);
  assert (sync_crossings >= 10 * ring_crossings);
  Printf.printf "  filesystem contents byte-identical (%d files verified)\n"
    (List.length a)
