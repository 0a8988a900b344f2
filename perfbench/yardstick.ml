(* The machine-speed yardstick of calib.ml, in a process of its own.

     yardstick.exe

   For every byte read on standard input it runs two slices of
   allocation-heavy OCaml (a balanced map, a sort, a hash table) and
   writes the second slice's time in seconds, as a hexadecimal float, on
   a line of standard output; it exits at end of input. The first slice
   refills the caches the driver's work evicted: timed cold, a slice
   carries a refill cost that does not grow with contention, and the
   normalised times then still rose with the machine's load (over six
   paired batch-cold runs the largest normalised pass time was 12% above
   the smallest when timed cold, 5% with the untimed first slice, against
   33-39% raw). It links
   no SCAF library and empties its minor heap before the timed slice, so
   neither what the analysis allocates nor a GC setting a SCAF library
   makes reaches the yardstick: only the speed of the core does. *)

module M = Map.Make (Int)

let slice () : int =
  let m = ref M.empty in
  for i = 0 to 1500 do
    m := M.add (i * 7919 mod 10007) (string_of_int i) !m
  done;
  let l = List.sort compare (M.fold (fun k v acc -> (String.length v + k) :: acc) !m []) in
  let h = Hashtbl.create 256 in
  List.iter (fun x -> Hashtbl.replace h (x land 1023) x) l;
  Hashtbl.length h

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let () =
  let byte = Bytes.create 1 in
  let rec serve () =
    if input stdin byte 0 1 > 0 then begin
      ignore (Sys.opaque_identity (slice ()));
      Gc.minor ();
      let t0 = now () in
      ignore (Sys.opaque_identity (slice ()));
      Printf.printf "%h\n%!" (now () -. t0);
      serve ()
    end
  in
  serve ()
