(* Tests of the benchmark harness itself: the seeded corpus generator and
   the order statistics the metrics are read with. *)

open Perfbench

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let () =
  let a = Corpus.generate ~seed:7 ~count:12 and b = Corpus.generate ~seed:7 ~count:12 in
  expect "same seed, byte-identical corpus" (a = b);
  expect "another seed, another corpus" (a <> Corpus.generate ~seed:8 ~count:12);
  expect "program ids are distinct"
    (List.length (List.sort_uniq compare (List.map (fun p -> p.Corpus.id) a)) = 12);
  (* every generated program passes the suite's lint gate and has a hot
     loop for the PDG client to analyse *)
  List.iter
    (fun seed ->
      List.iter
        (fun (src : Corpus.program) ->
          match Corpus.make src with
          | p ->
              let loops =
                Scaf_pdg.Nodep.hot_loop_weights (Scaf_suite.Program.profiles p)
              in
              expect (src.Corpus.id ^ " has a hot loop") (loops <> [])
          | exception e ->
              expect (src.Corpus.id ^ " passes the lint gate: " ^ Printexc.to_string e) false)
        (Corpus.generate ~seed ~count:8))
    [ 1; 2; 3 ];
  expect "suite sources register" (List.length (List.map Corpus.make (Corpus.suite ())) = 16);
  expect "median of an even sample" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "p90 interpolates" (abs_float (Stats.quantile [ 0.; 10. ] 0.9 -. 9.0) < 1e-9);
  expect "windowed median of per-window p50s"
    (Stats.windowed ~size:2 0.5 [ 1.; 3.; 10.; 20.; 5.; 7.; 100. ] = 6.0);
  if !failures > 0 then exit 1
