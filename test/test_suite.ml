(** Tests over the 16-benchmark suite: every program is well-formed and
    runs; hot-loop selection matches the paper's totals; scheme precision
    is ordered; speculation never misspeculates on the training input and
    always recovers correctly on the reference input. *)

open Scaf_suite

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_all_parse_verify_run () =
  List.iter
    (fun (b : Program.t) ->
      let m = Program.program b in
      List.iter
        (fun input ->
          let r = Scaf_interp.Eval.run ~input m in
          checkb
            (Program.id b ^ " produced output")
            true
            (r.Scaf_interp.Eval.output <> []))
        (Program.train_inputs b @ [ Program.ref_input b ]))
    (Registry.all ())

let test_sixteen_benchmarks () =
  checki "16 benchmarks" 16 (List.length (Registry.all ()))

let test_hot_loop_count () =
  (* the paper evaluates 56 hot loops across the 16 benchmarks *)
  let total =
    List.fold_left
      (fun acc (b : Program.t) ->
        ignore (Program.program b);
        let p = Program.profiles b in
        acc + List.length (Scaf_pdg.Nodep.hot_loop_weights p))
      0 (Registry.all ())
  in
  checki "56 hot loops" 56 total

let scheme_order b =
  let e = Scaf_report.Experiments.evaluate_bench b in
  let caf = e.Scaf_report.Experiments.caf.Scaf_pdg.Nodep.weighted_nodep in
  let conf = e.Scaf_report.Experiments.confluence.Scaf_pdg.Nodep.weighted_nodep in
  let scaf = e.Scaf_report.Experiments.scaf.Scaf_pdg.Nodep.weighted_nodep in
  let obs =
    100.0 -. e.Scaf_report.Experiments.observed.Scaf_pdg.Nodep.weighted_nodep
  in
  checkb
    (Printf.sprintf "%s: CAF(%.1f) <= Confl(%.1f)" (Program.id b) caf conf)
    true (caf <= conf +. 1e-9);
  checkb
    (Printf.sprintf "%s: Confl(%.1f) <= SCAF(%.1f)" (Program.id b) conf scaf)
    true (conf <= scaf +. 1e-9);
  (* SCAF strictly beats confluence on every benchmark (paper §5.1) *)
  checkb
    (Printf.sprintf "%s: SCAF(%.1f) > Confl(%.1f)" (Program.id b) scaf conf)
    true (scaf > conf);
  ignore obs

let test_scheme_order_all () = List.iter scheme_order (Registry.all ())

(* Soundness spot-check: CAF (assertion-free static analysis) must never
   disprove a dependence that manifests during profiling. *)
let test_caf_sound_vs_observed () =
  List.iter
    (fun name ->
      let b = Option.get (Registry.find name) in
      ignore (Program.program b);
      let p = Program.profiles b in
      let prog = p.Scaf_profile.Profiles.ctx in
      let caf = Scaf_pdg.Schemes.caf p in
      List.iter
        (fun (lid, _) ->
          let r =
            Scaf_pdg.Pdg.run_loop prog
              ~resolver:caf.Scaf_pdg.Schemes.resolve lid
          in
          List.iter
            (fun (qr : Scaf_pdg.Pdg.qresult) ->
              if qr.Scaf_pdg.Pdg.nodep then
                checkb
                  (Printf.sprintf "%s %s: %d->%d cross=%b disproven but observed"
                     name lid qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.src
                     qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.dst
                     qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.cross)
                  false
                  (Scaf_profile.Memdep_profile.observed
                     p.Scaf_profile.Profiles.memdep ~lid
                     ~src:qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.src
                     ~dst:qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.dst
                     ~cross:qr.Scaf_pdg.Pdg.dq.Scaf_pdg.Pdg.cross))
            r.Scaf_pdg.Pdg.queries)
        (Scaf_pdg.Nodep.hot_loop_weights p))
    [ "052.alvinn"; "181.mcf"; "482.sphinx3"; "164.gzip" ]

(* End-to-end speculation: plan, instrument, run. Training input must not
   misspeculate; the reference input must recover to the original output. *)
let test_speculation_end_to_end () =
  List.iter
    (fun name ->
      let b = Option.get (Registry.find name) in
      let m = Program.program b in
      let p = Program.profiles b in
      let _plan, instrumented = Scaf_transform.Apply.speculate p in
      let train = List.hd (Program.train_inputs b) in
      let ot =
        Scaf_transform.Apply.run_with_recovery ~original:m ~instrumented
          ~input:train ()
      in
      checkb (name ^ ": no train misspec") false
        ot.Scaf_transform.Apply.misspeculated;
      checkb (name ^ ": train output intact") true
        (ot.Scaf_transform.Apply.result.Scaf_interp.Eval.output
        = (Scaf_interp.Eval.run ~input:train m).Scaf_interp.Eval.output);
      let oref =
        Scaf_transform.Apply.run_with_recovery ~original:m ~instrumented
          ~input:(Program.ref_input b) ()
      in
      checkb (name ^ ": ref output recovered") true
        (oref.Scaf_transform.Apply.result.Scaf_interp.Eval.output
        = (Scaf_interp.Eval.run ~input:(Program.ref_input b) m)
            .Scaf_interp.Eval.output))
    [ "052.alvinn"; "175.vpr"; "429.mcf"; "462.libquantum" ]

(* Profiling's allocation rate over the whole suite. With a byte-at-a-time
   dependence recorder it was 134 minor words per executed instruction,
   51 with the access-granular recorder and the tree-walking interpreter,
   13.9 with the compiled interpreter and id-keyed profilers; the bound is
   that plus 25%. *)
let test_profiling_allocation () =
  let progs = List.map (fun p -> (p, Program.ctx p)) (Registry.all ()) in
  let executed =
    List.fold_left
      (fun n (p, ctx) ->
        List.fold_left
          (fun n input ->
            n
            + (Scaf_interp.Eval.run ~input ctx.Scaf_cfg.Progctx.m)
                .Scaf_interp.Eval.instrs_executed)
          n (Program.train_inputs p))
      0 progs
  in
  let w0 = Gc.minor_words () in
  List.iter
    (fun (p, ctx) ->
      ignore (Scaf_profile.Profiler.profile ~inputs:(Program.train_inputs p) ctx))
    progs;
  let per_instr = (Gc.minor_words () -. w0) /. float_of_int executed in
  checkb
    (Printf.sprintf "%.1f minor words per executed instruction <= 17.3" per_instr)
    true (per_instr <= 17.3)

(* What profiling records for the suite, pinned: every profile-fingerprint
   fact, the time profile's per-loop counts, the hot loops and the observed
   memory dependences must match test/fixtures/profiles.golden line for
   line. *)
let test_profile_facts () =
  let golden =
    In_channel.with_open_bin "fixtures/profiles.golden" In_channel.input_all
  in
  let actual = Profile_facts.render () in
  let lines s = String.split_on_char '\n' s in
  let rec first_diff n = function
    | g :: gs, a :: as_ -> if String.equal g a then first_diff (n + 1) (gs, as_) else Some (n, g, a)
    | [], [] -> None
    | g :: _, [] -> Some (n, g, "<end>")
    | [], a :: _ -> Some (n, "<end>", a)
  in
  match first_diff 1 (lines golden, lines actual) with
  | None -> ()
  | Some (n, g, a) ->
      Alcotest.failf "profiles differ from the fixture at line %d:\n  want %s\n  got  %s" n g a

let suite =
  [
    ( "suite",
      [
        Alcotest.test_case "all benchmarks parse/verify/run" `Quick
          test_all_parse_verify_run;
        Alcotest.test_case "sixteen benchmarks" `Quick test_sixteen_benchmarks;
        Alcotest.test_case "56 hot loops" `Quick test_hot_loop_count;
        Alcotest.test_case "profiling allocation per instruction" `Quick
          test_profiling_allocation;
        Alcotest.test_case "profile facts match the fixture" `Quick
          test_profile_facts;
        Alcotest.test_case "scheme precision order, all benchmarks" `Slow
          test_scheme_order_all;
        Alcotest.test_case "CAF sound vs observed deps" `Slow
          test_caf_sound_vs_observed;
        Alcotest.test_case "speculation end to end" `Slow
          test_speculation_end_to_end;
      ] );
  ]
