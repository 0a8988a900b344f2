(** Tests for the audit layer (`lib/audit`): the shipped ensemble passes,
    a deliberately broken module is caught by both the contradiction and
    oracle passes (and flips the exit code), an asymmetric module earns a
    warning, and the query-plan lint flags each degenerate-config shape. *)

open Scaf
open Scaf_audit

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* One small benchmark keeps the dynamic passes fast. *)
let bench = Option.get (Scaf_suite.Registry.find "052.alvinn")

(* -- the shipped ensemble is clean ----------------------------------- *)

let test_shipped_ensemble_passes () =
  let r = Audit.run ~benchmarks:[ bench ] () in
  checki "exit code 0" 0 (Audit.exit_code r);
  checki "no soundness findings" 0 (Audit.soundness_count r);
  checkb "queries were fanned out" true (r.Audit.queries > 0);
  checki "one card per shipped module" 19 (List.length r.Audit.cards);
  checkb "all three passes at worst informational" true
    (List.for_all
       (fun (f : Finding.t) -> f.Finding.severity = Finding.Info)
       r.Audit.findings)

(* -- a deliberately broken module is caught -------------------------- *)

(* Unconditionally answers assertion-free NoAlias / NoModRef. basic-aa
   proves self-pair alias probes MustAlias (a location trivially
   must-aliases itself), so the contradiction pass must fire; observed
   dependences disprove the free NoDep claims, so the oracle must too. *)
let liar (_ : Scaf_profile.Profiles.t) : Module_api.t list =
  [
    Module_api.make ~name:"liar-aa" ~kind:Module_api.Memory ~factored:false
      (fun _ q ->
        match q with
        | Query.Alias _ -> Response.free (Aresult.RAlias Aresult.NoAlias)
        | Query.Modref _ -> Response.free (Aresult.RModref Aresult.NoModRef));
  ]

let test_broken_module_fails_the_audit () =
  let r = Audit.run ~extra_modules:liar ~benchmarks:[ bench ] () in
  checki "exit code 1" 1 (Audit.exit_code r);
  checkb "soundness findings present" true (Audit.soundness_count r > 0);
  let against_liar =
    List.filter
      (fun (f : Finding.t) ->
        Finding.is_soundness f
        && Astring_contains.contains f.Finding.modname "liar-aa")
      r.Audit.findings
  in
  checkb "findings name the liar" true (against_liar <> []);
  checkb "contradiction pass fires" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.pass = Finding.Contradiction)
       against_liar);
  checkb "oracle pass fires" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.pass = Finding.Oracle)
       against_liar);
  (* every soundness finding ships a witness, and it re-parses *)
  List.iter
    (fun (f : Finding.t) ->
      checkb "witness present" true (f.Finding.witness <> "");
      ignore (Scaf_ir.Parser.parse_exn_msg f.Finding.witness))
    against_liar;
  (* the liar's audit card records the unsound answers *)
  let card =
    List.find (fun (c : Oracle.card) -> c.Oracle.cname = "liar-aa") r.Audit.cards
  in
  checkb "card counts unsound answers" true (card.Oracle.unsound > 0)

(* -- an asymmetric module earns a warning ---------------------------- *)

(* Answers free NoAlias only when the two globals are in one lexicographic
   order; the mirrored query (operand swap + flip_temporal) falls back to
   the conservative answer — a precision asymmetry, not a contradiction. *)
let biased (_ : Scaf_profile.Profiles.t) : Module_api.t list =
  [
    Module_api.make ~name:"biased-aa" ~kind:Module_api.Memory ~factored:false
      (fun _ q ->
        match q with
        | Query.Alias a -> (
            match (a.Query.a1.Query.ptr, a.Query.a2.Query.ptr) with
            | Scaf_ir.Value.Global g1, Scaf_ir.Value.Global g2
              when String.compare g1 g2 < 0 ->
                Response.free (Aresult.RAlias Aresult.NoAlias)
            | _ -> Module_api.no_answer q)
        | Query.Modref _ -> Module_api.no_answer q);
  ]

let test_asymmetric_module_warned () =
  let r = Audit.run ~extra_modules:biased ~benchmarks:[ bench ] () in
  (* distinct globals never alias, so the answers are sound... *)
  checki "no soundness findings" 0 (Audit.soundness_count r);
  (* ...but the asymmetry is reported *)
  checkb "asymmetry warning issued" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.severity = Finding.Warning
         && f.Finding.modname = "biased-aa"
         && Astring_contains.contains f.Finding.detail "asymmetric")
       r.Audit.findings)

(* -- query-plan lint -------------------------------------------------- *)

let stub ?caps name ~factored : Module_api.t =
  Module_api.make ?caps ~name ~kind:Module_api.Memory ~factored (fun _ q ->
      Module_api.no_answer q)

let lint_with (modules : Module_api.t list) : Finding.t list =
  Lint.check (Orchestrator.default_config modules)

let has_detail (fs : Finding.t list) (needle : string) : bool =
  List.exists
    (fun (f : Finding.t) ->
      Astring_contains.contains f.Finding.detail needle)
    fs

let test_lint_duplicate_names () =
  let fs = lint_with [ stub "m" ~factored:false; stub "m" ~factored:false ] in
  checkb "duplicate name flagged" true (has_detail fs "duplicate module name")

let test_lint_timeout_without_clock () =
  let config =
    {
      (Orchestrator.default_config [ stub "m" ~factored:false ]) with
      Orchestrator.bailout = Orchestrator.Timeout 1.0;
    }
  in
  checkb "clock-less Timeout flagged" true
    (has_detail (Lint.check config) "without a clock")

let test_lint_module_budget_without_clock () =
  let config =
    {
      (Orchestrator.default_config [ stub "m" ~factored:false ]) with
      Orchestrator.module_budget = Some 1.0;
    }
  in
  checkb "clock-less module budget flagged" true
    (has_detail (Lint.check config) "module_budget without a clock")

let test_lint_empty_caps () =
  let fs =
    lint_with
      [
        stub "mute"
          ~caps:{ Module_api.answers = []; emits = []; reach = Module_api.Reach_global; uses_profile = false }
          ~factored:false;
      ]
  in
  checkb "empty answers flagged" true
    (has_detail fs "no answerable query class")

let test_lint_unreachable_module () =
  (* the client asks modref(instr, instr); nothing emits CModref_loc, so a
     module answering only that class can never fire *)
  let fs =
    lint_with
      [
        stub "live"
          ~caps:
            {
              Module_api.answers = [ Module_api.CModref_instr ];
              emits = [ Module_api.CAlias ];
              reach = Module_api.Reach_global;
              uses_profile = false;
            }
          ~factored:true;
        stub "dead"
          ~caps:
            {
              Module_api.answers = [ Module_api.CModref_loc ];
              emits = [];
              reach = Module_api.Reach_global;
              uses_profile = false;
            }
          ~factored:false;
      ]
  in
  checkb "unreachable module flagged" true (has_detail fs "can never fire");
  checkb "only the dead module is flagged" true
    (List.for_all
       (fun (f : Finding.t) ->
         (not (Astring_contains.contains f.Finding.detail "can never fire"))
         || f.Finding.modname = "dead")
       fs)

let test_lint_premise_cycle_is_info () =
  let fs =
    lint_with
      [
        stub "a"
          ~caps:
            {
              Module_api.answers = [ Module_api.CModref_instr ];
              emits = [ Module_api.CAlias ];
              reach = Module_api.Reach_global;
              uses_profile = false;
            }
          ~factored:true;
        stub "b"
          ~caps:
            {
              Module_api.answers = [ Module_api.CAlias ];
              emits = [ Module_api.CModref_instr ];
              reach = Module_api.Reach_global;
              uses_profile = false;
            }
          ~factored:true;
      ]
  in
  let cycles =
    List.filter
      (fun (f : Finding.t) ->
        Astring_contains.contains f.Finding.detail "premise cycle")
      fs
  in
  checki "one cycle" 1 (List.length cycles);
  checkb "reported at Info" true
    (List.for_all
       (fun (f : Finding.t) -> f.Finding.severity = Finding.Info)
       cycles)

let test_lint_shipped_config_clean () =
  (* the shipped wiring lints clean apart from the intentional, bounded
     premise cycle among the alias modules *)
  let profiles =
    Scaf_profile.Profiler.profile_module
      ~inputs:(Scaf_suite.Program.train_inputs bench)
      (Scaf_suite.Program.program bench)
  in
  let fs = Lint.check (Audit.scaf_config profiles) in
  checkb "only Info findings" true
    (List.for_all
       (fun (f : Finding.t) -> f.Finding.severity = Finding.Info)
       fs)

(* -- the dynamic-dependence oracle ---------------------------------- *)

(* [@acc] carries a flow dependence from each iteration's store to the
   next iteration's load on every input; [@rare] is stored and reloaded
   within an iteration only when input 0 is non-zero. *)
let oracle_src =
  {|
global @acc 8
global @rare 8
func @main() {
entry:
  %mode = call @input(0)
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %v = load 8, @acc
  %v2 = add %v, %i
  store 8, @acc, %v2
  %c = icmp ne %mode, 0
  condbr %c, rare, latch
rare:
  store 8, @rare, %i
  %r = load 8, @rare
  br latch
latch:
  %i2 = add %i, 1
  %d = icmp slt %i2, 10
  condbr %d, loop, exit
exit:
  ret
}
|}

let observe_oracle_src () =
  let m = Scaf_ir.Parser.parse_exn_msg oracle_src in
  let id p =
    let r = ref (-1) in
    Scaf_ir.Irmod.iter_instrs m (fun _ _ i -> if p i then r := i.Scaf_ir.Instr.id);
    !r
  in
  let store g =
    id (fun i ->
        match i.Scaf_ir.Instr.kind with
        | Scaf_ir.Instr.Store { ptr = Scaf_ir.Value.Global g'; _ } -> String.equal g g'
        | _ -> false)
  in
  let load reg = id (fun i -> i.Scaf_ir.Instr.dst = Some reg) in
  let train, any =
    Oracle.observe (Scaf_cfg.Progctx.build m) ~train:[ [| 0L |] ] ~ref_input:[| 1L |]
  in
  (store, load, train, any)

let test_oracle_cross_iteration_flow () =
  let store, load, train, any = observe_oracle_src () in
  let seen w =
    Scaf_profile.Memdep_profile.observed w ~lid:"main:loop" ~src:(store "acc")
      ~dst:(load "v") ~cross:true
  in
  checkb "cross-iteration flow in train" true (seen train);
  checkb "cross-iteration flow in any" true (seen any);
  checkb "no intra-iteration flow (the store follows the load)" false
    (Scaf_profile.Memdep_profile.observed any ~lid:"main:loop" ~src:(store "acc")
       ~dst:(load "v") ~cross:false)

let test_oracle_rare_path_only_in_any () =
  let store, load, train, any = observe_oracle_src () in
  let seen w =
    Scaf_profile.Memdep_profile.observed w ~lid:"main:loop" ~src:(store "rare")
      ~dst:(load "r") ~cross:false
  in
  checkb "rare-path flow not in train" false (seen train);
  checkb "rare-path flow in any" true (seen any);
  (* recording the reference run into [any] left [train] untouched *)
  checkb "train is a subset of any" true
    (List.for_all
       (fun (s, d, c) ->
         Scaf_profile.Memdep_profile.observed any ~lid:"main:loop" ~src:s ~dst:d ~cross:c)
       (Scaf_profile.Memdep_profile.all train ~lid:"main:loop"))

let suite =
  [
    ( "audit",
      [
        Alcotest.test_case "shipped ensemble passes" `Slow
          test_shipped_ensemble_passes;
        Alcotest.test_case "broken module fails the audit" `Slow
          test_broken_module_fails_the_audit;
        Alcotest.test_case "asymmetric module warned" `Slow
          test_asymmetric_module_warned;
        Alcotest.test_case "oracle: cross-iteration flow" `Quick
          test_oracle_cross_iteration_flow;
        Alcotest.test_case "oracle: rare path only in any" `Quick
          test_oracle_rare_path_only_in_any;
        Alcotest.test_case "lint: duplicate names" `Quick
          test_lint_duplicate_names;
        Alcotest.test_case "lint: Timeout without clock" `Quick
          test_lint_timeout_without_clock;
        Alcotest.test_case "lint: module budget without clock" `Quick
          test_lint_module_budget_without_clock;
        Alcotest.test_case "lint: empty capabilities" `Quick
          test_lint_empty_caps;
        Alcotest.test_case "lint: unreachable module" `Quick
          test_lint_unreachable_module;
        Alcotest.test_case "lint: premise cycle is Info" `Quick
          test_lint_premise_cycle_is_info;
        Alcotest.test_case "lint: shipped config clean" `Quick
          test_lint_shipped_config_clean;
      ] );
  ]
