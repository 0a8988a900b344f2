(** Tests for the misspeculation resilience subsystem: the memory undo
    journal, runtime checkpoint/commit/rollback, in-run squash-and-replay,
    adaptive re-planning, the fault-injection harness (every payload
    variant) and orchestrator fault isolation under chaos. *)

open Scaf
open Scaf_interp
open Scaf_faultinject

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check64 = Alcotest.check Alcotest.int64

(* -- memory journal ------------------------------------------------- *)

let test_memory_journal_undo () =
  let mem = Memory.create () in
  let o = Memory.alloc mem ~size:8 ~kind:(Memory.KHeap 1) ~ctx:[] in
  Memory.store mem o.Memory.base 8 42L;
  Memory.set_journaling mem true;
  let mk = Memory.mark mem in
  Memory.store mem o.Memory.base 8 99L;
  Memory.store mem o.Memory.base 8 100L;
  let o2 = Memory.alloc mem ~size:8 ~kind:(Memory.KHeap 2) ~ctx:[] in
  let base2 = o2.Memory.base in
  Memory.undo_to mem mk;
  check64 "pre-mark value restored" 42L (Memory.load mem o.Memory.base 8);
  checkb "post-mark allocation removed" true
    (Memory.locate_opt mem base2 = None);
  (* allocation cursors rewound: a replayed alloc reuses the address *)
  let o3 = Memory.alloc mem ~size:8 ~kind:(Memory.KHeap 3) ~ctx:[] in
  check64 "same base on replay" base2 o3.Memory.base

let test_memory_journal_nested_marks () =
  let mem = Memory.create () in
  let o = Memory.alloc mem ~size:8 ~kind:(Memory.KHeap 1) ~ctx:[] in
  Memory.set_journaling mem true;
  let outer = Memory.mark mem in
  Memory.store mem o.Memory.base 8 1L;
  let inner = Memory.mark mem in
  Memory.store mem o.Memory.base 8 2L;
  Memory.undo_to mem inner;
  check64 "inner undo" 1L (Memory.load mem o.Memory.base 8);
  (* the same object written again after a rollback must re-journal *)
  Memory.store mem o.Memory.base 8 3L;
  Memory.undo_to mem inner;
  check64 "re-journaled after rollback" 1L (Memory.load mem o.Memory.base 8);
  Memory.undo_to mem outer;
  check64 "outer undo" 0L (Memory.load mem o.Memory.base 8)

(* -- runtime checkpoints -------------------------------------------- *)

let test_runtime_commit_matches_loop () =
  let rt = Runtime.create (Memory.create ()) in
  let _ = Runtime.checkpoint rt ~loop_ord:1 in
  Runtime.commit rt ~loop_ord:2;
  checki "mismatched commit is a no-op" 1 (List.length rt.Runtime.stack);
  Runtime.commit rt ~loop_ord:1;
  checki "matching commit pops" 0 (List.length rt.Runtime.stack);
  Runtime.commit rt ~loop_ord:1;
  checki "commit on empty stack is a no-op" 0 (List.length rt.Runtime.stack);
  checki "one commit counted" 1 rt.Runtime.commits

let test_runtime_rollback_restores_state () =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let o = Memory.alloc mem ~size:8 ~kind:(Memory.KHeap 1) ~ctx:[] in
  Memory.store mem o.Memory.base 8 7L;
  let id = Runtime.checkpoint rt ~loop_ord:1 in
  Memory.store mem o.Memory.base 8 9L;
  Runtime.set_heap rt ~addr:o.Memory.base ~heap_tag:5;
  checkb "active before rollback" true (Runtime.is_active rt id);
  Runtime.rollback_to rt id;
  check64 "memory rolled back" 7L (Memory.load mem o.Memory.base 8);
  checki "heap tag rolled back" 0 o.Memory.heap_tag;
  checkb "checkpoint survives for the replay" true (Runtime.is_active rt id);
  checki "rollback counted" 1 rt.Runtime.rollbacks;
  Runtime.disable_tag rt 3L;
  checkb "disabled tag skips its beacon" true
    (try
       Runtime.beacon rt ~tag:3L;
       true
     with Runtime.Misspec _ -> false)

(* -- in-run squash-and-replay --------------------------------------- *)

let test_direct_value_predict_replays_in_run () =
  let r = Harness.run_direct ~seed:1 "value-predict" in
  checkb "correct final result" true r.Harness.ok;
  checkb "misspeculated" true r.Harness.misspeculated;
  checkb "recovered in-run, not by re-planning" true
    (r.Harness.rollbacks >= 1 && r.Harness.replans = 0);
  checkb "not degraded" false r.Harness.degraded

let test_direct_points_to_replans () =
  (* the entry beacon fires outside every checkpoint: only the adaptive
     re-planner can absorb it *)
  let r = Harness.run_direct ~seed:1 "points-to-objects" in
  checkb "correct final result" true r.Harness.ok;
  checki "one assertion blacklisted" 1 r.Harness.replans;
  checkb "second attempt commits" false r.Harness.degraded

let test_commit_balances_checkpoints () =
  (* a *true* assertion: the run commits its checkpoint and never rolls
     back *)
  let prog =
    Scaf_cfg.Progctx.build (Scaf_ir.Parser.parse_exn_msg Harness.direct_src)
  in
  let m = prog.Scaf_cfg.Progctx.m in
  let good =
    {
      Assertion.module_id = "fi-true";
      points = [];
      cost = 1.0;
      conflicts = [];
      payload =
        Assertion.Value_predict { load = Harness.by_dst m "v"; value = 7L };
    }
  in
  let inst =
    Scaf_transform.Instrument.instrument prog
      ~checkpoints:(Harness.all_lids prog) [ good ]
  in
  let r = Eval.run inst.Scaf_transform.Instrument.imod in
  checki "one invocation checkpointed" 1 r.Eval.checkpoints;
  checki "no rollbacks" 0 r.Eval.rollbacks;
  checkb "output intact" true (r.Eval.output = (Eval.run m).Eval.output)

(* -- the harness: every payload variant, >= 20 seeded scenarios ------ *)

let test_direct_cases_all_payloads () =
  List.iter
    (fun case ->
      let r = Harness.run_direct ~seed:3 case in
      checkb (case ^ ": final result equals original") true r.Harness.ok;
      checkb (case ^ ": misspeculation forced") true r.Harness.misspeculated)
    Harness.direct_case_names

let test_harness_all_scenarios_recover () =
  let rs = Harness.run_all ~seed:2026 () in
  checkb ">= 20 scenarios" true (List.length rs >= 20);
  List.iter
    (fun (r : Harness.outcome) ->
      checkb (r.Harness.scenario ^ ": commits or recovers correctly") true
        r.Harness.ok;
      if r.Harness.forced then
        checkb (r.Harness.scenario ^ ": fault actually injected") true
          r.Harness.misspeculated)
    rs;
  (* the perturbations are not all no-ops: some pipeline scenario must
     actually misspeculate and recover *)
  checkb "some pipeline scenario misspeculated" true
    (List.exists
       (fun (r : Harness.outcome) ->
         (not r.Harness.forced) && r.Harness.misspeculated)
       rs)

(* -- orchestrator fault isolation ----------------------------------- *)

let nomodref_free = Response.free (Aresult.RModref Aresult.NoModRef)

let const_module name resp =
  Module_api.make ~name ~kind:Module_api.Memory ~factored:false (fun _ q ->
      match q with
      | Query.Modref _ -> resp
      | Query.Alias _ -> Module_api.no_answer q)

let raising_module name =
  Module_api.make ~name ~kind:Module_api.Memory ~factored:false (fun _ _ ->
      failwith "injected module fault")

let tiny_prog =
  Scaf_cfg.Progctx.build
    (Scaf_ir.Parser.parse_exn_msg "func @main() {\nentry:\n  ret\n}")

let mq n = Query.modref_instrs ~tr:Query.Same n (n + 1)

let test_isolation_raising_module () =
  let o =
    Orchestrator.create tiny_prog
      (Orchestrator.default_config
         [ raising_module "bad"; const_module "good" nomodref_free ])
  in
  let r = Orchestrator.handle o (mq 100) in
  checkb "query still answered precisely" true
    (r.Response.result = Aresult.RModref Aresult.NoModRef);
  checki "fault recorded" 1 (Orchestrator.stats o).Orchestrator.module_faults;
  (* distinct queries (the memo would absorb repeats) trip the breaker *)
  ignore (Orchestrator.handle o (mq 200));
  ignore (Orchestrator.handle o (mq 300));
  checkb "module quarantined" true (Orchestrator.quarantined o = [ "bad" ]);
  ignore (Orchestrator.handle o (mq 400));
  checkb "quarantined module skipped" true
    ((Orchestrator.stats o).Orchestrator.quarantine_skips >= 1);
  checki "three faults total" 3 (Orchestrator.stats o).Orchestrator.module_faults

let test_isolation_success_resets_breaker () =
  let flaky_fails = ref true in
  let flaky =
    Module_api.make ~name:"flaky" ~kind:Module_api.Memory ~factored:false
      (fun _ q ->
        if !flaky_fails then failwith "flaky" else Module_api.no_answer q)
  in
  let o =
    Orchestrator.create tiny_prog (Orchestrator.default_config [ flaky ])
  in
  ignore (Orchestrator.handle o (mq 100));
  ignore (Orchestrator.handle o (mq 200));
  flaky_fails := false;
  ignore (Orchestrator.handle o (mq 300));
  flaky_fails := true;
  ignore (Orchestrator.handle o (mq 400));
  ignore (Orchestrator.handle o (mq 500));
  (* 2 faults, success, 2 faults: never 3 consecutive *)
  checkb "breaker not tripped" true (Orchestrator.quarantined o = []);
  checki "consecutive tracks the streak" 2
    (Orchestrator.health_of o "flaky").Orchestrator.consecutive

let test_isolation_budget_overrun () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1.0;
    !now
  in
  let stalling =
    Module_api.make ~name:"stall" ~kind:Module_api.Memory ~factored:false
      (fun _ _ ->
        now := !now +. 1000.0;
        nomodref_free)
  in
  let o =
    Orchestrator.create tiny_prog
      {
        (Orchestrator.default_config
           [ stalling; const_module "good" nomodref_free ])
        with
        Orchestrator.clock = Some clock;
        module_budget = Some 10.0;
      }
  in
  let r = Orchestrator.handle o (mq 100) in
  checkb "stalled answer discarded, good answer used" true
    (r.Response.result = Aresult.RModref Aresult.NoModRef);
  checki "overrun recorded" 1 (Orchestrator.stats o).Orchestrator.module_overruns;
  checki "overrun counts against the module" 1
    (Orchestrator.health_of o "stall").Orchestrator.overruns

let test_chaos_raising_never_aborts () =
  let c =
    Harness.run_chaos ~seed:11 ~p_raise:1.0 "052.alvinn"
  in
  checkb "queries issued" true (c.Harness.c_queries > 0);
  checki "every query answered" c.Harness.c_queries c.Harness.c_answered;
  checkb "faults recorded" true (c.Harness.c_faults > 0);
  checkb "modules quarantined" true (c.Harness.c_quarantined <> [])

let test_chaos_stalling_never_aborts () =
  let c =
    Harness.run_chaos ~seed:12 ~p_delay:1.0 ~module_budget:10.0 "052.alvinn"
  in
  checki "every query answered" c.Harness.c_queries c.Harness.c_answered;
  checkb "overruns recorded" true (c.Harness.c_overruns > 0);
  checkb "stalling modules quarantined" true (c.Harness.c_quarantined <> [])

let test_chaos_mixed_never_aborts () =
  let c =
    Harness.run_chaos ~seed:13 ~p_raise:0.2 ~p_delay:0.2 ~p_corrupt:0.2
      ~module_budget:10.0 "164.gzip"
  in
  checki "every query answered" c.Harness.c_queries c.Harness.c_answered

let test_chaos_corrupt_pipeline_recovers () =
  (* corrupted speculative answers flow into the plan; acting on them must
     misspeculate immediately and recovery must still converge *)
  let b = Option.get (Scaf_suite.Registry.find "052.alvinn") in
  let m = Scaf_suite.Program.program b in
  let p = Scaf_suite.Program.profiles b in
  let prog = p.Scaf_profile.Profiles.ctx in
  let modules =
    Scaf_analysis.Registry.create prog @ Scaf_speculation.Registry.create p
  in
  let wrapped, counters =
    Chaos.wrap_all (Chaos.config ~seed:7 ~p_corrupt:0.5 ()) modules
  in
  let o = Scaf_pdg.Schemes.orchestrate prog wrapped in
  let lids = List.map fst (Scaf_pdg.Nodep.hot_loop_weights p) in
  let reports =
    List.map
      (fun lid ->
        Scaf_pdg.Pdg.run_loop prog ~resolver:(Orchestrator.handle o) lid)
      lids
  in
  let replan ~blacklist =
    let plan = Scaf_transform.Plan.build ~blacklist reports in
    if plan.Scaf_transform.Plan.selected = [] && blacklist <> [] then None
    else
      Some
        (Scaf_transform.Instrument.instrument prog ~checkpoints:lids
           plan.Scaf_transform.Plan.selected)
  in
  let input = Scaf_suite.Program.ref_input b in
  let reference = Eval.run ~input m in
  let a =
    Scaf_transform.Apply.run_adaptive ~original:m ~replan ~input
      ~max_retries:5 ()
  in
  checkb "corruption injected" true
    (List.exists (fun c -> c.Chaos.corrupts > 0) counters);
  checkb "final result equals original" true
    (a.Scaf_transform.Apply.final.Eval.output = reference.Eval.output
    && Int64.equal a.Scaf_transform.Apply.final.Eval.ret reference.Eval.ret)

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "memory: journal undo" `Quick
          test_memory_journal_undo;
        Alcotest.test_case "memory: nested marks" `Quick
          test_memory_journal_nested_marks;
        Alcotest.test_case "runtime: commit matches loop" `Quick
          test_runtime_commit_matches_loop;
        Alcotest.test_case "runtime: rollback restores state" `Quick
          test_runtime_rollback_restores_state;
        Alcotest.test_case "replay: value-predict recovers in-run" `Quick
          test_direct_value_predict_replays_in_run;
        Alcotest.test_case "replay: points-to escapes to re-planner" `Quick
          test_direct_points_to_replans;
        Alcotest.test_case "replay: commit balances checkpoints" `Quick
          test_commit_balances_checkpoints;
        Alcotest.test_case "harness: every payload variant recovers" `Quick
          test_direct_cases_all_payloads;
        Alcotest.test_case "harness: all seeded scenarios recover" `Slow
          test_harness_all_scenarios_recover;
        Alcotest.test_case "isolation: raising module" `Quick
          test_isolation_raising_module;
        Alcotest.test_case "isolation: success resets breaker" `Quick
          test_isolation_success_resets_breaker;
        Alcotest.test_case "isolation: budget overrun" `Quick
          test_isolation_budget_overrun;
        Alcotest.test_case "chaos: raising ensemble never aborts" `Slow
          test_chaos_raising_never_aborts;
        Alcotest.test_case "chaos: stalling ensemble never aborts" `Slow
          test_chaos_stalling_never_aborts;
        Alcotest.test_case "chaos: mixed faults never abort" `Slow
          test_chaos_mixed_never_aborts;
        Alcotest.test_case "chaos: corrupted answers recover" `Slow
          test_chaos_corrupt_pipeline_recovers;
      ] );
  ]
