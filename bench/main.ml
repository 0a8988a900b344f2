(** Microbenchmarks (Bechamel).

    - [validation/*] — Figure 7: per-invocation cost of every SCAF
      validation primitive vs. the shadow-memory memory-speculation check.
    - [query/*] — per-scheme dependence-query cost on the motivating
      example (one full PDG hot-loop sweep per run, fresh orchestrator).
    - [ablation/*] — the design choices DESIGN.md §7 calls out: the
      desired-result parameter, join policy, bail-out policy, module order
      and premise depth (plus a precision table printed after the timings).
    - [cache/*] — the two-tier response cache: shared-store hit, miss,
      canonical (mirrored-alias) hit, insert-with-eviction, shared-cache
      contention at 1/2/4 domains, and the L1 tier ([cache/l1-*]): the
      unsynchronized warm hit, the shared pull through an L1 front, and
      the amortized publication batch.
    - [parallel/*] — the work-stealing batched query engine: one full
      429.mcf hot-loop sweep under SCAF at jobs 1/2/4 (shared cache, one
      resolver per worker), the same sweep on a persistent pool, and a
      steal-heavy imbalanced workload ([parallel/steal-*]).
    - [substrate/*] — parser, dominator tree, loop detection, interpreter
      and profiler throughput. [substrate/interp-suite] and
      [substrate/profile-suite] run the 16 suite programs' training inputs
      (bare, then under every profiler) and report ns per executed
      instruction instead of per run.
    - [resilience/*] — checkpoint/journal overhead: an uninstrumented run
      vs. checkpoints-only vs. a forced rollback+replay, plus one chaos
      sweep with the whole ensemble raising behind the circuit breaker.
    - [trace/*] — the observability layer: the same SCAF sweep with the
      no-op sink, an enabled-but-sampled-out sink, a collect-everything
      sink, and a metrics registry attached.
    - [incremental/*] — the incremental re-analysis engine: a warm
      full-workload sweep (all cache hits), one edit/invalidate
      round-trip, and edit + full re-answer.

    Run with: dune exec bench/main.exe [-- GROUP...] — group names select
    a subset. [--json FILE] additionally writes every estimate as a flat
    JSON snapshot (the committed BENCH_*.json baselines;
    ci/compare_bench.py diffs a fresh run against one). The special
    argument [trace-gate] instead runs the CI regression gate: the
    enabled-but-sampled-out hot path must stay within tolerance of the
    no-op-sink baseline (non-zero exit otherwise); [incremental-gate]
    runs the incremental-engine gate: on every fig8 benchmark the
    scripted single-loop edit must re-answer <20%% of the workload and
    stay byte-identical to the batch run; [scale-gate] runs the multicore
    scaling gate: the fig8 and fig10 fan-outs at [--jobs 4] must be at
    least 2x faster than at [--jobs 1] (skipped with exit 0 on machines
    with fewer than 4 cores). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let motivating_src =
  {|
global @a 8
global @b 8
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %r = call @input(0)
  %c = icmp ne %r, 0
  condbr %c, rare, common
rare:
  store 8, @b, 7
  br cont
common:
  store 8, @a, %i
  br cont
cont:
  %v = load 8, @a
  %w = load 8, @b
  %s = add %v, %w
  store 8, @b, %s
  br latch
latch:
  %i2 = add %i, 1
  store 8, @a, %i2
  %d = icmp slt %i2, 200
  condbr %d, loop, exit
exit:
  ret
}
|}

let motivating = Scaf_ir.Parser.parse_exn_msg motivating_src

let suite_bench =
  Scaf_suite.Program.program (Option.get (Scaf_suite.Registry.find "181.mcf"))

let profiles = lazy (Scaf_profile.Profiler.profile_module motivating)

let mcf_profiles =
  lazy (Scaf_profile.Profiler.profile_module ~inputs:[ [| 0L |] ] suite_bench)

(* ------------------------------------------------------------------ *)
(* validation/* — Figure 7                                             *)
(* ------------------------------------------------------------------ *)

let validation_tests =
  let mem = Scaf_interp.Memory.create () in
  let rt = Scaf_interp.Runtime.create mem in
  let o =
    Scaf_interp.Memory.alloc mem ~size:64 ~kind:(Scaf_interp.Memory.KHeap 0)
      ~ctx:[]
  in
  let addr = o.Scaf_interp.Memory.base in
  Scaf_interp.Runtime.set_heap rt ~addr ~heap_tag:1;
  Scaf_interp.Runtime.ms_write rt ~addr ~size:8 ~group:7L ~tag:0L;
  [
    Test.make ~name:"validation/residue-check"
      (Staged.stage (fun () ->
           Scaf_interp.Runtime.check_residue rt ~addr ~allowed:1L ~tag:0L));
    Test.make ~name:"validation/heap-check"
      (Staged.stage (fun () ->
           Scaf_interp.Runtime.check_heap rt ~addr ~heap_tag:1 ~tag:0L));
    Test.make ~name:"validation/value-check"
      (Staged.stage (fun () ->
           Scaf_interp.Runtime.check_value rt ~value:5L ~predicted:5L ~tag:0L));
    Test.make ~name:"validation/iter-check"
      (Staged.stage (fun () ->
           Scaf_interp.Runtime.iter_check rt ~heap_tag:99 ~tag:0L));
    Test.make ~name:"validation/memspec-write+read"
      (Staged.stage (fun () ->
           Scaf_interp.Runtime.ms_write rt ~addr ~size:8 ~group:7L ~tag:0L;
           Scaf_interp.Runtime.ms_read rt ~addr ~size:8 ~group:7L ~tag:0L));
  ]

(* ------------------------------------------------------------------ *)
(* query/* — one hot-loop PDG sweep per scheme                         *)
(* ------------------------------------------------------------------ *)

let sweep (mk : Scaf_profile.Profiles.t -> Scaf_pdg.Schemes.resolver) () =
  let p = Lazy.force profiles in
  let r = mk p in
  ignore
    (Scaf_pdg.Pdg.run_loop p.Scaf_profile.Profiles.ctx
       ~resolver:r.Scaf_pdg.Schemes.resolve "main:loop")

let query_tests =
  [
    Test.make ~name:"query/caf-sweep" (Staged.stage (sweep Scaf_pdg.Schemes.caf));
    Test.make ~name:"query/confluence-sweep"
      (Staged.stage (sweep Scaf_pdg.Schemes.confluence));
    Test.make ~name:"query/scaf-sweep"
      (Staged.stage (sweep Scaf_pdg.Schemes.scaf));
  ]

(* ------------------------------------------------------------------ *)
(* ablation/*                                                          *)
(* ------------------------------------------------------------------ *)

let orchestrator_with (p : Scaf_profile.Profiles.t)
    (f : Scaf.Orchestrator.config -> Scaf.Orchestrator.config) :
    Scaf.Orchestrator.t =
  let prog = p.Scaf_profile.Profiles.ctx in
  let modules =
    Scaf_analysis.Registry.create prog @ Scaf_speculation.Registry.create p
  in
  Scaf.Orchestrator.create prog (f (Scaf.Orchestrator.default_config modules))

let ablation_sweep f () =
  let p = Lazy.force profiles in
  let o = orchestrator_with p f in
  ignore
    (Scaf_pdg.Pdg.run_loop p.Scaf_profile.Profiles.ctx
       ~resolver:(Scaf.Orchestrator.handle o)
       "main:loop")

let ablation_tests =
  [
    Test.make ~name:"ablation/desired-result-on"
      (Staged.stage (ablation_sweep (fun c -> c)));
    Test.make ~name:"ablation/desired-result-off"
      (Staged.stage
         (ablation_sweep (fun c ->
              { c with Scaf.Orchestrator.respect_desired = false })));
    Test.make ~name:"ablation/join-all"
      (Staged.stage
         (ablation_sweep (fun c ->
              { c with Scaf.Orchestrator.join_policy = Scaf.Join.All })));
    Test.make ~name:"ablation/bailout-exhaustive"
      (Staged.stage
         (ablation_sweep (fun c ->
              {
                c with
                Scaf.Orchestrator.bailout = Scaf.Orchestrator.Exhaustive;
              })));
    Test.make ~name:"ablation/spec-modules-first"
      (Staged.stage
         (ablation_sweep (fun c ->
              {
                c with
                Scaf.Orchestrator.modules = List.rev c.Scaf.Orchestrator.modules;
              })));
    Test.make ~name:"ablation/premise-depth-1"
      (Staged.stage
         (ablation_sweep (fun c ->
              { c with Scaf.Orchestrator.max_premise_depth = 1 })));
  ]

(* ------------------------------------------------------------------ *)
(* cache/* — the canonicalizing sharded response cache                  *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  let resp = Scaf.Response.free (Scaf.Aresult.RModref Scaf.Aresult.NoModRef) in
  let mq n = Scaf.Query.modref_instrs ~tr:Scaf.Query.Same n (n + 1) in
  let aq n =
    Scaf.Query.alias ~fname:"main" ~tr:Scaf.Query.Before
      (Scaf_ir.Value.Global "a", 8)
      (Scaf_ir.Value.Reg (Printf.sprintf "r%d" n), 8)
  in
  let mirror q =
    match q with
    | Scaf.Query.Alias a ->
        Scaf.Query.Alias
          {
            a with
            Scaf.Query.a1 = a.Scaf.Query.a2;
            a2 = a.Scaf.Query.a1;
            atr = Scaf.Query.flip_temporal a.Scaf.Query.atr;
          }
    | q -> q
  in
  let warm = Scaf.Qcache.create () in
  for n = 0 to 1023 do
    Scaf.Qcache.add_q warm (mq n) resp;
    Scaf.Qcache.add_q warm (aq n) resp
  done;
  let full = Scaf.Qcache.create ~shards:1 ~capacity:256 () in
  for n = 0 to 255 do
    Scaf.Qcache.add_q full (mq n) resp
  done;
  let evict_n = ref 0 in
  (* one run = [ops] lookups + inserts per domain, all on one shared cache *)
  let contention domains =
    let ops = 8192 in
    fun () ->
      let body i () =
        for n = 0 to ops - 1 do
          let k = ((i * ops) + n) mod 1024 in
          ignore (Scaf.Qcache.find_q warm (mq k));
          if n mod 8 = 0 then Scaf.Qcache.add_q warm (mq k) resp
        done
      in
      let ds = List.init (domains - 1) (fun i -> Domain.spawn (body (i + 1))) in
      body 0 ();
      List.iter Domain.join ds
  in
  (* the L1 tier: one local pre-warmed on a single key (the pure
     unsynchronized probe), one too small to retain its pulls (every find
     falls through to the shared store and pulls the entry back in), and
     one measuring the amortized flush_every=32 publication batch *)
  let l1_warm = Scaf.Qcache.Local.create warm in
  ignore (Scaf.Qcache.Local.find_q l1_warm (mq 17));
  let l1_tiny = Scaf.Qcache.Local.create ~capacity:8 warm in
  let pull_n = ref 0 in
  (* the publish bench feeds a dedicated store: millions of fresh keys
     per bechamel run would evict [warm]'s working set and poison the
     contention measurements below *)
  let l1_pub = Scaf.Qcache.Local.create ~flush_every:32 (Scaf.Qcache.create ()) in
  let pub_n = ref 0 in
  [
    Test.make ~name:"cache/hit"
      (Staged.stage (fun () -> ignore (Scaf.Qcache.find_q warm (mq 17))));
    Test.make ~name:"cache/canonical-hit"
      (Staged.stage (fun () -> ignore (Scaf.Qcache.find_q warm (mirror (aq 17)))));
    Test.make ~name:"cache/miss"
      (Staged.stage (fun () -> ignore (Scaf.Qcache.find_q warm (mq 999_999))));
    Test.make ~name:"cache/add-evict"
      (Staged.stage (fun () ->
           incr evict_n;
           Scaf.Qcache.add_q full (mq (256 + !evict_n)) resp));
    Test.make ~name:"cache/l1-hit"
      (Staged.stage (fun () -> ignore (Scaf.Qcache.Local.find_q l1_warm (mq 17))));
    Test.make ~name:"cache/l1-pull-shared"
      (Staged.stage (fun () ->
           incr pull_n;
           ignore (Scaf.Qcache.Local.find_q l1_tiny (mq (!pull_n mod 1024)))));
    Test.make ~name:"cache/l1-add-publish-32"
      (Staged.stage (fun () ->
           incr pub_n;
           let q = mq (1_000_000 + !pub_n) in
           match Scaf.Qcache.key_of ~epoch:0 q with
           | Some k -> Scaf.Qcache.Local.add l1_pub k resp
           | None -> ()));
    Test.make ~name:"cache/contention-1dom" (Staged.stage (contention 1));
    Test.make ~name:"cache/contention-2dom" (Staged.stage (contention 2));
    Test.make ~name:"cache/contention-4dom" (Staged.stage (contention 4));
  ]

(* ------------------------------------------------------------------ *)
(* parallel/* — the batched query engine: fig8-style sweep vs jobs      *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  let p =
    lazy
      (let b = Option.get (Scaf_suite.Registry.find "429.mcf") in
       Scaf_profile.Profiler.profile_module
         ~inputs:(Scaf_suite.Program.train_inputs b)
         (Scaf_suite.Program.program b))
  in
  (* one run = the full hot-loop PDG sweep of 429.mcf (4 hot loops) under
     SCAF, fanned out across [jobs] worker domains over a shared cache *)
  let sweep jobs () =
    let p = Lazy.force p in
    ignore
      (Scaf_pdg.Nodep.evaluate_scheme ~jobs ~bname:"429.mcf" p
         (Scaf_pdg.Schemes.scaf_scheme p))
  in
  (* a persistent pool shared across runs: the steady-state fan-out cost,
     without the per-call domain spawn the jobs-N variants pay *)
  let pool4 = lazy (Scaf_pdg.Scheduler.create ~jobs:4 ()) in
  let pooled_sweep () =
    let p = Lazy.force p in
    ignore
      (Scaf_pdg.Nodep.evaluate_scheme ~pool:(Lazy.force pool4) ~bname:"429.mcf"
         p
         (Scaf_pdg.Schemes.scaf_scheme p))
  in
  (* a deliberately imbalanced batch: the static split hands the first
     worker all the heavy items, so every measured run exercises the
     steal path (half-interval theft + deterministic reassembly) *)
  let steal_sweep () =
    let pool = Lazy.force pool4 in
    let spin k =
      let acc = ref 0 in
      for i = 1 to k do
        acc := !acc + i
      done;
      Sys.opaque_identity !acc
    in
    ignore
      (Scaf_pdg.Scheduler.map pool
         ~state:(fun () -> ())
         ~f:(fun () i -> spin (if i < 8 then 100_000 else 1_000))
         (List.init 64 Fun.id))
  in
  [
    Test.make ~name:"parallel/fig8-sweep-jobs-1" (Staged.stage (sweep 1));
    Test.make ~name:"parallel/fig8-sweep-jobs-2" (Staged.stage (sweep 2));
    Test.make ~name:"parallel/fig8-sweep-jobs-4" (Staged.stage (sweep 4));
    Test.make ~name:"parallel/fig8-sweep-pool-4" (Staged.stage pooled_sweep);
    Test.make ~name:"parallel/steal-imbalanced-4dom" (Staged.stage steal_sweep);
  ]

(* ------------------------------------------------------------------ *)
(* substrate/*                                                         *)
(* ------------------------------------------------------------------ *)

(* Rows reported per executed instruction: name -> instructions per run. *)
let per_instr_rows : (string, int) Hashtbl.t = Hashtbl.create 4

let per_instruction name executed = Hashtbl.replace per_instr_rows name executed

let substrate_tests =
  let big =
    Scaf_suite.Program.program (Option.get (Scaf_suite.Registry.find "429.mcf"))
  in
  let text = Scaf_ir.Irmod.to_string big in
  let f = Option.get (Scaf_ir.Irmod.find_func suite_bench "arc_run") in
  let cfg = Scaf_cfg.Cfg.of_func f in
  let motivating_ctx = Scaf_cfg.Progctx.build motivating in
  let suite =
    List.map
      (fun b -> (b, Scaf_suite.Program.ctx b))
      (Scaf_suite.Registry.all ())
  in
  let suite_runs =
    List.concat_map
      (fun (b, ctx) ->
        List.map
          (fun input -> (ctx.Scaf_cfg.Progctx.m, input))
          (Scaf_suite.Program.train_inputs b))
      suite
  in
  let executed =
    List.fold_left
      (fun n (m, input) ->
        n + (Scaf_interp.Eval.run ~input m).Scaf_interp.Eval.instrs_executed)
      0 suite_runs
  in
  per_instruction "substrate/interp-suite" executed;
  per_instruction "substrate/profile-suite" executed;
  [
    Test.make ~name:"substrate/parse-429.mcf"
      (Staged.stage (fun () -> ignore (Scaf_ir.Parser.parse_exn_msg text)));
    Test.make ~name:"substrate/domtree"
      (Staged.stage (fun () -> ignore (Scaf_cfg.Dom.compute cfg)));
    Test.make ~name:"substrate/postdomtree"
      (Staged.stage (fun () -> ignore (Scaf_cfg.Dom.compute_post cfg)));
    Test.make ~name:"substrate/loops"
      (Staged.stage (fun () -> ignore (Scaf_cfg.Loops.compute cfg)));
    Test.make ~name:"substrate/interp-motivating"
      (Staged.stage (fun () -> ignore (Scaf_interp.Eval.run motivating)));
    Test.make ~name:"substrate/profile-motivating"
      (Staged.stage (fun () ->
           ignore (Scaf_profile.Profiler.profile_module motivating)));
    Test.make ~name:"substrate/interp-suite"
      (Staged.stage (fun () ->
           List.iter
             (fun (m, input) -> ignore (Scaf_interp.Eval.run ~input m))
             suite_runs));
    Test.make ~name:"substrate/profile-suite"
      (Staged.stage (fun () ->
           List.iter
             (fun (b, ctx) ->
               ignore
                 (Scaf_profile.Profiler.profile
                    ~inputs:(Scaf_suite.Program.train_inputs b)
                    ctx))
             suite));
    Test.make ~name:"substrate/oracle-observe-motivating"
      (Staged.stage (fun () ->
           ignore
             (Scaf_audit.Oracle.observe motivating_ctx ~train:[ [||] ]
                ~ref_input:[||])));
  ]

(* ------------------------------------------------------------------ *)
(* resilience/* — checkpoint overhead and recovery cost                 *)
(* ------------------------------------------------------------------ *)

let resilience_tests =
  let prog = Scaf_cfg.Progctx.build motivating in
  let m = prog.Scaf_cfg.Progctx.m in
  let lids =
    Hashtbl.fold (fun lid _ acc -> lid :: acc) prog.Scaf_cfg.Progctx.by_lid []
    |> List.sort compare
  in
  let load_v = ref (-1) in
  Scaf_ir.Irmod.iter_instrs m (fun _ _ i ->
      if i.Scaf_ir.Instr.dst = Some "v" then load_v := i.Scaf_ir.Instr.id);
  let ckpt_only = Scaf_transform.Instrument.instrument prog ~checkpoints:lids [] in
  let failing =
    {
      Scaf.Assertion.module_id = "bench-false";
      points = [];
      cost = 1.0;
      conflicts = [];
      payload = Scaf.Assertion.Value_predict { load = !load_v; value = -999L };
    }
  in
  let rollback =
    Scaf_transform.Instrument.instrument prog ~checkpoints:lids [ failing ]
  in
  let chaos_sweep () =
    let p = Lazy.force profiles in
    let prog = p.Scaf_profile.Profiles.ctx in
    let modules =
      Scaf_analysis.Registry.create prog @ Scaf_speculation.Registry.create p
    in
    let wrapped, _ =
      Scaf_faultinject.Chaos.wrap_all
        (Scaf_faultinject.Chaos.config ~seed:1 ~p_raise:0.5 ())
        modules
    in
    let o = Scaf.Orchestrator.create prog (Scaf.Orchestrator.default_config wrapped) in
    ignore
      (Scaf_pdg.Pdg.run_loop prog ~resolver:(Scaf.Orchestrator.handle o) "main:loop")
  in
  [
    Test.make ~name:"resilience/run-plain"
      (Staged.stage (fun () -> ignore (Scaf_interp.Eval.run m)));
    Test.make ~name:"resilience/run-checkpointed"
      (Staged.stage (fun () ->
           ignore (Scaf_interp.Eval.run ckpt_only.Scaf_transform.Instrument.imod)));
    Test.make ~name:"resilience/rollback-replay"
      (Staged.stage (fun () ->
           ignore (Scaf_interp.Eval.run rollback.Scaf_transform.Instrument.imod)));
    Test.make ~name:"resilience/chaos-sweep" (Staged.stage chaos_sweep);
  ]

(* ------------------------------------------------------------------ *)
(* trace/* — observability overhead                                     *)
(* ------------------------------------------------------------------ *)

(* one run = the motivating example's hot-loop PDG sweep under SCAF with
   the given sink / metrics registry attached (fresh resolver per run,
   like query/scaf-sweep) *)
let traced_sweep ?metrics (sink : Scaf_trace.Sink.t) () =
  let p = Lazy.force profiles in
  let r =
    (Scaf_pdg.Schemes.scaf_scheme ~trace:sink ?metrics p).Scaf_pdg.Schemes.spawn
      ()
  in
  ignore
    (Scaf_pdg.Pdg.run_loop p.Scaf_profile.Profiles.ctx
       ~resolver:r.Scaf_pdg.Schemes.resolve "main:loop")

let trace_tests =
  [
    Test.make ~name:"trace/sweep-noop-sink"
      (Staged.stage (traced_sweep Scaf_trace.Sink.noop));
    Test.make ~name:"trace/sweep-sampled-out"
      (Staged.stage (fun () ->
           traced_sweep (Scaf_trace.Sink.create ~sample_every:1_000_000 ()) ()));
    Test.make ~name:"trace/sweep-collect-all"
      (Staged.stage (fun () -> traced_sweep (Scaf_trace.Sink.create ()) ()));
    Test.make ~name:"trace/sweep-metrics"
      (Staged.stage (fun () ->
           traced_sweep
             ~metrics:(Scaf_trace.Metrics.create ())
             Scaf_trace.Sink.noop ()));
  ]

(* ------------------------------------------------------------------ *)
(* incremental/* — the edit/invalidate/re-answer engine                 *)
(* ------------------------------------------------------------------ *)

(* One warm 181.mcf session, shared by the whole group. Each edit run is
   an insert/delete round-trip: the program returns to its original shape,
   so repeated bench iterations neither grow the module nor drift the
   measured work. *)
let incr_session =
  lazy
    (let s =
       Scaf_incremental.Session.create
         (Option.get (Scaf_suite.Registry.find "181.mcf"))
     in
     List.iter
       (fun q -> ignore (Scaf_incremental.Session.ask s q))
       (Scaf_incremental.Session.workload s);
     s)

let incr_edit_roundtrip (s : Scaf_incremental.Session.t) =
  let module Session = Scaf_incremental.Session in
  match Session.edit s [ Session.auto_edit s ] with
  | Error e -> failwith (Scaf_lint.Diagnostic.to_summary e)
  | Ok (diff, _) -> (
      match diff.Scaf_suite.Edit.touched_instrs with
      | [ id ] -> (
          match Session.edit s [ Scaf_suite.Edit.Delete_instr { id } ] with
          | Error e -> failwith (Scaf_lint.Diagnostic.to_summary e)
          | Ok _ -> ())
      | _ -> failwith "roundtrip: unexpected diff")

let incremental_tests =
  [
    Test.make ~name:"incremental/warm-sweep"
      (Staged.stage (fun () ->
           let s = Lazy.force incr_session in
           List.iter
             (fun q -> ignore (Scaf_incremental.Session.ask s q))
             (Scaf_incremental.Session.workload s)));
    Test.make ~name:"incremental/edit-invalidate-roundtrip"
      (Staged.stage (fun () ->
           incr_edit_roundtrip (Lazy.force incr_session)));
    Test.make ~name:"incremental/post-edit-reanswer"
      (Staged.stage (fun () ->
           let s = Lazy.force incr_session in
           incr_edit_roundtrip s;
           List.iter
             (fun q -> ignore (Scaf_incremental.Session.ask s q))
             (Scaf_incremental.Session.workload s)));
  ]

(* The incremental CI gate: on every fig8 benchmark, the scripted
   single-loop edit must (a) re-answer fewer than 20% of the workload
   queries and (b) leave the surviving answers byte-identical to a
   from-scratch batch run of the edited program. *)
let incremental_gate () =
  let module Session = Scaf_incremental.Session in
  let fail = ref 0 in
  List.iter
    (fun name ->
      let s = Session.create (Option.get (Scaf_suite.Registry.find name)) in
      List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s);
      match Session.edit s [ Session.auto_edit s ] with
      | Error e ->
          Fmt.pr "%-16s EDIT FAILED: %s@." name
            (Scaf_lint.Diagnostic.to_summary e);
          incr fail
      | Ok _ ->
          Session.reset_counters s;
          let inc = Session.render_answers s (Session.workload s) in
          let c = Session.counters s in
          let b = Session.baseline s in
          let batch = Session.render_answers b (Session.workload b) in
          let pct =
            100.0
            *. float_of_int c.Session.recomputed
            /. float_of_int (max 1 c.Session.asked)
          in
          let same = String.equal inc batch in
          if (not same) || pct >= 20.0 then incr fail;
          Fmt.pr "%-16s re-answered %3d/%3d (%5.1f%%, limit 20%%)  \
                  differential: %s@."
            name c.Session.recomputed c.Session.asked pct
            (if same then "byte-identical" else "MISMATCH"))
    Scaf_suite.Registry.names;
  if !fail > 0 then begin
    Fmt.pr "incremental-gate: FAIL (%d benchmarks)@." !fail;
    exit 1
  end;
  Fmt.pr "incremental-gate: OK@."

(* The CI regression gate: tracing must be near-zero-cost when it is not
   collecting. Alternates the no-op-sink sweep with an enabled sink whose
   sampler rejects every query, and compares medians, so machine drift
   hits both configurations equally. *)
let gate_tolerance = 1.35

let trace_gate () =
  let noop = traced_sweep Scaf_trace.Sink.noop in
  let sampled_sink = Scaf_trace.Sink.create ~sample_every:1_000_000 () in
  let sampled = traced_sweep sampled_sink in
  (* force lazy profiling and warm both paths *)
  noop ();
  sampled ();
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let t_noop = ref [] and t_sampled = ref [] in
  for _ = 1 to 21 do
    t_noop := time noop :: !t_noop;
    t_sampled := time sampled :: !t_sampled
  done;
  let median xs =
    let a = List.sort Float.compare xs in
    List.nth a (List.length a / 2)
  in
  let m0 = median !t_noop and m1 = median !t_sampled in
  let ratio = if m0 > 0.0 then m1 /. m0 else 1.0 in
  Fmt.pr
    "trace-gate: noop-sink median %.3f ms, sampled-out median %.3f ms, \
     ratio %.2f (limit %.2f)@."
    (1e3 *. m0) (1e3 *. m1) ratio gate_tolerance;
  if ratio > gate_tolerance then begin
    Fmt.pr "trace-gate: FAIL — disabled tracing regressed the hot path@.";
    exit 1
  end;
  Fmt.pr "trace-gate: OK@."

(* The multicore scaling gate: at 4 jobs the fig8-style bench-level
   fan-out and the fig10-style loop-level fan-out must both run at least
   2x faster than the identical work at 1 job. Skips with exit 0 on
   machines without 4 cores — a 1- or 2-core container cannot measure a
   4-way speedup; the other half of the contract (reports byte-identical
   at any [--jobs N]) is core-count-independent and is checked separately
   by CI diffing scaf_eval output across job counts. *)
let scale_min_speedup = 2.0

let scale_gate () =
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then begin
    Fmt.pr
      "scale-gate: SKIP — %d core(s) available, need >= 4 to measure the \
       4-job speedup@."
      cores;
    exit 0
  end;
  (* one materialization, reused everywhere: profiles memoize per handle,
     and the warm-up sweep below forces every one of them, so neither
     timed configuration pays for profiling *)
  let benchmarks = Scaf_suite.Registry.all () in
  ignore (Scaf_report.Experiments.evaluate_all ~benchmarks ());
  let median3 f =
    let time () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let xs = List.sort Float.compare [ time (); time (); time () ] in
    List.nth xs 1
  in
  (* fig8 proxy: whole benchmarks fan out across the pool *)
  let fig8 jobs () =
    Scaf_pdg.Scheduler.with_pool ~jobs (fun pool ->
        ignore (Scaf_report.Experiments.evaluate_all ~pool ~benchmarks ()))
  in
  (* fig10 proxy: benchmarks in sequence, hot loops fan out within each *)
  let fig10 jobs () =
    Scaf_pdg.Scheduler.with_pool ~jobs (fun pool ->
        List.iter
          (fun b ->
            let p = Scaf_suite.Program.profiles b in
            ignore
              (Scaf_pdg.Nodep.evaluate_scheme ~pool
                 ~bname:(Scaf_suite.Program.id b) p
                 (Scaf_pdg.Schemes.scaf_scheme p)))
          benchmarks)
  in
  let gate what slow fast =
    let t1 = median3 slow in
    let t4 = median3 fast in
    let speedup = if t4 > 0.0 then t1 /. t4 else 0.0 in
    Fmt.pr
      "scale-gate: %-5s jobs=1 %6.3f s, jobs=4 %6.3f s, speedup %.2fx \
       (need >= %.1fx)@."
      what t1 t4 speedup scale_min_speedup;
    speedup >= scale_min_speedup
  in
  let ok8 = gate "fig8" (fig8 1) (fig8 4) in
  let ok10 = gate "fig10" (fig10 1) (fig10 4) in
  if not (ok8 && ok10) then begin
    Fmt.pr "scale-gate: FAIL — the parallel fan-out is not scaling@.";
    exit 1
  end;
  Fmt.pr "scale-gate: OK@."

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

(* Measured estimates of the current invocation, for the [--json]
   snapshot (BENCH_*.json) that future PRs diff against. *)
let measured : (string * float) list ref = ref []

let run_tests (tests : Test.t list) =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ t ] -> (
              match Hashtbl.find_opt per_instr_rows name with
              | Some n ->
                  let t = t /. float_of_int n in
                  measured := (name, t) :: !measured;
                  Fmt.pr "%-36s %12.1f ns/instr@." name t
              | None ->
                  measured := (name, t) :: !measured;
                  Fmt.pr "%-36s %12.1f ns/run@." name t)
          | _ -> Fmt.pr "%-36s (no estimate)@." name)
        ols)
    tests

(* Persist the run as a flat {"benchmarks": {name: ns_per_run}} snapshot
   (ns per executed instruction for the per-instruction rows);
   ci/compare_bench.py gates regressions against a committed baseline. *)
let write_json (path : string) =
  let open Scaf_server in
  let entries =
    List.sort (fun (a, _) (b, _) -> compare a b) !measured
    |> List.map (fun (name, ns) -> (name, Json.float ns))
  in
  let j =
    Json.Obj
      [
        ("schema", Json.Int 1);
        ("unit", Json.String "ns/run");
        ("benchmarks", Json.Obj entries);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote %d estimates to %s@." (List.length entries) path

(* Precision side of the ablations: premise depth and module order do not
   change soundness, only how much gets resolved (depth) and how fast. *)
let precision_table () =
  let p = Lazy.force mcf_profiles in
  let prog = p.Scaf_profile.Profiles.ctx in
  let nodep_with f =
    let o = orchestrator_with p f in
    let r =
      Scaf_pdg.Pdg.run_loop prog
        ~resolver:(Scaf.Orchestrator.handle o)
        "arc_run:loop"
    in
    Scaf_pdg.Pdg.nodep_pct r
  in
  Fmt.pr "@.ablation precision (%%NoDep on 181.mcf arc loop):@.";
  List.iter
    (fun depth ->
      Fmt.pr "  premise depth %d -> %5.1f@." depth
        (nodep_with (fun c ->
             { c with Scaf.Orchestrator.max_premise_depth = depth })))
    [ 0; 1; 2; 3; 4 ];
  Fmt.pr "  join=ALL        -> %5.1f@."
    (nodep_with (fun c ->
         { c with Scaf.Orchestrator.join_policy = Scaf.Join.All }));
  Fmt.pr "  spec-first      -> %5.1f@."
    (nodep_with (fun c ->
         { c with Scaf.Orchestrator.modules = List.rev c.Scaf.Orchestrator.modules }))

let groups =
  [
    ("validation", "validation primitives (Figure 7)", validation_tests);
    ("query", "per-scheme PDG sweeps", query_tests);
    ("ablation", "ablations (latency)", ablation_tests);
    ("cache", "cache", cache_tests);
    ("parallel", "parallel batch engine", parallel_tests);
    ("substrate", "substrate", substrate_tests);
    ("resilience", "resilience", resilience_tests);
    ("trace", "observability", trace_tests);
    ("incremental", "incremental re-analysis engine", incremental_tests);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "trace-gate" ] -> trace_gate ()
  | [ "incremental-gate" ] -> incremental_gate ()
  | [ "scale-gate" ] -> scale_gate ()
  | args ->
      let rec split_json acc = function
        | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
        | a :: rest -> split_json (a :: acc) rest
        | [] -> (None, List.rev acc)
      in
      let json_out, args = split_json [] args in
      let want name = args = [] || List.mem name args in
      List.iter
        (fun (name, title, tests) ->
          if want name then begin
            Fmt.pr "== %s ==@." title;
            run_tests tests;
            Fmt.pr "@."
          end)
        groups;
      (match json_out with Some path -> write_json path | None -> ());
      if want "ablation" then precision_table ()
