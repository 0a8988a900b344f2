(** [batch-cold]: in-process, sequential, cold analysis of a seeded corpus.

    Each program of the corpus (the 16 suite programs plus generated
    ones, {!Corpus}) goes through the path a user reproducing the paper
    or analysing new code pays for, with fresh caches every time:
    [Program.make] (parse + lint gate) → [Program.profiles] (interpreter
    profiling run) → the PDG client under all five schemes
    ([Experiments.evaluate_bench]) → the audit over that program
    ([Audit.audit_bench]: dynamic-oracle observation, then the
    contradiction and oracle checks of every hot loop). Passes over the
    corpus repeat until the window closes; every per-program figure is
    the median over passes.

    The untraced passes call the program's own functions. The traced
    passes run a step-by-step copy of [evaluate_bench] and [audit_bench]
    instead, so that each scheme and each audit phase gets a span and the
    orchestrators' counters can be read; the answers of the copy are
    checked like the original's.

    Checks: every pass's analysis results must be identical to a
    reference [Experiments.evaluate_bench] run on the same program, and
    the audit must report no soundness finding. *)

open Scaf
open Scaf_suite
open Scaf_profile
open Scaf_pdg
open Scaf_audit

let generated = 64

let queries_of (reports : Nodep.benchmark_report list) : int =
  List.fold_left
    (fun acc (r : Nodep.benchmark_report) ->
      List.fold_left
        (fun acc (_, (lr : Pdg.loop_report)) -> acc + List.length lr.Pdg.queries)
        acc r.Nodep.per_loop)
    0 reports

(* A digest of everything the five schemes answered. *)
let fingerprint (reports : Nodep.benchmark_report list) : string =
  let b = Buffer.create 8192 in
  List.iter
    (fun (r : Nodep.benchmark_report) ->
      Printf.bprintf b "%s %.17g\n" r.Nodep.bname r.Nodep.weighted_nodep;
      List.iter
        (fun (lid, (lr : Pdg.loop_report)) ->
          List.iter
            (fun (q : Pdg.qresult) ->
              Printf.bprintf b "%s %d %d %b %b %s\n" lid q.Pdg.dq.Pdg.src
                q.Pdg.dq.Pdg.dst q.Pdg.dq.Pdg.cross q.Pdg.nodep
                (Fmt.str "%a" Response.pp q.Pdg.resp))
            lr.Pdg.queries)
        r.Nodep.per_loop)
    reports;
  Digest.string (Buffer.contents b)

(* ---- the traced copy of the pipeline ----------------------------- *)

(* The SCAF scheme exactly as [Schemes.scaf_scheme] builds it, keeping
   hold of each spawned orchestrator so its counters can be read, with a
   clock attached for per-query latencies. *)
let scaf_scheme (profiles : Profiles.t) (orchs : Orchestrator.t list ref)
    : Schemes.scheme =
  let prog = profiles.Profiles.ctx in
  let cache = Qcache.create () in
  {
    Schemes.sname = "SCAF";
    scache = Some cache;
    spawn =
      (fun () ->
        let modules =
          Scaf_analysis.Registry.create prog @ Scaf_speculation.Registry.create profiles
        in
        let o = Schemes.orchestrate ~clock:Clock.now ~cache prog modules in
        orchs := o :: !orchs;
        Schemes.resolver_of_orchestrator "SCAF" o);
  }

(* [Experiments.evaluate_bench], one span per scheme. *)
let traced_evaluate (p : Program.t) (profiles : Profiles.t) :
    Nodep.benchmark_report list * Orchestrator.t list =
  let bname = Program.id p in
  let eval span s = Span.with_ span (fun () -> Nodep.evaluate_scheme ~bname profiles s) in
  let orchs = ref [] in
  let caf = eval "pdg.caf" (Schemes.caf_scheme profiles) in
  let confluence = eval "pdg.confluence" (Schemes.confluence_scheme profiles) in
  let scaf = eval "pdg.scaf" (scaf_scheme profiles orchs) in
  let memspec = eval "pdg.memspec" (Schemes.memory_speculation_scheme profiles) in
  let observed = eval "pdg.observed" (Schemes.observed_scheme profiles) in
  ([ caf; confluence; scaf; memspec; observed ], !orchs)

(* The audit of one program, composed exactly as [Audit.audit_bench]
   composes it, one span per phase; returns the soundness-finding count. *)
let traced_audit (p : Program.t) : int =
  let profiles = Program.profiles p in
  let prog = profiles.Profiles.ctx in
  let orch = Orchestrator.create prog (Audit.scaf_config profiles) in
  let cards = Oracle.create_cards () in
  let train, any =
    Span.with_ "audit.observe" (fun () ->
        Oracle.observe prog ~train:(Program.train_inputs p) ~ref_input:(Program.ref_input p))
  in
  let bench = Program.id p in
  let findings =
    Span.with_ "audit.check" (fun () ->
        List.concat_map
          (fun (lid, _) ->
            Contradiction.check_loop orch prog ~bench ~lid
            @ Oracle.check_loop orch prog ~bench ~lid ~train ~any cards)
          (Nodep.hot_loop_weights profiles))
  in
  Audit.soundness_count
    {
      Audit.findings;
      cards = Oracle.all_cards cards;
      benches = [ bench ];
      queries = (Orchestrator.stats orch).Orchestrator.client_queries;
      modules = [];
    }

(* ---- the program's own pipeline ---------------------------------- *)

let reports_of (e : Scaf_report.Experiments.bench_eval) : Nodep.benchmark_report list =
  let open Scaf_report.Experiments in
  [ e.caf; e.confluence; e.scaf; e.memspec; e.observed ]

let evaluate (p : Program.t) (profiles : Profiles.t) : Nodep.benchmark_report list =
  reports_of (Scaf_report.Experiments.evaluate_bench ~profiles p)

let audit (p : Program.t) : int =
  let cards = Oracle.create_cards () in
  let findings, _, queries = Audit.audit_bench cards p in
  Audit.soundness_count
    {
      Audit.findings;
      cards = Oracle.all_cards cards;
      benches = [ Program.id p ];
      queries;
      modules = [];
    }

let reference (src : Corpus.program) : string =
  fingerprint (reports_of (Scaf_report.Experiments.evaluate_bench (Corpus.make src)))

(* Per-program samples, one normalised entry per pass. *)
type samples = {
  prog : float list ref;  (** make + profile + five schemes, s *)
  make : float list ref;
  profile : float list ref;
  audit_s : float list ref;
  mutable queries : int;
}

(* Layer counters gathered in the traced half. *)
type layer = {
  mutable instrs : int;
  mutable executed : int;
  mutable programs : int;
  mutable client_queries : int;
  mutable premise : int;
  mutable module_evals : int;
  mutable cache : Qcache.Snapshot.t;
  mutable latencies : float list;
  mutable minor_words : float;
  mutable all_queries : int;
}

let instr_count (m : Scaf_ir.Irmod.t) : int =
  List.fold_left
    (fun acc f -> Scaf_ir.Func.fold_instrs f (fun n _ _ -> n + 1) acc)
    0 m.Scaf_ir.Irmod.funcs

let analyse ~(traced : bool) (cal : Calib.t) (ops : Run.ops) (ly : layer)
    (expect : string) (s : samples) (work : float list ref) (src : Corpus.program) : unit =
  if traced then begin
    (* standalone layer probes on the same text; [Program.make] repeats
       this work internally, where a span cannot reach *)
    let m = Span.with_ "ir.parse" (fun () -> Scaf_ir.Parser.parse src.Corpus.source) in
    ignore (Span.with_ "lint.run" (fun () -> Scaf_lint.Pass.run m));
    ignore (Span.with_ "cfg.ctx" (fun () -> Scaf_cfg.Progctx.build m));
    ly.instrs <- ly.instrs + instr_count m;
    ly.programs <- ly.programs + 1
  end;
  match
    Span.with_ "e2e.program" (fun () ->
        let p, t_make = Run.timed (fun () -> Span.with_ "suite.make" (fun () -> Corpus.make src)) in
        let profiles, t_prof =
          Run.timed (fun () -> Span.with_ "profile.run" (fun () -> Program.profiles p))
        in
        let w0 = Gc.minor_words () in
        let (reports, orchs), t_eval =
          Run.timed (fun () ->
              if traced then traced_evaluate p profiles else (evaluate p profiles, []))
        in
        (p, profiles, reports, orchs, t_make, t_prof, t_eval, Gc.minor_words () -. w0))
  with
  | exception e -> Run.fail ops (Printf.sprintf "%s: %s" src.Corpus.id (Printexc.to_string e))
  | p, profiles, reports, orchs, t_make, t_prof, t_eval, words ->
      let n = queries_of reports in
      s.queries <- n;
      Calib.record cal s.make t_make;
      Calib.record cal s.profile t_prof;
      Calib.record cal s.prog (t_make +. t_prof +. t_eval);
      Calib.record cal work (t_make +. t_prof +. t_eval);
      if String.equal (fingerprint reports) expect then Run.ok ops
      else Run.fail ops (src.Corpus.id ^ ": answers differ from Experiments.evaluate_bench");
      if traced then begin
        ly.executed <- ly.executed + profiles.Profiles.time.Time_profile.total;
        ly.minor_words <- ly.minor_words +. words;
        ly.all_queries <- ly.all_queries + n;
        List.iter
          (fun o ->
            let st = Orchestrator.stats o in
            ly.client_queries <- ly.client_queries + st.Orchestrator.client_queries;
            ly.premise <- ly.premise + st.Orchestrator.premise_queries;
            ly.module_evals <- ly.module_evals + st.Orchestrator.module_evals;
            ly.latencies <- Orchestrator.latencies o @ ly.latencies)
          orchs;
        match orchs with
        | o :: _ -> ly.cache <- Qcache.Snapshot.merge ly.cache (Qcache.snapshot (Orchestrator.cache o))
        | [] -> ()
      end;
      (match
         Run.timed (fun () ->
             Span.with_ "e2e.audit" (fun () -> if traced then traced_audit p else audit p))
       with
      | 0, t ->
          Calib.record cal s.audit_s t;
          Calib.record cal work t;
          Run.ok ops
      | k, _ -> Run.fail ops (Printf.sprintf "%s: %d soundness finding(s)" src.Corpus.id k)
      | exception e ->
          Run.fail ops (Printf.sprintf "%s audit: %s" src.Corpus.id (Printexc.to_string e)))

(* One program, cold; its normalised analysis + audit time goes to
   [work]. The program is its own yardstick block. *)
let one_program ~(traced : bool) (cal : Calib.t) (ops : Run.ops) (ly : layer)
    (expect : string) (s : samples) (work : float list ref) (src : Corpus.program) : unit =
  analyse ~traced cal ops ly expect s work src;
  Calib.tick cal;
  ignore (Calib.close cal)

let ms x = x *. 1e3

let run (env : Run.env) : Run.result =
  let ops = Run.ops () in
  let cal = Calib.create () in
  (* set-up: generate the corpus and run one warm-up pass, three times *)
  let setups = ref [] and corpus = ref [] in
  for _ = 1 to 3 do
    let c, t =
      Run.timed (fun () ->
          let c = Corpus.suite () @ Corpus.generate ~seed:env.Run.seed ~count:generated in
          List.iter
            (fun src ->
              Calib.tick cal;
              let p = Corpus.make src in
              ignore (evaluate p (Program.profiles p)))
            c;
          c)
    in
    corpus := c;
    Calib.record cal setups t;
    ignore (Calib.close cal)
  done;
  let corpus = Array.of_list !corpus in
  let expect = Array.map reference corpus in
  let n = Array.length corpus in
  let samples =
    Array.init n (fun _ ->
        { prog = ref []; make = ref []; profile = ref []; audit_s = ref []; queries = 0 })
  in
  let ly =
    {
      instrs = 0; executed = 0; programs = 0; client_queries = 0; premise = 0;
      module_evals = 0; cache = Qcache.Snapshot.zero; latencies = [];
      minor_words = 0.0; all_queries = 0;
    }
  in
  let passes = ref [] and raw_passes = ref [] in
  let traced_passes = ref 0 and majors = ref 0 in
  let pass ~traced =
    Span.on := traced;
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    let work = ref [] in
    let (), t =
      Run.timed (fun () ->
          Array.iteri
            (fun i src -> one_program ~traced cal ops ly expect.(i) samples.(i) work src)
            corpus)
    in
    Span.on := false;
    if traced then begin
      incr traced_passes;
      majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0
    end;
    raw_passes := t :: !raw_passes;
    passes := Stats.sum !work :: !passes
  in
  let t_start = Run.now () in
  let until frac ~traced =
    Run.repeat_until (t_start +. (env.Run.seconds *. frac)) (fun () -> pass ~traced)
  in
  let per_prog (f : samples -> float list ref) =
    Array.to_list (Array.map (fun s -> Stats.median !(f s)) samples)
  in
  if not env.Run.traced then begin
    until 1.0 ~traced:false;
    let prog = per_prog (fun s -> s.prog) in
    let total_q = Array.fold_left (fun a s -> a + s.queries) 0 samples in
    {
      Run.ops;
      metrics =
        [
          ("setup_s", Stats.median !setups);
          ("peak_rss_mb", Run.peak_rss_mb (Unix.getpid ()));
          ("pass_s", Stats.median !passes);
          ("op_p50_ms", ms (Stats.quantile prog 0.5));
          ("op_p90_ms", ms (Stats.quantile prog 0.9));
          ("answers_per_s", float_of_int total_q /. Stats.sum prog);
          ("op2_p50_ms", ms (Stats.median (per_prog (fun s -> s.audit_s))));
          ("op3_p50_ms", ms (Stats.median (per_prog (fun s -> s.make))));
          ("op4_ms", ms (Stats.median (per_prog (fun s -> s.profile))));
        ];
      report =
        [
          Printf.sprintf
            "batch-cold: %d programs, %d passes, %d dependence queries per pass; raw pass time \
             median %.3f s"
            n (List.length !passes) total_q (Stats.median !raw_passes);
          Calib.describe cal;
          String.concat " " (List.map (Printf.sprintf "%.1f") (List.sort compare (List.map ms prog)));
        ];
    }
  end
  else begin
    (* the traced run measures its first half untraced, for the overhead *)
    until 0.5 ~traced:false;
    let untraced = Stats.median (per_prog (fun s -> s.prog)) in
    Array.iter (fun s -> s.prog := []) samples;
    until 1.0 ~traced:true;
    let traced = Stats.median (per_prog (fun s -> s.prog)) in
    (* per-layer times are scaled by the run's median yardstick factor *)
    let f = Calib.median_factor cal in
    let med name = match Span.self_median name with Some v -> v *. f | None -> nan in
    let progs = float_of_int (max 1 ly.programs) in
    let cq = float_of_int (max 1 ly.client_queries) in
    let c = ly.cache in
    let lookups = c.Qcache.Snapshot.hits + c.Qcache.Snapshot.l1_hits + c.Qcache.Snapshot.misses in
    let metrics =
      [
        ("ir.parse_ms", ms (med "ir.parse"));
        ("ir.instrs", float_of_int ly.instrs /. progs);
        ("lint.run_ms", ms (med "lint.run"));
        ("cfg.ctx_ms", ms (med "cfg.ctx"));
        ("profile.run_ms", ms (med "profile.run"));
        ("interp.instrs_executed", float_of_int ly.executed /. progs);
        ("pdg.scaf_ms", ms (med "pdg.scaf"));
        ("pdg.confluence_ms", ms (med "pdg.confluence"));
        ("pdg.caf_ms", ms (med "pdg.caf"));
        ("pdg.memspec_ms", ms (med "pdg.memspec"));
        ("pdg.observed_ms", ms (med "pdg.observed"));
        ("pdg.queries", float_of_int ly.all_queries /. progs);
        ("core.cold_query_p50_us", 1e6 *. f *. Stats.median ly.latencies);
        ("core.module_evals", float_of_int ly.module_evals /. cq);
        ("core.premise_queries", float_of_int ly.premise /. cq);
        ( "core.qcache_hit_ratio",
          float_of_int (c.Qcache.Snapshot.hits + c.Qcache.Snapshot.l1_hits)
          /. float_of_int (max 1 lookups) );
        ("gc.minor_words_per_query", ly.minor_words /. float_of_int (max 1 ly.all_queries));
        ("gc.major_collections", float_of_int !majors /. float_of_int (max 1 !traced_passes));
        ("audit.observe_ms", ms (med "audit.observe"));
        ("audit.check_ms", ms (med "audit.check"));
      ]
    in
    {
      Run.ops;
      metrics;
      report =
        Run.span_report ~e2e:[ "e2e.program"; "e2e.audit" ]
        @ [
            Calib.describe cal;
            Printf.sprintf
              "tracing overhead: per-program p50 %.3f ms traced (the spanned copy of the \
               pipeline) vs %.3f ms untraced (the program's own functions) (%+.1f%%)"
              (ms traced) (ms untraced)
              (100.0 *. ((traced /. untraced) -. 1.0));
          ];
    }
  end
