(** The audit driver: runs all three passes over a benchmark suite and one
    module ensemble, and renders the result.

    Per benchmark: parse + fully verify the program, profile it on its
    training inputs, build the standard SCAF ensemble (plus any
    [extra_modules] under audit), observe its dynamic dependences under the
    interpreter, then sweep every hot loop's query workload through the
    contradiction and oracle passes. The query-plan lint runs once on the
    first benchmark's configuration (the wiring is identical across
    benchmarks).

    The exit contract: {!exit_code} is non-zero iff any finding is of
    soundness class. Warnings and infos never fail a build. *)

open Scaf
open Scaf_profile
open Scaf_suite

type report = {
  findings : Finding.t list;  (** most severe first *)
  cards : Oracle.card list;  (** per-module audit cards, merged over the suite *)
  benches : string list;
  queries : int;  (** client queries fanned out by the audit *)
  modules : string list;  (** ensemble under audit, in consultation order *)
}

let scaf_config ?(extra_modules = fun (_ : Profiles.t) -> [])
    ?(trace = Scaf_trace.Sink.noop) ?metrics (profiles : Profiles.t) :
    Orchestrator.config =
  let prog = profiles.Profiles.ctx in
  let base =
    Orchestrator.default_config
      (Scaf_analysis.Registry.create prog
      @ Scaf_speculation.Registry.create profiles
      @ extra_modules profiles)
  in
  { base with Orchestrator.trace; metrics }

let audit_bench ?extra_modules ?trace ?metrics (cards : Oracle.cards)
    (b : Program.t) : Finding.t list * Orchestrator.config * int =
  let profiles = Program.profiles b in
  let prog = profiles.Profiles.ctx in
  let config = scaf_config ?extra_modules ?trace ?metrics profiles in
  let orch = Orchestrator.create prog config in
  let train, any =
    Oracle.observe prog ~train:(Program.train_inputs b)
      ~ref_input:(Program.ref_input b)
  in
  let loops = List.map fst (Scaf_pdg.Nodep.hot_loop_weights profiles) in
  let bench = Program.id b in
  (* Each query is fanned out once; the oracle pass grades the answers,
     then the contradiction pass cross-examines the same answers. *)
  let check_loop lid =
    let w = lazy (Witness.for_loop prog ~lid) in
    let witness () = Lazy.force w in
    let answered =
      List.map
        (fun (work : Oracle.work) ->
          let answers = Orchestrator.consult_all orch work.Oracle.query in
          (work, answers))
        (Oracle.workload prog ~lid)
    in
    let oracle =
      List.concat_map
        (fun (work, answers) ->
          Oracle.check_query orch ~bench ~lid ~train ~any ~witness cards work
            answers)
        answered
    in
    List.concat_map
      (fun ((work : Oracle.work), answers) ->
        Contradiction.check_query orch ~bench ~witness work.Oracle.query answers)
      answered
    @ oracle
  in
  let findings = List.concat_map check_loop loops in
  (findings, config, (Orchestrator.stats orch).Orchestrator.client_queries)

(** Run the full audit. [extra_modules] appends modules under audit to the
    shipped ensemble (used by tests to demonstrate that a deliberately
    broken module is caught). [trace]/[metrics] attach an observability
    sink and a metrics registry to every orchestrator the audit builds. *)
let run ?extra_modules ?trace ?metrics ?benchmarks () : report =
  let benchmarks =
    match benchmarks with Some bs -> bs | None -> Registry.all ()
  in
  let cards = Oracle.create_cards () in
  let findings, queries, modules, lint_done =
    List.fold_left
      (fun (fs, qs, mods, linted) b ->
        let bfs, config, q = audit_bench ?extra_modules ?trace ?metrics cards b in
        let lint_fs, mods =
          if linted then ([], mods)
          else
            ( Lint.check config,
              List.map
                (fun (m : Module_api.t) -> m.Module_api.name)
                config.Orchestrator.modules )
        in
        (fs @ bfs @ lint_fs, qs + q, mods, true))
      ([], 0, [], false) benchmarks
  in
  ignore lint_done;
  {
    findings = List.sort Finding.compare findings;
    cards = Oracle.all_cards cards;
    benches = List.map Program.id benchmarks;
    queries;
    modules;
  }

let soundness_count (r : report) : int =
  List.length (List.filter Finding.is_soundness r.findings)

(** 1 iff the report contains a soundness-class finding. *)
let exit_code (r : report) : int = if soundness_count r > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pct_of n d =
  if d = 0 then "    -"
  else Scaf_report.Report.pct (100.0 *. float_of_int n /. float_of_int d)

let cards_table (cards : Oracle.card list) : string =
  Scaf_report.Report.table
    ~header:
      [
        "Module";
        "Consulted";
        "Answered";
        "Free";
        "Spec";
        "NoDep";
        "Answer %";
        "Unsound";
      ]
    ~rows:
      (List.map
         (fun (c : Oracle.card) ->
           [
             c.Oracle.cname;
             string_of_int c.Oracle.consulted;
             string_of_int c.Oracle.answered;
             string_of_int c.Oracle.free;
             string_of_int c.Oracle.speculative;
             string_of_int c.Oracle.nodep;
             pct_of c.Oracle.answered c.Oracle.consulted;
             (if c.Oracle.unsound = 0 then "-"
              else string_of_int c.Oracle.unsound);
           ])
         cards)

let render (r : report) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Audit: %d benchmarks, %d modules, %d client queries fanned out\n\n"
       (List.length r.benches) (List.length r.modules) r.queries);
  Buffer.add_string buf "Per-module audit cards:\n";
  Buffer.add_string buf (cards_table r.cards);
  Buffer.add_char buf '\n';
  (match r.findings with
  | [] -> Buffer.add_string buf "\nNo findings.\n"
  | fs ->
      let count sev =
        List.length (List.filter (fun f -> f.Finding.severity = sev) fs)
      in
      Buffer.add_string buf
        (Printf.sprintf "\n%d findings (%d soundness, %d warning, %d info):\n"
           (List.length fs)
           (count Finding.Soundness)
           (count Finding.Warning)
           (count Finding.Info));
      List.iter
        (fun f -> Buffer.add_string buf (Fmt.str "%a@." Finding.pp f))
        fs);
  Buffer.add_string buf
    (if soundness_count r > 0 then
       "\nAUDIT FAILED: soundness-class findings present.\n"
     else "\nAudit passed: no soundness-class findings.\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled: no JSON library in the toolchain)                *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (r : report) : string =
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let finding (f : Finding.t) =
    Printf.sprintf
      "{\"pass\":%s,\"severity\":%s,\"module\":%s,\"benchmark\":%s,\"query\":%s,\"detail\":%s,\"witness\":%s,\"explain\":%s}"
      (str (Finding.pass_name f.Finding.pass))
      (str (Finding.severity_name f.Finding.severity))
      (str f.Finding.modname) (str f.Finding.bench) (str f.Finding.query)
      (str f.Finding.detail) (str f.Finding.witness)
      (str f.Finding.explain)
  in
  let card (c : Oracle.card) =
    Printf.sprintf
      "{\"module\":%s,\"consulted\":%d,\"answered\":%d,\"free\":%d,\"speculative\":%d,\"nodep\":%d,\"unsound\":%d}"
      (str c.Oracle.cname) c.Oracle.consulted c.Oracle.answered c.Oracle.free
      c.Oracle.speculative c.Oracle.nodep c.Oracle.unsound
  in
  Printf.sprintf
    "{\"benchmarks\":[%s],\"modules\":[%s],\"queries\":%d,\"cards\":[%s],\"findings\":[%s],\"soundness_findings\":%d}"
    (String.concat "," (List.map str r.benches))
    (String.concat "," (List.map str r.modules))
    r.queries
    (String.concat "," (List.map card r.cards))
    (String.concat "," (List.map finding r.findings))
    (soundness_count r)
