(** An incremental analysis session: one {!Scaf_suite.Program.t} handle,
    one shared {!Scaf.Qcache.t}, one invalidation-graph {!Collector}, and
    an orchestrator rebuilt (over the surviving cache) after every edit.

    The contract is differential: after any edit sequence, {!ask} must
    return byte-identical answers to a from-scratch batch run over the
    edited program — the invalidation pass may only evict {e more} than
    strictly necessary, never less. The batch baseline is {!baseline},
    a fresh session over {!Scaf_suite.Program.fork} of the edited handle:
    forking shares the edited in-memory module, so both sides analyze the
    {e same} instruction ids (re-parsing printed source would renumber
    them and break byte-comparability for reasons that have nothing to do
    with incrementality).

    {!ask} pre-probes the cache before handing the query to the
    orchestrator, maintaining the recompute counters the <20%%
    re-answer gate and the read-set qcheck property are judged on. *)

open Scaf
open Scaf_suite

type counters = {
  mutable asked : int;  (** queries submitted since the last reset *)
  mutable recomputed : int;
      (** of those, how many missed the cache (were actually re-derived) *)
}

type t = {
  program : Program.t;
  cache : Qcache.t;
  graph : Collector.graph;
  frontend : Collector.t;
  mutable modules : Module_api.t list;
  mutable orch : Orchestrator.t;
  counters : counters;
  fingerprint : Fingerprint.memo;  (** of [program]'s current profiles *)
}

let modules_of (p : Program.t) : Module_api.t list =
  let profiles = Program.profiles p in
  Scaf_analysis.Registry.create (Program.ctx p)
  @ Scaf_speculation.Registry.create profiles

(* The orchestrator mirrors the batch scaf scheme — full analysis +
   speculation stack over the profiled context, no clock (deterministic
   output) — plus the epoch stamp and the collector's sink.
   [l1_flush_every:1] publishes every memoized answer into the shared
   store immediately: the session's recompute counters are defined by the
   {e shared-store} pre-probe in {!ask}, so an answer parked in a pending
   L1 batch would misclassify its re-ask as a recompute. A session is
   single-threaded, so per-add publication costs exactly what the
   pre-L1 design did. *)
let make_orch (p : Program.t) (cache : Qcache.t) (frontend : Collector.t)
    (modules : Module_api.t list) : Orchestrator.t =
  let profiles = Program.profiles p in
  let config =
    {
      (Orchestrator.default_config modules) with
      Orchestrator.epoch = Program.epoch p;
      depsink = Collector.sink frontend;
    }
  in
  Orchestrator.create ~cache ~l1_flush_every:1
    profiles.Scaf_profile.Profiles.ctx config

let create (program : Program.t) : t =
  let cache = Qcache.create () in
  let graph =
    Collector.create_graph
      ~funcs_of:(Collector.funcs_of_ctx (Program.ctx program))
  in
  let frontend = Collector.frontend graph in
  let modules = modules_of program in
  {
    program;
    cache;
    graph;
    frontend;
    modules;
    orch = make_orch program cache frontend modules;
    counters = { asked = 0; recomputed = 0 };
    fingerprint = Fingerprint.memo ();
  }

let program (t : t) : Program.t = t.program
let epoch (t : t) : int = Program.epoch t.program
let counters (t : t) : counters = t.counters

let reset_counters (t : t) : unit =
  t.counters.asked <- 0;
  t.counters.recomputed <- 0

(** Resolve a client query at the session's current epoch. The pre-probe
    classifies it as cached vs recomputed {e before} the orchestrator runs
    (uncacheable queries — those carrying a control-flow view — always
    count as recomputed). *)
let ask (t : t) (q : Query.t) : Response.t =
  let q = Query.at_epoch (epoch t) q in
  t.counters.asked <- t.counters.asked + 1;
  (match Qcache.find_q t.cache q with
  | Some _ -> ()
  | None -> t.counters.recomputed <- t.counters.recomputed + 1);
  Orchestrator.handle t.orch q

(** The benchmark's standard client workload: every PDG dependence query of
    every hot loop, in deterministic order. *)
let workload (t : t) : Query.t list =
  let ctx = Program.ctx t.program in
  let profiles = Program.profiles t.program in
  List.concat_map
    (fun (lid, _) ->
      List.map (Scaf_pdg.Pdg.to_query lid) (Scaf_pdg.Pdg.queries_of_loop ctx lid))
    (Scaf_pdg.Nodep.hot_loop_weights profiles)

(** Apply an edit script, re-profile, and run the invalidation pass.
    On [Ok] the session is at the new epoch with a rebuilt orchestrator
    over the surviving cache entries; on [Error] it is untouched and the
    lint/edit diagnostics say why. *)
let edit (t : t) (ops : Edit.op list) :
    (Edit.diff * Invalidate.stats, Scaf_lint.Diagnostic.t list) result =
  let old_m = Program.program t.program in
  let old_fp = Fingerprint.current t.fingerprint t.program in
  match Edit.apply_all t.program ops with
  | Error e -> Error e
  | Ok diff ->
      let new_fp = Fingerprint.current t.fingerprint t.program in
      let profile_dirty = Fingerprint.changed ~before:old_fp ~after:new_fp in
      let components =
        Components.build [ old_m; Program.program t.program ]
      in
      let caps_of name =
        Option.map
          (fun (m : Module_api.t) -> m.Module_api.caps)
          (List.find_opt
             (fun (m : Module_api.t) -> String.equal m.Module_api.name name)
             t.modules)
      in
      (* the invalidation walk restamps only what the shared store holds:
         any answer still buffered in the orchestrator's L1 batch must be
         published first or the generation bump drops it *)
      Orchestrator.flush_cache t.orch;
      let stats =
        Invalidate.run ~graph:t.graph ~caps_of ~components
          ~touched_funcs:diff.Edit.touched_funcs
          ~touched_globals:diff.Edit.touched_globals ~profile_dirty
          ~next_epoch:diff.Edit.epoch t.cache
      in
      Collector.set_funcs_of t.graph
        (Collector.funcs_of_ctx (Program.ctx t.program));
      t.modules <- modules_of t.program;
      t.orch <- make_orch t.program t.cache t.frontend t.modules;
      Ok (diff, stats)

(** A fresh from-scratch session over an independent fork of the (edited)
    program — the differential baseline. Shares the in-memory module and
    memoized profiles, nothing else. *)
let baseline (t : t) : t = create (Program.fork t.program)

(** Render a workload's answers in the canonical differential format, one
    ["query => response"] line per query. [Query.pp] never prints the
    epoch, so incremental and batch renderings are byte-comparable. *)
let render_answers (t : t) (qs : Query.t list) : string =
  String.concat ""
    (List.map
       (fun q ->
         Fmt.str "%a => %a\n" Query.pp q Response.pp (ask t q))
       qs)

(** The scripted single-loop edit used by the watch CLI, the qcheck
    differential property, the bench gate and CI: insert one fresh
    side-effect-free instruction at the top of a hot loop's header block
    (after any leading phis). The register name embeds the current epoch,
    so repeated auto-edits stay SSA-unique.

    The invalidation pass is function-precise (an edit to loop [L]
    recomputes exactly the queries whose read-set meets [L]'s function),
    so which loop is edited decides the recompute share outright. The
    scripted edit targets the hot loop owning the {e smallest} slice of
    the client workload — the representative "small change to a big
    program" the <20%% re-answer gate is about; the qcheck differential
    property separately exercises edits to arbitrary loops. *)
let auto_edit (t : t) : Edit.op =
  let ctx = Program.ctx t.program in
  let profiles = Program.profiles t.program in
  let weighted =
    List.map
      (fun (lid, _) ->
        (List.length (Scaf_pdg.Pdg.queries_of_loop ctx lid), lid))
      (Scaf_pdg.Nodep.hot_loop_weights profiles)
  in
  match List.sort compare weighted with
  | [] -> invalid_arg "auto_edit: benchmark has no hot loops"
  | (_, lid) :: _ ->
      let fname, header =
        match String.index_opt lid ':' with
        | Some i ->
            ( String.sub lid 0 i,
              String.sub lid (i + 1) (String.length lid - i - 1) )
        | None -> invalid_arg ("auto_edit: malformed lid " ^ lid)
      in
      let at =
        (* phis must stay a prefix of the block *)
        match
          Option.bind
            (Scaf_ir.Irmod.find_func (Program.program t.program) fname)
            (fun f -> Scaf_ir.Func.find_block f header)
        with
        | None -> 0
        | Some b ->
            let rec leading_phis n = function
              | { Scaf_ir.Instr.kind = Scaf_ir.Instr.Phi _; _ } :: rest ->
                  leading_phis (n + 1) rest
              | _ -> n
            in
            leading_phis 0 b.Scaf_ir.Block.instrs
      in
      Edit.Insert_instr
        {
          fname;
          block = header;
          at;
          text = Printf.sprintf "  %%__edit%d = add 1, 2" (epoch t);
        }
