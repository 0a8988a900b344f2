(** Pass 1 — cross-module contradiction detection.

    Every query of the benchmark workload is fanned to each registered
    module individually ({!Scaf.Orchestrator.consult_all}, which bypasses
    the join and the bail-out policy), and the per-module answers are
    cross-examined:

    - *lattice contradictions*: two assertion-free answers that cannot both
      hold — one module proves the locations disjoint ([NoAlias]) while
      another proves them identical ([MustAlias]/[SubAlias]). Free answers
      are claims about every execution, so this is a soundness bug in at
      least one of the two. (Mod vs Ref vs NoModRef answers are *not*
      contradictions: Algorithm 2 joins Mod and Ref to NoModRef by design.)
    - *asymmetry*: alias is symmetric up to operand order and
      [flip_temporal]; a module whose free answers to a query and its
      mirror contradict each other is unsound, one whose precision merely
      differs earns a warning.
    - *non-monotonicity*: the orchestrator's joined answer must be at least
      as precise as any single module's free answer — the join can only
      strengthen. A weaker joined answer means the configuration is leaving
      sound precision on the table. *)

open Scaf

let render_query (q : Query.t) : string = Fmt.str "%a" Query.pp q

(** The ensemble's derivation tree for [q], rendered: a fresh traced
    orchestrator (same program, same configuration, fresh cache — replaying
    through the shared memo table would show only a cache hit with no
    consults) re-resolves the query with a collecting sink attached. *)
let explain_query (orch : Orchestrator.t) (q : Query.t) : string =
  let sink = Scaf_trace.Sink.create () in
  let o =
    Orchestrator.create (Orchestrator.prog orch)
      { (Orchestrator.config orch) with Orchestrator.trace = sink }
  in
  ignore (Orchestrator.handle o q);
  match Scaf_trace.Sink.roots sink with
  | n :: _ -> Scaf_trace.Sink.tree_to_string n
  | [] -> ""

(* Assertion-free definite claims only: speculative options may legally
   contradict each other (each is validated at runtime). *)
let free_alias (r : Response.t) : Aresult.alias_res option =
  if not (Response.Options.has_unconditional r.Response.options) then None
  else match r.Response.result with Aresult.RAlias a -> Some a | _ -> None

let contradictory (a : Aresult.alias_res) (b : Aresult.alias_res) : bool =
  match (a, b) with
  | Aresult.NoAlias, (Aresult.MustAlias | Aresult.SubAlias)
  | (Aresult.MustAlias | Aresult.SubAlias), Aresult.NoAlias ->
      true
  | _ -> false

let mirror (q : Query.t) : Query.t option =
  match q with
  | Query.Alias a ->
      Some
        (Query.Alias
           {
             a with
             Query.a1 = a.Query.a2;
             a2 = a.Query.a1;
             atr = Query.flip_temporal a.Query.atr;
           })
  | Query.Modref _ -> None

(* Pairwise free-answer contradictions within one fan-out. *)
let check_pairwise ~bench ~query ~witness ~explain
    (answers : (string * Response.t) list) : Finding.t list =
  let frees =
    List.filter_map
      (fun (name, r) -> Option.map (fun a -> (name, a)) (free_alias r))
      answers
  in
  let rec pairs acc = function
    | [] -> acc
    | (n1, a1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (n2, a2) ->
              if contradictory a1 a2 then
                Finding.make ~pass:Finding.Contradiction
                  ~severity:Finding.Soundness
                  ~modname:(Printf.sprintf "%s vs %s" n1 n2)
                  ~bench ~query:(query ()) ~witness:(witness ())
                  ~explain:(explain ())
                  (Printf.sprintf
                     "assertion-free answers contradict: %s says %s, %s says \
                      %s"
                     n1 (Aresult.alias_name a1) n2 (Aresult.alias_name a2))
                :: acc
              else acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] frees

(* Per-module symmetry under operand swap + temporal flip. *)
let check_symmetry (orch : Orchestrator.t) ~bench ~witness ~explain
    (q : Query.t) (answers : (string * Response.t) list) : Finding.t list =
  match mirror q with
  | None -> []
  | Some mq ->
      let manswers = Orchestrator.consult_all orch mq in
      List.concat_map
        (fun (name, r) ->
          match List.assoc_opt name manswers with
          | None -> []
          | Some mr -> (
              match (free_alias r, free_alias mr) with
              | Some a, Some b when contradictory a b ->
                  [
                    Finding.make ~pass:Finding.Contradiction
                      ~severity:Finding.Soundness ~modname:name ~bench
                      ~query:(render_query q) ~witness:(witness ())
                      ~explain:(explain ())
                      (Printf.sprintf
                         "free answers to a query and its mirror contradict: \
                          %s vs %s under operand swap + flip_temporal"
                         (Aresult.alias_name a) (Aresult.alias_name b));
                  ]
              | Some a, Some b when a <> b ->
                  [
                    Finding.make ~pass:Finding.Contradiction
                      ~severity:Finding.Warning ~modname:name ~bench
                      ~query:(render_query q)
                      (Printf.sprintf
                         "asymmetric precision under operand swap + \
                          flip_temporal: %s vs %s"
                         (Aresult.alias_name a) (Aresult.alias_name b));
                  ]
              | _ -> []))
        answers

(* The joined answer must be at least as precise as any free individual
   answer. *)
let check_monotonicity (orch : Orchestrator.t) ~bench (q : Query.t)
    (answers : (string * Response.t) list) : Finding.t list =
  let joined = Orchestrator.handle orch q in
  let joined_pr = Aresult.pr joined.Response.result in
  List.filter_map
    (fun (name, r) ->
      if
        Response.Options.has_unconditional r.Response.options
        && Aresult.pr r.Response.result > joined_pr
      then
        Some
          (Finding.make ~pass:Finding.Contradiction ~severity:Finding.Warning
             ~modname:name ~bench ~query:(render_query q)
             (Printf.sprintf
                "join is non-monotone: module alone proves %s free, joined \
                 ensemble answer is %s"
                (Fmt.str "%a" Aresult.pp r.Response.result)
                (Fmt.str "%a" Aresult.pp joined.Response.result)))
      else None)
    answers

(** Cross-examine one query's fan-out [answers] (its per-module answers,
    {!Orchestrator.consult_all}). *)
let check_query (orch : Orchestrator.t) ~(bench : string)
    ~(witness : unit -> string) (q : Query.t)
    (answers : (string * Response.t) list) : Finding.t list =
  (* the query text and the derivation tree are only rendered when a
     finding embeds them *)
  let r = lazy (render_query q) in
  let query () = Lazy.force r in
  let e = lazy (explain_query orch q) in
  let explain () = Lazy.force e in
  check_pairwise ~bench ~query ~witness ~explain answers
  @ check_symmetry orch ~bench ~witness ~explain q answers
  @ check_monotonicity orch ~bench q answers

(** Run the contradiction pass over one hot loop's workload (dependence
    queries + alias probes). *)
let check_loop (orch : Orchestrator.t) (prog : Scaf_cfg.Progctx.t)
    ~(bench : string) ~(lid : string) : Finding.t list =
  (* the witness is the same per-loop slice for every finding; compute it
     once, on demand *)
  let w = lazy (Witness.for_loop prog ~lid) in
  let witness () = Lazy.force w in
  let dep_queries =
    List.map (Scaf_pdg.Pdg.to_query lid)
      (Scaf_pdg.Pdg.queries_of_loop prog lid)
  in
  let alias_queries =
    List.map (fun (_, _, q) -> q) (Scaf_pdg.Pdg.alias_probes_of_loop prog lid)
  in
  List.concat_map
    (fun q -> check_query orch ~bench ~witness q (Orchestrator.consult_all orch q))
    (dep_queries @ alias_queries)
