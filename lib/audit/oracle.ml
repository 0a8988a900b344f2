(** Pass 2 — the dynamic-dependence oracle.

    The benchmark is executed under the interpreter with the profiler's
    dependence recorder ({!Scaf_profile.Memdep_profile}) attached, driven
    by the loop tracker, once per training input and once on the reference
    input.
    What actually happened is ground truth:

    - an *assertion-free* NoDep/NoAlias answer claims every execution; one
      observed contradicting dependence — on any input — is a soundness
      bug in the answering module;
    - a *speculative* answer only claims the profiled behavior, so it is
      graded against the training inputs alone: a module whose speculative
      answer is contradicted by the very inputs it profiled misread its own
      profile (the reference input legitimately misspeculates — that is
      what validation and rollback are for).

    The pass also tallies per-module "audit cards": how often each module
    was consulted, answered, answered free vs speculatively, disproved a
    dependence, and was caught unsound. *)

open Scaf
open Scaf_cfg
open Scaf_interp
open Scaf_profile

(* ------------------------------------------------------------------ *)
(* Audit cards                                                         *)
(* ------------------------------------------------------------------ *)

type card = {
  cname : string;
  mutable consulted : int;
  mutable answered : int;  (** non-bottom results *)
  mutable free : int;  (** answered with an assertion-free option *)
  mutable speculative : int;  (** answered under assertions only *)
  mutable nodep : int;  (** affordable NoModRef answers (client currency) *)
  mutable unsound : int;  (** answers contradicted by observation *)
}

type cards = (string, card) Hashtbl.t

let create_cards () : cards = Hashtbl.create 32

let card_of (cards : cards) (name : string) : card =
  match Hashtbl.find_opt cards name with
  | Some c -> c
  | None ->
      let c =
        {
          cname = name;
          consulted = 0;
          answered = 0;
          free = 0;
          speculative = 0;
          nodep = 0;
          unsound = 0;
        }
      in
      Hashtbl.replace cards name c;
      c

let all_cards (cards : cards) : card list =
  Hashtbl.fold (fun _ c acc -> c :: acc) cards []
  |> List.sort (fun a b -> compare a.cname b.cname)

let tally (cards : cards) (name : string) (r : Response.t) : card =
  let c = card_of cards name in
  c.consulted <- c.consulted + 1;
  if not (Aresult.is_bottom r.Response.result) then begin
    c.answered <- c.answered + 1;
    if Response.Options.has_unconditional r.Response.options then c.free <- c.free + 1
    else c.speculative <- c.speculative + 1;
    if Scaf_pdg.Pdg.affordable_nodep r then c.nodep <- c.nodep + 1
  end;
  c

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the program once per input under the dependence recorder (the
    profiler's, driven by the loop tracker). Returns [(train, any)]: the
    dependences observed on the training inputs only, and on training plus
    reference inputs. The training runs are recorded once: each run starts
    from an empty shadow, so [any] is exactly a copy of [train] plus the
    reference run. *)
let observe ?(fuel = 50_000_000) (prog : Progctx.t)
    ~(train : int64 array list) ~(ref_input : int64 array) :
    Memdep_profile.t * Memdep_profile.t =
  let run (into : Memdep_profile.t) (input : int64 array) =
    let tracker =
      Tracker.create ~loops_of:(fun fname -> Progctx.loops_of prog fname)
    in
    let r = Memdep_profile.recorder into in
    let hooks =
      {
        Hooks.nop with
        Hooks.on_edge = (fun fn ~src:_ ~dst -> Tracker.edge tracker fn ~dst);
        on_call_enter = (fun fn ~ctx:_ -> Tracker.call_enter tracker fn);
        on_call_exit = (fun _ -> Tracker.call_exit tracker);
        on_load =
          (fun ~instr ~addr ~size ~value:_ ~obj:_ ~ctx:_ ->
            Memdep_profile.record_load r ~instr:instr.Scaf_ir.Instr.id ~addr
              ~size ~snap:(Tracker.snapshot tracker));
        on_store =
          (fun ~instr ~addr ~size ~value:_ ~obj:_ ~ctx:_ ->
            Memdep_profile.record_store r ~instr:instr.Scaf_ir.Instr.id ~addr
              ~size ~snap:(Tracker.snapshot tracker));
      }
    in
    let (_ : Eval.result) = Eval.run ~hooks ~fuel ~input prog.Progctx.m in
    Tracker.finish tracker
  in
  let wt = Memdep_profile.create () in
  List.iter (run wt) train;
  let wa = Memdep_profile.copy wt in
  run wa ref_input;
  (wt, wa)

(* ------------------------------------------------------------------ *)
(* Grading                                                             *)
(* ------------------------------------------------------------------ *)

let render_query (q : Query.t) : string = Fmt.str "%a" Query.pp q

(* Value prediction breaks dependences that *do* manifest: the validated
   claim is the loaded value (at an endpoint, or at a must-aliasing kill
   load between the endpoints), not the absence of the store/load edge. A
   manifested dependence is therefore excused whenever an option carries a
   value-prediction check. *)
let value_predicted (r : Response.t) : bool =
  List.exists
    (List.exists (fun (a : Assertion.t) ->
         match a.Assertion.payload with
         | Assertion.Value_predict _ -> true
         | _ -> false))
    r.Response.options

(* Grade one module's response to a no-dependence/no-alias claim in loop
   [lid]. [evidence] lists the observed-dependence patterns (src, dst,
   cross) any one of which contradicts the claim — alias claims deny both
   directions, dependence claims exactly one. *)
let grade ~bench ~lid ~(train : Memdep_profile.t) ~(any : Memdep_profile.t)
    ~witness ~explain ~(evidence : (int * int * bool) list) ~(claim : string)
    (name : string) (r : Response.t) (card : card) (q : Query.t) :
    Finding.t option =
  let disproves =
    match (q, r.Response.result) with
    | Query.Modref _, Aresult.RModref Aresult.NoModRef -> true
    | Query.Alias _, Aresult.RAlias Aresult.NoAlias -> true
    | _ -> false
  in
  let manifested (w : Memdep_profile.t) =
    List.find_opt
      (fun (src, dst, cross) -> Memdep_profile.observed w ~lid ~src ~dst ~cross)
      evidence
  in
  let finding ~phrase (src, dst, cross) =
    card.unsound <- card.unsound + 1;
    Some
      (Finding.make ~pass:Finding.Oracle ~severity:Finding.Soundness
         ~modname:name ~bench ~query:(render_query q) ~witness:(witness ())
         ~explain:(explain ())
         (Printf.sprintf
            "%s %s contradicted by %s: dependence %d -> %d (%s-iteration) \
             manifested in loop %s"
            phrase claim
            (if phrase = "assertion-free" then "execution"
             else "its own profiling inputs")
            src dst
            (if cross then "cross" else "intra")
            lid))
  in
  if not disproves then None
  else if Response.Options.has_unconditional r.Response.options then
    match manifested any with
    | Some ev -> finding ~phrase:"assertion-free" ev
    | None -> None
  else if value_predicted r then None
  else
    match manifested train with
    | Some ev -> finding ~phrase:"speculative" ev
    | None -> None

(** One query of a hot loop's workload: the query, the observed-dependence
    patterns any one of which contradicts a disproof of it, and the claim
    such a disproof makes. *)
type work = { query : Query.t; evidence : (int * int * bool) list; claim : string }

(** A hot loop's workload: its dependence queries, then its alias probes
    (the contradiction pass's workload, in the same order). *)
let workload (prog : Progctx.t) ~(lid : string) : work list =
  let dep_work =
    List.map
      (fun (dq : Scaf_pdg.Pdg.dep_query) ->
        {
          query = Scaf_pdg.Pdg.to_query lid dq;
          evidence =
            [ (dq.Scaf_pdg.Pdg.src, dq.Scaf_pdg.Pdg.dst, dq.Scaf_pdg.Pdg.cross) ];
          claim = "NoDep";
        })
      (Scaf_pdg.Pdg.queries_of_loop prog lid)
  in
  let alias_work =
    List.map
      (fun (i1, i2, q) ->
        let evidence =
          match q with
          | Query.Alias { Query.atr = Query.Before; _ } ->
              (* (a1 from an earlier iteration) vs a2: the matching observed
                 pattern is i1-as-source, cross-iteration *)
              [ (i1, i2, true) ]
          | _ ->
              (* intra-iteration NoAlias denies overlap in both execution
                 orders *)
              [ (i1, i2, false); (i2, i1, false) ]
        in
        { query = q; evidence; claim = "NoAlias" })
      (Scaf_pdg.Pdg.alias_probes_of_loop prog lid)
  in
  dep_work @ alias_work

(** Grade one query's fan-out [answers] (its per-module answers,
    {!Orchestrator.consult_all}), tallying audit cards. *)
let check_query (orch : Orchestrator.t) ~(bench : string) ~(lid : string)
    ~(train : Memdep_profile.t) ~(any : Memdep_profile.t)
    ~(witness : unit -> string) (cards : cards) (w : work)
    (answers : (string * Response.t) list) : Finding.t list =
  let e = lazy (Contradiction.explain_query orch w.query) in
  let explain () = Lazy.force e in
  List.filter_map
    (fun (name, r) ->
      let card = tally cards name r in
      grade ~bench ~lid ~train ~any ~witness ~explain ~evidence:w.evidence
        ~claim:w.claim name r card w.query)
    answers

(** Grade every module's individual answers over one hot loop's workload
    against the observed dependences, tallying audit cards along the way. *)
let check_loop (orch : Orchestrator.t) (prog : Progctx.t) ~(bench : string)
    ~(lid : string) ~(train : Memdep_profile.t) ~(any : Memdep_profile.t)
    (cards : cards) : Finding.t list =
  let w = lazy (Witness.for_loop prog ~lid) in
  let witness () = Lazy.force w in
  List.concat_map
    (fun work ->
      check_query orch ~bench ~lid ~train ~any ~witness cards work
        (Orchestrator.consult_all orch work.query))
    (workload prog ~lid)
