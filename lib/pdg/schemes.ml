(** The evaluated schemes (§5): CAF (static only), composition by
    confluence (best prior), composition by collaboration (SCAF), the
    desired-result ablation of SCAF, memory speculation, and the observed
    dependences themselves.

    Each scheme exists in two forms:

    - a {!resolver} — one live instance (the classic sequential path);
    - a {!scheme} — a domain-safe factory: every [spawn ()] builds a
      private module ensemble and orchestrator, but all workers spawned
      from one scheme share a single canonicalizing {!Scaf.Qcache.t}, so
      memoized answers flow between worker domains. {!Scheduler.map} is
      the deterministic fan-out that ties them together. *)

open Scaf
open Scaf_profile

type resolver = {
  rname : string;
  resolve : Query.t -> Response.t;
  latencies : unit -> float list;  (** client-query latencies, if tracked *)
}

(** A scheme as a factory of per-worker resolvers over one shared cache.
    [scache] is that cache when the scheme memoizes (None for the
    stateless profile-replay schemes). *)
type scheme = {
  sname : string;
  spawn : unit -> resolver;
  scache : Qcache.t option;
}

let orchestrate ?clock ?(respect_desired = true) ?cache
    ?(trace = Scaf_trace.Sink.noop) ?metrics prog modules : Orchestrator.t =
  Orchestrator.create ?cache prog
    { (Orchestrator.default_config modules) with
      Orchestrator.respect_desired;
      clock;
      trace;
      metrics;
    }

let resolver_of_orchestrator (rname : string) (o : Orchestrator.t) : resolver =
  {
    rname;
    resolve = (fun q -> Orchestrator.handle o q);
    latencies = (fun () -> Orchestrator.latencies o);
  }

(** CAF: collaboration among the 13 memory-analysis modules only. *)
let caf_scheme ?clock ?trace ?metrics (profiles : Profiles.t) : scheme =
  let prog = profiles.Profiles.ctx in
  let cache = Qcache.create () in
  {
    sname = "CAF";
    spawn =
      (fun () ->
        resolver_of_orchestrator "CAF"
          (orchestrate ?clock ?trace ?metrics ~cache prog
             (Scaf_analysis.Registry.create prog)));
    scache = Some cache;
  }

(** SCAF: full collaboration among memory analysis and speculation.
    [trace]/[metrics] attach one shared sink/registry to every spawned
    worker's orchestrator (both are domain-safe). *)
let scaf_scheme ?clock ?(respect_desired = true) ?trace ?metrics
    (profiles : Profiles.t) : scheme =
  let prog = profiles.Profiles.ctx in
  let cache = Qcache.create () in
  let name = if respect_desired then "SCAF" else "SCAF w/o Desired Result" in
  {
    sname = name;
    spawn =
      (fun () ->
        let modules =
          Scaf_analysis.Registry.create prog
          @ Scaf_speculation.Registry.create profiles
        in
        resolver_of_orchestrator name
          (orchestrate ?clock ~respect_desired ?trace ?metrics ~cache prog
             modules));
    scache = Some cache;
  }

(** Composition by confluence: CAF as one collaborative component, each
    speculative technique self-contained, results joined. Every
    sub-ensemble keeps its own shared cache (their answers differ, so they
    must never share entries). *)
let confluence_scheme ?clock ?trace ?metrics (profiles : Profiles.t) : scheme =
  let prog = profiles.Profiles.ctx in
  let caf_cache = Qcache.create () in
  let unit_caches =
    List.map
      (fun _ -> Qcache.create ())
      (Scaf_speculation.Registry.confluence_units profiles)
  in
  {
    sname = "Confluence";
    spawn =
      (fun () ->
        let caf_o =
          orchestrate ?trace ?metrics ~cache:caf_cache prog
            (Scaf_analysis.Registry.create prog)
        in
        let unit_os =
          List.map2
            (fun cache units -> orchestrate ~cache prog units)
            unit_caches
            (Scaf_speculation.Registry.confluence_units profiles)
        in
        let t0 = ref 0.0 in
        let lats = ref [] in
        let resolve q =
          (match clock with Some c -> t0 := c () | None -> ());
          let r =
            List.fold_left
              (fun acc o -> Join.join Join.Cheapest acc (Orchestrator.handle o q))
              (Orchestrator.handle caf_o q)
              unit_os
          in
          (match clock with Some c -> lats := (c () -. !t0) :: !lats | None -> ());
          r
        in
        { rname = "Confluence"; resolve; latencies = (fun () -> List.rev !lats) });
    scache = Some caf_cache;
  }

(** Memory speculation: assert the absence of every dependence that did not
    manifest during profiling (loop-sensitive dependence profile), at
    shadow-memory validation cost. *)
let memory_speculation (profiles : Profiles.t) : resolver =
  let resolve (q : Query.t) : Response.t =
    match q with
    | Query.Alias _ -> Response.bottom_alias
    | Query.Modref mq -> (
        match (mq.Query.mloop, mq.Query.mtarget) with
        | Some lid, Query.TInstr i2 ->
            let cross =
              match mq.Query.mtr with
              | Query.Same -> false
              | Query.Before | Query.After -> true
            in
            let i1 = mq.Query.minstr in
            if
              Memdep_profile.observed profiles.Profiles.memdep ~lid ~src:i1
                ~dst:i2 ~cross
            then Response.bottom_modref
            else
              let count id =
                Residue_profile.exec_count profiles.Profiles.residues id
              in
              Response.speculative (Aresult.RModref Aresult.NoModRef)
                [
                  {
                    Assertion.module_id = "memory-speculation";
                    points = [ i1; i2 ];
                    cost =
                      Cost_model.scaled Cost_model.memspec_check
                        (count i1 + count i2);
                    conflicts = [];
                    payload = Assertion.Mem_nodep { src = i1; dst = i2; cross };
                  };
                ]
        | _ -> Response.bottom_modref)
  in
  { rname = "Memory Speculation"; resolve; latencies = (fun () -> []) }

(** Observed dependences: what actually manifested while profiling —
    the floor no speculative scheme can beat. *)
let observed (profiles : Profiles.t) : resolver =
  let resolve (q : Query.t) : Response.t =
    match q with
    | Query.Alias _ -> Response.bottom_alias
    | Query.Modref mq -> (
        match (mq.Query.mloop, mq.Query.mtarget) with
        | Some lid, Query.TInstr i2 ->
            let cross =
              match mq.Query.mtr with
              | Query.Same -> false
              | Query.Before | Query.After -> true
            in
            if
              Memdep_profile.observed profiles.Profiles.memdep ~lid
                ~src:mq.Query.minstr ~dst:i2 ~cross
            then Response.bottom_modref
            else Response.free (Aresult.RModref Aresult.NoModRef)
        | _ -> Response.bottom_modref)
  in
  { rname = "Observed"; resolve; latencies = (fun () -> []) }

(* The classic one-instance entry points are the single-worker
   instantiations of the schemes above. *)
let caf ?clock ?trace ?metrics (profiles : Profiles.t) : resolver =
  (caf_scheme ?clock ?trace ?metrics profiles).spawn ()

let scaf ?clock ?(respect_desired = true) ?trace ?metrics
    (profiles : Profiles.t) : resolver =
  (scaf_scheme ?clock ~respect_desired ?trace ?metrics profiles).spawn ()

let confluence ?clock ?trace ?metrics (profiles : Profiles.t) : resolver =
  (confluence_scheme ?clock ?trace ?metrics profiles).spawn ()

(** A stateless resolver lifted to a (trivially domain-safe) scheme. *)
let stateless_scheme (mk : Profiles.t -> resolver) (profiles : Profiles.t) :
    scheme =
  let name = (mk profiles).rname in
  { sname = name; spawn = (fun () -> mk profiles); scache = None }

let memory_speculation_scheme = stateless_scheme memory_speculation
let observed_scheme = stateless_scheme observed

(* ------------------------------------------------------------------ *)
(* Parallelism                                                         *)
(* ------------------------------------------------------------------ *)

(** The default [--jobs]: one worker per recommended domain. *)
let default_jobs () : int = Domain.recommended_domain_count ()

