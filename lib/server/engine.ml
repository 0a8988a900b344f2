(** The daemon's resident analysis state: every benchmark profiled once at
    load, one warm shared {!Scaf.Qcache.t} per benchmark (plus a separate
    one for the degraded cheap ensemble — their answers differ, so they
    must never share entries), per-worker orchestrators over those caches,
    and the in-flight coalescing table.

    Since the incremental engine landed, each benchmark is held as a
    {e forked} {!Scaf_suite.Program.t} handle (the registry hands out fresh
    handles, and the engine forks again so no other client of the same
    registry entry can mutate under it) plus an invalidation-graph
    {!Scaf_incremental.Collector.graph} that every worker's full-ensemble
    orchestrator feeds. {!apply_edit} commits an edit script, runs the
    provenance-driven invalidation pass over the shared cache, and bumps
    the program epoch; worker orchestrators notice the stale epoch on
    their next lookup and rebuild over the surviving entries — the daemon
    never restarts.

    Threading model: orchestrators are single-threaded, so each worker
    thread owns a private table of them (lazily instantiated per benchmark,
    epoch-checked); everything shared — caches, the collector graph, the
    flight table, the lazy Figure 8 rows — is mutex-guarded or internally
    synchronized. A query racing an edit is answered against whichever
    program state its orchestrator was built for: sound for that state,
    and unreachable from the new epoch's cache keys afterwards. *)

open Scaf
open Scaf_suite
open Scaf_profile
open Scaf_incremental

type bench = {
  program : Program.t;  (** forked handle; mutated only by {!apply_edit} *)
  cache : Qcache.t;  (** shared by every worker's full-ensemble orchestrator *)
  cheap_cache : Qcache.t;  (** ditto for the cheap (analysis-only) ensemble *)
  graph : Collector.graph;  (** read-set provenance of [cache]'s entries *)
  bm : Mutex.t;  (** guards edits and the lazy row *)
  mutable row : Scaf_report.Experiments.fig8_row option;
      (** the benchmark's Figure 8 row, evaluated on first demand and
          dropped by {!apply_edit} (it describes the previous epoch) *)
  fingerprint : Fingerprint.memo;  (** of [program]'s current profiles *)
}

type t = {
  mutable benches : (string * bench) list;
      (** grows via {!submit}; the list value is immutable and swapped
          atomically under [em], so readers take a consistent snapshot
          without locking *)
  em : Mutex.t;  (** serializes submissions *)
  wrap : Module_api.t list -> Module_api.t list;
      (** ensemble wrapper hook — identity in production, fault injection
          under the chaos harness *)
  static_nodep : bool;
      (** consult {!Scaf_lint.Static_nodep} before the orchestrator *)
  metrics : Scaf_trace.Metrics.t option;
  pool : Scaf_pdg.Scheduler.pool;
      (** the engine's one long-lived work-stealing pool, shared by every
          figure evaluation for the daemon's whole lifetime (Scheduler.map
          serializes concurrent worker threads) *)
  flights : (string, flight) Hashtbl.t;
  fm : Mutex.t;
  fc : Condition.t;
  mutable coalesced : int;  (** requests served by joining a peer's flight *)
}

(** One in-flight full-fidelity evaluation; identical concurrent requests
    join it instead of re-running the consult sweep. *)
and flight = {
  mutable outcome : (Response.t * bool) option;  (** (response, expired) *)
  mutable waiters : int;
}

let bench_id (b : bench) : string = Program.id b.program
let bench_epoch (b : bench) : int = Program.epoch b.program
let bench_profiles (b : bench) : Profiles.t = Program.profiles b.program

(** Hot loops of the benchmark's current program state. *)
let bench_loops (b : bench) : (string * float) list =
  Scaf_pdg.Nodep.hot_loop_weights (bench_profiles b)

let clock () = Unix.gettimeofday ()

let load_bench (p : Program.t) : bench =
  let program = Program.fork p in
  ignore (Program.profiles program : Profiles.t) (* profile at load time *);
  {
    program;
    (* the daemon is the one deployment where shard-lock waits matter, so
       its caches get the wall clock and `ask stats` shows wait latency *)
    cache = Qcache.create ~wait_clock:clock ();
    cheap_cache = Qcache.create ~wait_clock:clock ();
    graph =
      Collector.create_graph
        ~funcs_of:(Collector.funcs_of_ctx (Program.ctx program));
    bm = Mutex.create ();
    row = None;
    fingerprint = Fingerprint.memo ();
  }

(** [jobs] sizes the engine's domain pool (default 1: no extra domains —
    the right choice for tests and small hosts; the daemon passes its
    configured parallelism). Engines with [jobs > 1] hold live domains and
    must be {!shutdown}. *)
let create ?(wrap = Fun.id) ?(static_nodep = false) ?metrics ?(jobs = 1)
    ~(benchmarks : Program.t list) () : t =
  {
    benches = List.map (fun p -> (Program.id p, load_bench p)) benchmarks;
    em = Mutex.create ();
    wrap;
    static_nodep;
    metrics;
    pool = Scaf_pdg.Scheduler.create ~jobs ();
    flights = Hashtbl.create 64;
    fm = Mutex.create ();
    fc = Condition.create ();
    coalesced = 0;
  }

let pool (t : t) : Scaf_pdg.Scheduler.pool = t.pool

(** Join the engine's pool domains. The engine still answers queries
    afterwards (orchestrators are pool-independent); only the parallel
    figure evaluations are gone. *)
let shutdown (t : t) : unit = Scaf_pdg.Scheduler.shutdown t.pool

let bench_names (t : t) : string list = List.map fst t.benches
let find_bench (t : t) (name : string) : bench option =
  List.assoc_opt name t.benches

let coalesced_count (t : t) : int =
  Mutex.lock t.fm;
  let n = t.coalesced in
  Mutex.unlock t.fm;
  n

(* ------------------------------------------------------------------ *)
(* Per-worker orchestrators                                            *)
(* ------------------------------------------------------------------ *)

type worker = {
  eng : t;
  full : (string, int * Orchestrator.t) Hashtbl.t;
      (** by benchmark name, stamped with the epoch it was built for *)
  cheap : (string, int * Orchestrator.t) Hashtbl.t;
}

let worker (eng : t) : worker =
  { eng; full = Hashtbl.create 8; cheap = Hashtbl.create 8 }

(* The full-fidelity ensemble: exactly the SCAF scheme's module stack, so
   a non-degraded daemon answer is the batch evaluation's answer. Rebuilt
   (over the shared cache's surviving entries) whenever the benchmark's
   epoch moved past the memoized orchestrator's. *)
let full_orchestrator (w : worker) (b : bench) : Orchestrator.t =
  let epoch = bench_epoch b in
  match Hashtbl.find_opt w.full (bench_id b) with
  | Some (e, o) when e = epoch -> o
  | _ ->
      let profiles = bench_profiles b in
      let modules =
        w.eng.wrap
          (Scaf_analysis.Registry.create (Program.ctx b.program)
          @ Scaf_speculation.Registry.create profiles)
      in
      (* [l1_flush_every:1] publishes every memoized answer into the
         shared store immediately: other worker threads (flight joiners,
         cached-only degraded answers) probe the shared store, and
         {!apply_edit}'s invalidation walk can only restamp what the store
         holds — an answer parked in a private L1 batch would be invisible
         to all three. Per-add publication costs exactly what the pre-L1
         design did. *)
      let o =
        Orchestrator.create ~cache:b.cache ~l1_flush_every:1
          profiles.Profiles.ctx
          {
            (Orchestrator.default_config modules) with
            Orchestrator.clock = Some clock;
            epoch;
            depsink = Collector.sink (Collector.frontend b.graph);
          }
      in
      Hashtbl.replace w.full (bench_id b) (epoch, o);
      o

(* The load-shed ensemble: static analysis only, shallow premise budget —
   cheap, assertion-free, still sound. Its cache has no provenance graph;
   {!apply_edit} simply clears it. *)
let cheap_orchestrator (w : worker) (b : bench) : Orchestrator.t =
  let epoch = bench_epoch b in
  match Hashtbl.find_opt w.cheap (bench_id b) with
  | Some (e, o) when e = epoch -> o
  | _ ->
      let modules =
        w.eng.wrap (Scaf_analysis.Registry.create (Program.ctx b.program))
      in
      let o =
        (* immediate publication for the same reasons as the full
           ensemble above *)
        Orchestrator.create ~cache:b.cheap_cache ~l1_flush_every:1
          (Program.ctx b.program)
          {
            (Orchestrator.default_config modules) with
            Orchestrator.clock = Some clock;
            max_premise_depth = 2;
            epoch;
          }
      in
      Hashtbl.replace w.cheap (bench_id b) (epoch, o);
      o

(* ------------------------------------------------------------------ *)
(* Answering                                                           *)
(* ------------------------------------------------------------------ *)

(* The epoch is part of the flight key: a request racing an edit must not
   join a flight evaluating against the other program state. *)
let flight_key (b : bench) (q : Query.t) : string =
  Fmt.str "%s\x00%d\x00%a" (bench_id b) (Query.epoch_of q) Query.pp q

(* A miss, evaluated with coalescing: the first thread in becomes the
   flight's leader and runs the consult sweep; identical concurrent
   queries block on the flight and share its outcome (a joiner inherits
   the leader's deadline fate — sound either way, and flagged). *)
let flight_answer (w : worker) (b : bench) (o : Orchestrator.t)
    (q : Query.t) ~(deadline : float option) : Response.t * bool * bool =
  let eng = w.eng in
  let key = flight_key b q in
  Mutex.lock eng.fm;
  match Hashtbl.find_opt eng.flights key with
  | Some fl ->
      fl.waiters <- fl.waiters + 1;
      eng.coalesced <- eng.coalesced + 1;
      let rec wait () =
        match fl.outcome with
        | Some (r, expired) ->
            fl.waiters <- fl.waiters - 1;
            Mutex.unlock eng.fm;
            (r, expired, true)
        | None ->
            Condition.wait eng.fc eng.fm;
            wait ()
      in
      wait ()
  | None ->
      let fl = { outcome = None; waiters = 0 } in
      Hashtbl.add eng.flights key fl;
      Mutex.unlock eng.fm;
      let outcome =
        match
          (match deadline with
          | Some d -> Orchestrator.handle_deadlined o ~deadline:d q
          | None -> (Orchestrator.handle o q, false))
        with
        | r -> Ok r
        | exception e -> Error e
      in
      Mutex.lock eng.fm;
      (* publish (bottom on a leader crash — waiters must never hang),
         then retire the flight so later requests re-evaluate *)
      (match outcome with
      | Ok re -> fl.outcome <- Some re
      | Error _ -> fl.outcome <- Some (Response.bottom_for q, false));
      Hashtbl.remove eng.flights key;
      Condition.broadcast eng.fc;
      Mutex.unlock eng.fm;
      (match outcome with
      | Ok (r, expired) -> (r, expired, false)
      | Error e -> raise e)

(* Full-fidelity evaluation. A warm hit is answered straight from the
   cache: no flight key to render, no flight-table lock. Like the
   orchestrator, a hit past the request's deadline is flagged. *)
let full_answer (w : worker) (b : bench) (q : Query.t)
    ~(deadline : float option) : Response.t * bool * bool =
  let o = full_orchestrator w b in
  match Orchestrator.cached o q with
  | Some r ->
      let expired =
        match deadline with Some d -> clock () >= d | None -> false
      in
      (r, expired, false)
  | None -> flight_answer w b o q ~deadline

(** Answer one wire query at the given degradation level. The query is
    stamped with the benchmark's current epoch, so it can only hit cache
    entries valid for the current program state. Never raises on deadline
    expiry or load shedding — degradation is data, not control flow. *)
(* The static quick-answer pass (opt-in): a provably-disjoint query is
   resolved from the lint layer's pointer reasoning alone — cheaper than a
   cache probe, never cached, counted either way. *)
let static_quick (t : t) (b : bench) (q : Query.t) : Response.t option =
  if not t.static_nodep then None
  else begin
    let r = Scaf_lint.Static_nodep.answer (Program.ctx b.program) q in
    (match t.metrics with
    | Some m ->
        Scaf_trace.Metrics.incr
          (Scaf_trace.Metrics.counter m
             (match r with
             | Some _ -> "lint.static_nodep.hits"
             | None -> "lint.static_nodep.misses"))
    | None -> ());
    r
  end

let answer (w : worker) ~(degrade : Admission.degrade)
    ~(deadline : float option) (b : bench) (wq : Protocol.wire_query) :
    Protocol.answer =
  let q = Query.at_epoch (bench_epoch b) (Protocol.to_core_query wq) in
  match static_quick w.eng b q with
  | Some r -> Protocol.answer_of_response r
  | None -> (
  match degrade with
  | Admission.Cached_only -> (
      (* shed to the warm cache: a hit is a real (possibly speculative)
         answer; a miss is the sound conservative bottom *)
      match Qcache.find_q b.cache q with
      | Some r ->
          Protocol.answer_of_response ~degraded:"load_shed:cached" r
      | None ->
          Protocol.answer_of_response ~degraded:"load_shed:cached-miss"
            (Response.bottom_for q))
  | Admission.Cheap ->
      let o = cheap_orchestrator w b in
      let r, expired =
        match deadline with
        | Some d -> Orchestrator.handle_deadlined o ~deadline:d q
        | None -> (Orchestrator.handle o q, false)
      in
      Protocol.answer_of_response
        ~degraded:(if expired then "deadline" else "load_shed:cheap-modules")
        r
  | Admission.Full ->
      let r, expired, coalesced = full_answer w b q ~deadline in
      if expired then
        Protocol.answer_of_response ~degraded:"deadline" ~coalesced r
      else Protocol.answer_of_response ~coalesced r)

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

(** Resolve a wire edit against the benchmark's current program state.
    [WAuto] becomes the scripted single-loop edit of the incremental
    session (insert one fresh instruction into the hot loop with the
    smallest workload share). *)
let resolve_edit (b : bench) (we : Protocol.wire_edit) : Edit.op =
  match we with
  | Protocol.WInsert { fname; block; at; text } ->
      Edit.Insert_instr { fname; block; at; text }
  | Protocol.WDelete { id } -> Edit.Delete_instr { id }
  | Protocol.WReplace { lid; block; body } ->
      Edit.Replace_loop_body { lid; block; body }
  | Protocol.WAuto ->
      let s = Session.create (Program.fork b.program) in
      Session.auto_edit s

(** Apply an edit script to the resident benchmark: commit the edit, run
    the provenance-driven invalidation pass over the shared full cache,
    clear the cheap cache (its analysis-only ensemble has no provenance
    graph), drop the stale Figure 8 row, and rebind the collector's
    footprint mapping to the new program. Worker orchestrators rebuild on
    their next request via the epoch check. Serialized per benchmark. *)
let apply_edit (t : t) (b : bench) (wedits : Protocol.wire_edit list) :
    (Edit.diff * Invalidate.stats, Scaf_lint.Diagnostic.t list) result =
  Mutex.lock b.bm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock b.bm)
    (fun () ->
      match List.map (resolve_edit b) wedits with
      | exception e ->
          Error
            [
              Scaf_lint.Diagnostic.error ~code:"edit.target" ~pass:"edit"
                "cannot resolve edit: %s" (Printexc.to_string e);
            ]
      | ops -> (
          let old_m = Program.program b.program in
          let old_fp = Fingerprint.current b.fingerprint b.program in
          match Edit.apply_all b.program ops with
          | Error e -> Error e
          | Ok diff ->
              let new_fp = Fingerprint.current b.fingerprint b.program in
              let profile_dirty =
                Fingerprint.changed ~before:old_fp ~after:new_fp
              in
              let components =
                Components.build [ old_m; Program.program b.program ]
              in
              (* caps of the wrapped ensemble — a chaos wrapper that
                 changes a module's declaration is still judged by what
                 the workers actually consult *)
              let modules =
                t.wrap
                  (Scaf_analysis.Registry.create (Program.ctx b.program)
                  @ Scaf_speculation.Registry.create (bench_profiles b))
              in
              let caps_of name =
                Option.map
                  (fun (m : Module_api.t) -> m.Module_api.caps)
                  (List.find_opt
                     (fun (m : Module_api.t) ->
                       String.equal m.Module_api.name name)
                     modules)
              in
              let stats =
                Invalidate.run ~graph:b.graph ~caps_of ~components
                  ~touched_funcs:diff.Edit.touched_funcs
                  ~touched_globals:diff.Edit.touched_globals ~profile_dirty
                  ~next_epoch:diff.Edit.epoch b.cache
              in
              Qcache.clear b.cheap_cache;
              Collector.set_funcs_of b.graph
                (Collector.funcs_of_ctx (Program.ctx b.program));
              b.row <- None;
              Ok (diff, stats)))

(* ------------------------------------------------------------------ *)
(* Submissions                                                         *)
(* ------------------------------------------------------------------ *)

let valid_id (id : string) : bool =
  String.length id > 0
  && String.length id <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       id

(** Lint-gate and register a user-submitted program: validate the id,
    parse, run the full lint suite, check the static query estimate
    against the admission ceiling [max_est_queries] — all {e before} any
    profiling or analysis — then build the {!Program.t} handle, profile it
    on its training inputs, and publish it in the bench table. On success
    the program is queryable like any suite benchmark (same [Ask] /
    [Queries] / [Edit] / [Report] ops, same epoch discipline). Rejections
    carry the full diagnostic report. *)
let submit (t : t) ~(max_est_queries : int) (wp : Protocol.wire_program) :
    (Protocol.submit_report * bench, Protocol.err) result =
  let id = wp.Protocol.wp_id in
  if not (valid_id id) then
    Error
      (Protocol.bad_request
         (Printf.sprintf
            "submit: invalid program id %S (want [A-Za-z0-9._-]{1,64})" id))
  else if Option.is_some (find_bench t id) then
    Error
      (Protocol.bad_request
         (Printf.sprintf "submit: a benchmark named %S is already registered"
            id))
  else
    match Scaf_ir.Parser.parse_exn_msg wp.Protocol.wp_source with
    | exception Failure msg ->
        Error
          (Protocol.lint_rejected
             [
               Scaf_lint.Diagnostic.error ~code:"parse.error" ~pass:"parse"
                 "%s" msg;
             ])
    | m -> (
        let report = Scaf_lint.Pass.run ?metrics:t.metrics m in
        match Scaf_lint.Pass.errors report with
        | _ :: _ ->
            Error (Protocol.lint_rejected report.Scaf_lint.Pass.diagnostics)
        | [] -> (
            let cost =
              match report.Scaf_lint.Pass.ctx with
              | Some prog -> Scaf_lint.Cost.of_ctx prog
              | None ->
                  (* unreachable: a clean report always carries its ctx *)
                  Scaf_lint.Cost.of_ctx (Scaf_cfg.Progctx.build m)
            in
            if cost.Scaf_lint.Cost.total_est > max_est_queries then
              Error
                (Protocol.lint_rejected
                   [
                     Scaf_lint.Diagnostic.error ~code:"cost.budget"
                       ~pass:"cost"
                       "estimated %d dependence queries exceeds the \
                        admission ceiling (%d)"
                       cost.Scaf_lint.Cost.total_est max_est_queries;
                   ])
            else
              let p =
                Program.make ~id ~descr:"user-submitted"
                  ?train_inputs:wp.Protocol.wp_train
                  ?ref_input:wp.Protocol.wp_ref wp.Protocol.wp_source
              in
              match load_bench p with
              | exception e ->
                  Error
                    (Protocol.lint_rejected
                       [
                         Scaf_lint.Diagnostic.error ~code:"runtime.trap"
                           ~pass:"submit"
                           "program failed while profiling on its training \
                            input: %s"
                           (Printexc.to_string e);
                       ])
              | b ->
                  Mutex.lock t.em;
                  let dup = List.mem_assoc id t.benches in
                  if not dup then t.benches <- t.benches @ [ (id, b) ];
                  Mutex.unlock t.em;
                  if dup then
                    Error
                      (Protocol.bad_request
                         (Printf.sprintf
                            "submit: a benchmark named %S is already \
                             registered"
                            id))
                  else
                    let warnings =
                      List.length
                        (List.filter
                           (fun (d : Scaf_lint.Diagnostic.t) ->
                             d.Scaf_lint.Diagnostic.severity
                             = Scaf_lint.Diagnostic.Warning)
                           report.Scaf_lint.Pass.diagnostics)
                    in
                    Ok
                      ( {
                          Protocol.s_id = id;
                          s_loops =
                            List.map
                              (fun (l : Scaf_lint.Cost.loop_cost) ->
                                (l.Scaf_lint.Cost.lid, l.Scaf_lint.Cost.est))
                              cost.Scaf_lint.Cost.loops;
                          s_est_queries = cost.Scaf_lint.Cost.total_est;
                          s_warnings = warnings;
                        },
                        b )))

(* ------------------------------------------------------------------ *)
(* Workload and report ops                                             *)
(* ------------------------------------------------------------------ *)

(** The benchmark's PDG workload as JSON: hot loops with weights and their
    dependence queries — what a client needs to replay the Figure 8
    workload query by query. Reflects the current program epoch. *)
let queries_json (b : bench) : Json.t =
  let prog = Program.ctx b.program in
  Json.Obj
    [
      ("bench", Json.String (bench_id b));
      ("epoch", Json.Int (bench_epoch b));
      ( "loops",
        Json.List
          (List.map
             (fun (lid, weight) ->
               Json.Obj
                 [
                   ("loop", Json.String lid);
                   ("weight", Json.float weight);
                   ( "queries",
                     Json.List
                       (List.map
                          (fun (dq : Scaf_pdg.Pdg.dep_query) ->
                            Protocol.query_to_json
                              {
                                Protocol.wloop = lid;
                                wsrc = dq.Scaf_pdg.Pdg.src;
                                wdst = dq.Scaf_pdg.Pdg.dst;
                                wcross = dq.Scaf_pdg.Pdg.cross;
                              })
                          (Scaf_pdg.Pdg.queries_of_loop prog lid)) );
                 ])
             (bench_loops b)) );
    ]

(** The benchmark's Figure 8 row, evaluated with the batch scheme stack on
    first demand and cached (the mutex makes the expensive evaluation
    happen once, not once per concurrent request). An edit drops the
    cached row, so a post-edit request re-evaluates against the new
    program state. *)
let report_row (t : t) (b : bench) : Scaf_report.Experiments.fig8_row =
  Mutex.lock b.bm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock b.bm)
    (fun () ->
      match b.row with
      | Some r -> r
      | None ->
          let e =
            Scaf_report.Experiments.evaluate_bench ~pool:t.pool
              ~profiles:(bench_profiles b) b.program
          in
          let r = Scaf_report.Experiments.fig8_row_of_eval e in
          b.row <- Some r;
          r)

let cache_stats_json (t : t) : Json.t =
  let stats_obj (s : Qcache.Snapshot.t) =
    Json.Obj
      [
        ("hits", Json.Int s.Qcache.Snapshot.hits);
        ("l1_hits", Json.Int s.Qcache.Snapshot.l1_hits);
        ("misses", Json.Int s.Qcache.Snapshot.misses);
        ("canonical_hits", Json.Int s.Qcache.Snapshot.canonical_hits);
        ("evictions", Json.Int s.Qcache.Snapshot.evictions);
        ("entries", Json.Int s.Qcache.Snapshot.entries);
        ("publishes", Json.Int s.Qcache.Snapshot.publishes);
        ("steals", Json.Int s.Qcache.Snapshot.steals);
        ("contended", Json.Int s.Qcache.Snapshot.contended);
        ("waits", Json.Int s.Qcache.Snapshot.waits);
        (* lock-wait latency, microseconds: rare by construction, so the
           reservoir-backed p95 is the honest headline number *)
        ( "wait_us_total",
          Json.Float (s.Qcache.Snapshot.wait_ns_total /. 1e3) );
        ("wait_us_max", Json.Float (s.Qcache.Snapshot.wait_ns_max /. 1e3));
        ("wait_us_p95", Json.Float (s.Qcache.Snapshot.wait_ns_p95 /. 1e3));
      ]
  in
  Json.Obj
    (List.map
       (fun (name, b) ->
         ( name,
           Json.Obj
             [
               ("epoch", Json.Int (bench_epoch b));
               ("full", stats_obj (Qcache.snapshot b.cache));
               ("cheap", stats_obj (Qcache.snapshot b.cheap_cache));
             ] ))
       t.benches)
