(** The Orchestrator (§3.3, Algorithm 1).

    Coordinates all module interactions: forwards client queries to modules
    in configured order, joins their responses under the configured join
    policy, stops according to the bail-out policy, and routes premise
    queries back through the ensemble (with a recursion budget so factored
    modules cannot ping-pong forever).

    Configurability per the paper: module subset and order, join policy
    (ALL vs CHEAPEST), bail-out policy (definite-and-free, definite-at-any-
    cost, exhaustive), and the desired-result ablation switch.

    Observability (optional, off by default): a {!Scaf_trace.Sink.t}
    receives one provenance tree per sampled client query, and a
    {!Scaf_trace.Metrics.t} registry receives counters and latency
    histograms. Both are strictly observational — with the no-op sink and
    no registry the query path is the plain Algorithm 1. *)

module Sink = Scaf_trace.Sink
module Metrics = Scaf_trace.Metrics

type bailout =
  | Definite_free  (** stop at a maximally precise, assertion-free answer *)
  | Definite_any  (** stop at a maximally precise answer regardless of cost *)
  | Exhaustive  (** always consult every module *)
  | Timeout of float
      (** definite-free, plus a per-client-query budget in [clock] units
          (for clients sensitive to compilation time, §3.3) *)

type config = {
  modules : Module_api.t list;  (** consulted in order *)
  join_policy : Join.policy;
  bailout : bailout;
  max_premise_depth : int;
  respect_desired : bool;
      (** when false, the desired-result parameter is stripped from premise
          queries (the Figure 10 ablation) *)
  clock : (unit -> float) option;  (** for per-query latency statistics *)
  module_budget : float option;
      (** per-module-evaluation latency budget in [clock] units; an answer
          arriving past it is discarded as a fault *)
  breaker_threshold : int;
      (** quarantine a module after this many consecutive faults *)
  trace : Sink.t;
      (** provenance-tree sink; {!Scaf_trace.Sink.noop} disables tracing *)
  metrics : Metrics.t option;  (** metrics registry, if any *)
  epoch : int;
      (** program epoch all cache keys are stamped with; the incremental
          engine rebuilds orchestrators with the bumped epoch after an
          edit, so pre-edit entries (restamped or evicted by
          [Qcache.invalidate]) can never be hit by mistake *)
  depsink : Depsink.t;
      (** dependency-event sink feeding the invalidation-graph collector;
          {!Depsink.noop} (the default) keeps the query path untouched *)
}

let default_config (modules : Module_api.t list) : config =
  {
    modules;
    join_policy = Join.Cheapest;
    bailout = Definite_free;
    max_premise_depth = 4;
    respect_desired = true;
    clock = None;
    module_budget = None;
    breaker_threshold = 3;
    trace = Sink.noop;
    metrics = None;
    epoch = 0;
    depsink = Depsink.noop;
  }

(* Internal mutable counters; exposed to clients only as the immutable
   [stats_snapshot] below. Latencies go through a bounded reservoir, not an
   unbounded list, so million-query sessions stay O(1) per query. *)
type counters = {
  mutable client_queries : int;
  mutable premise_queries : int;
  mutable module_evals : int;
  lat : Reservoir.t;
  mutable module_faults : int;  (** module evaluations that raised *)
  mutable module_overruns : int;  (** evaluations past [module_budget] *)
  mutable quarantine_skips : int;  (** evaluations skipped by the breaker *)
  mutable deadline_expiries : int;
      (** client queries whose armed deadline expired before the consult
          sweep finished *)
}

type stats_snapshot = {
  client_queries : int;
  premise_queries : int;
  module_evals : int;
  module_faults : int;
  module_overruns : int;
  quarantine_skips : int;
  deadline_expiries : int;
  latency_count : int;
  cache : Qcache.Snapshot.t;
}

(** Per-module fault-isolation record (§3.3 collaboration requires that one
    misbehaving module cannot take down the ensemble). *)
type health = {
  mutable faults : int;
  mutable overruns : int;
  mutable consecutive : int;  (** consecutive faults; a success resets it *)
  mutable quarantined : bool;
}

(* Metric handles resolved once at [create], so the hot path never touches
   the registry's name table. *)
type mx = {
  mx_client : Metrics.counter;
  mx_premise : Metrics.counter;
  mx_alias : Metrics.counter;
  mx_modref_instr : Metrics.counter;
  mx_modref_loc : Metrics.counter;
  mx_bailouts : Metrics.counter;
  mx_hit : Metrics.counter;
  mx_canonical : Metrics.counter;
  mx_miss : Metrics.counter;
  mx_uncacheable : Metrics.counter;
  mx_budget_denied : Metrics.counter;
  mx_premise_depth : Metrics.histogram;
  mx_query_latency : Metrics.histogram;
  mx_module_lat : (string, Metrics.histogram) Hashtbl.t;
      (** read-only after [create]; safe to share across domains *)
}

let bind_metrics (config : config) : mx option =
  match config.metrics with
  | None -> None
  | Some r ->
      let c = Metrics.counter r and h = Metrics.histogram r in
      Some
        {
          mx_client = c "queries.client";
          mx_premise = c "queries.premise";
          mx_alias = c "queries.class.alias";
          mx_modref_instr = c "queries.class.modref_instr";
          mx_modref_loc = c "queries.class.modref_loc";
          mx_bailouts = c "orchestrator.bailouts";
          mx_hit = c "cache.hit";
          mx_canonical = c "cache.canonical_hit";
          mx_miss = c "cache.miss";
          mx_uncacheable = c "cache.uncacheable";
          mx_budget_denied = c "premise.budget_denied";
          mx_premise_depth = h "premise.depth";
          mx_query_latency = h "query.latency";
          mx_module_lat =
            (let tbl = Hashtbl.create 16 in
             List.iter
               (fun (m : Module_api.t) ->
                 Hashtbl.replace tbl m.Module_api.name
                   (h ("module.latency." ^ m.Module_api.name)))
               config.modules;
             tbl);
        }

type t = {
  config : config;
  prog : Scaf_cfg.Progctx.t;
  c : counters;
  cache : Qcache.t;
      (** canonicalizing memo for repeated (premise) queries; queries
          carrying a control-flow view are never keyed (views are closures,
          enforced by [Qcache.key_of]) *)
  local : Qcache.Local.t;
      (** this orchestrator's private L1 over [cache]: unsynchronized
          lookups, batched publication into the shared store. An
          orchestrator is single-worker by construction (one per domain or
          thread), which is exactly the [Local] ownership contract. *)
  deadline : float option ref;
      (** per-client-query deadline when the bail-out policy is [Timeout] *)
  health : (string, health) Hashtbl.t;  (** keyed by module name *)
  mx : mx option;  (** pre-bound metric handles, when [config.metrics] *)
}

let create ?cache ?l1_capacity ?l1_flush_every (prog : Scaf_cfg.Progctx.t)
    (config : config) : t =
  let cache = match cache with Some c -> c | None -> Qcache.create () in
  {
    config;
    prog;
    c =
      {
        client_queries = 0;
        premise_queries = 0;
        module_evals = 0;
        lat = Reservoir.create ();
        module_faults = 0;
        module_overruns = 0;
        quarantine_skips = 0;
        deadline_expiries = 0;
      };
    cache;
    local =
      Qcache.Local.create ?capacity:l1_capacity ?flush_every:l1_flush_every
        cache;
    deadline = ref None;
    health = Hashtbl.create 8;
    mx = bind_metrics config;
  }

let config (t : t) : config = t.config
let prog (t : t) : Scaf_cfg.Progctx.t = t.prog
let cache (t : t) : Qcache.t = t.cache
let flush_cache (t : t) : unit = Qcache.Local.flush t.local

let stats (t : t) : stats_snapshot =
  {
    client_queries = t.c.client_queries;
    premise_queries = t.c.premise_queries;
    module_evals = t.c.module_evals;
    module_faults = t.c.module_faults;
    module_overruns = t.c.module_overruns;
    quarantine_skips = t.c.quarantine_skips;
    deadline_expiries = t.c.deadline_expiries;
    latency_count = Reservoir.count t.c.lat;
    cache = Qcache.snapshot t.cache;
  }

let health_of (t : t) (name : string) : health =
  match Hashtbl.find_opt t.health name with
  | Some h -> h
  | None ->
      let h = { faults = 0; overruns = 0; consecutive = 0; quarantined = false } in
      Hashtbl.replace t.health name h;
      h

(** Names of the modules currently quarantined by the circuit breaker. *)
let quarantined (t : t) : string list =
  Hashtbl.fold (fun n h acc -> if h.quarantined then n :: acc else acc) t.health []
    |> List.sort compare

let deadline_passed (t : t) : bool =
  match (!(t.deadline), t.config.clock) with
  | Some d, Some clock -> clock () >= d
  | _ -> false

let deadline_pending (t : t) : bool = !(t.deadline) <> None

(* An armed per-query deadline trumps every bail-out policy: once it has
   passed, the current join is the best answer this query will get.
   [t.deadline] is only armed by a [Timeout] policy or an explicit
   [handle ~deadline], so the plain policies are unchanged otherwise. *)
let should_bail (t : t) (r : Response.t) : bool =
  deadline_passed t
  ||
  match t.config.bailout with
  | Definite_free -> Response.is_definite_free r
  | Definite_any -> Aresult.is_definite r.Response.result
  | Exhaustive -> false
  | Timeout _ -> Response.is_definite_free r

let class_counter (m : mx) (q : Query.t) : Metrics.counter =
  match Module_api.qclass_of_query q with
  | Module_api.CAlias -> m.mx_alias
  | Module_api.CModref_instr -> m.mx_modref_instr
  | Module_api.CModref_loc -> m.mx_modref_loc

let render_query (q : Query.t) : string = Fmt.str "%a" Query.pp q
let render_result (r : Response.t) : string =
  Fmt.str "%a" Aresult.pp r.Response.result

(* Fill a node's summary fields from its final (joined) response and close
   its span. *)
let seal_node (sink : Sink.t) (n : Sink.node) (r : Response.t) : unit =
  n.Sink.result <- render_result r;
  n.Sink.cost <- Response.Options.cheapest_cost r.Response.options;
  n.Sink.n_options <- Response.Options.count r.Response.options;
  n.Sink.assertions <-
    (match Response.Options.cheapest r.Response.options with
    | Some o -> List.map (fun a -> Fmt.str "%a" Assertion.pp a) o
    | None -> []);
  n.Sink.provenance <- Response.Sset.elements r.Response.provenance;
  Sink.finish_node sink n

(** [guarded_answer t m ctx q] — fault-isolated module evaluation
    (Algorithm 1, hardened): an exception or a [module_budget] overrun is
    recorded against the module and converted into the conservative
    [no_answer]; [breaker_threshold] consecutive faults quarantine the
    module for the rest of the session. A quarantined or faulting module
    can therefore never abort a client query. When tracing, the outcome is
    annotated on [consult]. *)
let guarded_answer ?consult (t : t) (m : Module_api.t) (ctx : Module_api.Ctx.t)
    (q : Query.t) : Response.t =
  let note (s : string) =
    match consult with
    | Some (c : Sink.consult) -> c.Sink.c_note <- s
    | None -> ()
  in
  let name = m.Module_api.name in
  let h = health_of t name in
  if h.quarantined then begin
    t.c.quarantine_skips <- t.c.quarantine_skips + 1;
    note "quarantined";
    Module_api.no_answer q
  end
  else begin
    t.c.module_evals <- t.c.module_evals + 1;
    let fault ~overrun =
      if overrun then begin
        h.overruns <- h.overruns + 1;
        t.c.module_overruns <- t.c.module_overruns + 1;
        note "overrun"
      end
      else begin
        h.faults <- h.faults + 1;
        t.c.module_faults <- t.c.module_faults + 1;
        note "fault"
      end;
      h.consecutive <- h.consecutive + 1;
      if h.consecutive >= t.config.breaker_threshold then h.quarantined <- true;
      Module_api.no_answer q
    in
    let mlat =
      match t.mx with
      | Some m -> Hashtbl.find_opt m.mx_module_lat name
      | None -> None
    in
    (* only sample the clock when a budget or a latency histogram needs it,
       so fake-clock latency accounting is unchanged otherwise *)
    let t0 =
      match t.config.clock with
      | Some clock when t.config.module_budget <> None || mlat <> None ->
          Some (clock ())
      | _ -> None
    in
    match m.Module_api.answer ctx q with
    | r -> (
        let elapsed =
          match (t0, t.config.clock) with
          | Some start, Some clock -> Some (clock () -. start)
          | _ -> None
        in
        (match (mlat, elapsed) with
        | Some hist, Some e -> Metrics.observe hist e
        | _ -> ());
        match (t.config.module_budget, elapsed) with
        | Some budget, Some e when e > budget -> fault ~overrun:true
        | _ ->
            h.consecutive <- 0;
            r)
    | exception _ -> fault ~overrun:false
  end

(* The context handed to modules answering [q] at [depth]. Scope fields
   come from the incoming query itself (its desired result, loop scope and
   speculative control-flow view); [dest], when tracing, is where resolved
   premise trees attach. *)
let rec premise_ctx (t : t) (depth : int) (dest : (Sink.node -> unit) option)
    (q : Query.t) : Module_api.Ctx.t =
  let desired, loop, ctrl_view =
    match q with
    | Query.Alias a -> (a.Query.adr, a.Query.aloop, None)
    | Query.Modref m -> (None, m.Query.mloop, m.Query.mctrl)
  in
  let ask pq =
    if depth + 1 > t.config.max_premise_depth then begin
      (match t.mx with
      | Some m -> Metrics.incr m.mx_budget_denied
      | None -> ());
      let r = Response.bottom_for pq in
      (match dest with
      | Some attach ->
          (* the denial is part of the derivation: record a leaf *)
          let sink = t.config.trace in
          let n =
            Sink.node sink ~query:(render_query pq)
              ~qclass:
                (Module_api.qclass_name (Module_api.qclass_of_query pq))
              ~depth:(depth + 1)
          in
          n.Sink.cache <- Sink.Budget_denied;
          seal_node sink n r;
          attach n
      | None -> ());
      r
    end
    else begin
      t.c.premise_queries <- t.c.premise_queries + 1;
      (match t.mx with
      | Some m ->
          Metrics.incr m.mx_premise;
          Metrics.observe m.mx_premise_depth (float_of_int (depth + 1))
      | None -> ());
      let pq =
        if t.config.respect_desired then pq else Query.without_desired pq
      in
      handle_at t (depth + 1) dest pq
    end
  in
  Module_api.Ctx.make ~depth ?desired ?loop ?ctrl_view ~sink:t.config.trace
    ~ask t.prog

and handle_at (t : t) (depth : int) (dest : (Sink.node -> unit) option)
    (q : Query.t) : Response.t =
  (match t.mx with
  | Some m -> Metrics.incr (class_counter m q)
  | None -> ());
  match dest with
  | None -> (
      (* untraced fast path: Algorithm 1 with memoization, nothing else *)
      match Qcache.key_of ~epoch:t.config.epoch q with
      | None ->
          (match t.mx with
          | Some m -> Metrics.incr m.mx_uncacheable
          | None -> ());
          handle_uncached t depth None None q
      | Some k -> (
          match Qcache.Local.find t.local k with
          | Some r ->
              (match t.mx with
              | Some m ->
                  Metrics.incr
                    (if Qcache.mirrored k then m.mx_canonical else m.mx_hit)
              | None -> ());
              let ds = t.config.depsink in
              if Depsink.enabled ds then
                ds.Depsink.emit (Depsink.Hit { depth; q });
              r
          | None ->
              (match t.mx with
              | Some m -> Metrics.incr m.mx_miss
              | None -> ());
              handle_uncached t depth (Some k) None q))
  | Some attach ->
      let sink = t.config.trace in
      let n =
        Sink.node sink ~query:(render_query q)
          ~qclass:(Module_api.qclass_name (Module_api.qclass_of_query q))
          ~depth
      in
      let finish status r =
        n.Sink.cache <- status;
        seal_node sink n r;
        attach n;
        r
      in
      (match Qcache.key_of ~epoch:t.config.epoch q with
      | None ->
          (match t.mx with
          | Some m -> Metrics.incr m.mx_uncacheable
          | None -> ());
          finish Sink.Uncacheable (handle_uncached t depth None (Some n) q)
      | Some k -> (
          match Qcache.Local.find t.local k with
          | Some r ->
              let mirrored = Qcache.mirrored k in
              (match t.mx with
              | Some m ->
                  Metrics.incr (if mirrored then m.mx_canonical else m.mx_hit)
              | None -> ());
              let ds = t.config.depsink in
              if Depsink.enabled ds then
                ds.Depsink.emit (Depsink.Hit { depth; q });
              finish
                (if mirrored then Sink.Cache_canonical_hit else Sink.Cache_hit)
                r
          | None ->
              (match t.mx with
              | Some m -> Metrics.incr m.mx_miss
              | None -> ());
              finish Sink.Cache_miss
                (handle_uncached t depth (Some k) (Some n) q)))

and handle_uncached (t : t) (depth : int) (key : Qcache.key option)
    (node : Sink.node option) (q : Query.t) : Response.t =
  let ds = t.config.depsink in
  let deps = Depsink.enabled ds in
  if deps then ds.Depsink.emit (Depsink.Enter { depth; q });
  let final = ref (Response.bottom_for q) in
  (match node with
  | None ->
      (* one shared context for the whole consult sweep, as always *)
      let ctx = premise_ctx t depth None q in
      (try
         List.iter
           (fun (m : Module_api.t) ->
             if deps then
               ds.Depsink.emit (Depsink.Consult { name = m.Module_api.name });
             let res = guarded_answer t m ctx q in
             final := Join.join t.config.join_policy !final res;
             if should_bail t !final then raise Stdlib.Exit)
           t.config.modules
       with Stdlib.Exit -> ())
  | Some n ->
      let sink = t.config.trace in
      let total = List.length t.config.modules in
      n.Sink.modules_total <- total;
      let consulted = ref 0 in
      let bailed = ref false in
      (try
         List.iter
           (fun (m : Module_api.t) ->
             incr consulted;
             if deps then
               ds.Depsink.emit (Depsink.Consult { name = m.Module_api.name });
             let c = Sink.consult sink n m.Module_api.name in
             (* per-consult context so this module's premises attach to
                its own consult record *)
             let ctx =
               premise_ctx t depth
                 (Some (fun pn -> Sink.add_premise c pn))
                 q
             in
             let before = !final in
             let res = guarded_answer ~consult:c t m ctx q in
             c.Sink.c_result <- render_result res;
             c.Sink.c_cost <-
               Response.Options.cheapest_cost res.Response.options;
             final := Join.join t.config.join_policy before res;
             (* structural check only on the All policy, where the join
                rebuilds an equal record even from a no-op merge *)
             if (not (before == !final)) && before <> !final then
               c.Sink.c_improved <- true;
             Sink.finish_consult sink c;
             if should_bail t !final then begin
               bailed := true;
               raise Stdlib.Exit
             end)
           t.config.modules
       with Stdlib.Exit -> ());
      if !bailed then begin
        n.Sink.bailed_after <- Some !consulted;
        match t.mx with
        | Some m -> Metrics.incr m.mx_bailouts
        | None -> ()
      end);
  (* memoize answers computed with (nearly) full premise budget — but not
     one truncated by an expired deadline: a partial join replayed for a
     later query with a fresh budget would poison it *)
  let memoized =
    match key with
    | Some k when depth <= 1 && not (deadline_passed t) ->
        Qcache.Local.add t.local k !final;
        true
    | _ -> false
  in
  if deps then ds.Depsink.emit (Depsink.Exit { q; memoized });
  !final

(* Resolve one client query with an optional per-request absolute deadline
   (in [clock] units) armed alongside any [Timeout] policy budget; returns
   the response and whether the armed deadline expired while answering. *)
let handle_core (t : t) ~(deadline : float option) (q : Query.t) :
    Response.t * bool =
  t.c.client_queries <- t.c.client_queries + 1;
  (match t.mx with Some m -> Metrics.incr m.mx_client | None -> ());
  let sink = t.config.trace in
  let dest =
    if Sink.enabled sink && Sink.sample sink then
      Some (fun n -> Sink.add_root sink n)
    else None
  in
  match t.config.clock with
  | None ->
      if deadline <> None then
        invalid_arg "Orchestrator.handle: a deadline needs a clock";
      (handle_at t 0 dest q, false)
  | Some clock ->
      let t0 = clock () in
      let policy_deadline =
        match t.config.bailout with
        | Timeout budget -> Some (t0 +. budget)
        | _ -> None
      in
      (t.deadline :=
         match (policy_deadline, deadline) with
         | Some a, Some b -> Some (Float.min a b)
         | Some a, None -> Some a
         | None, d -> d);
      let r = handle_at t 0 dest q in
      let expired = deadline_passed t in
      if expired then t.c.deadline_expiries <- t.c.deadline_expiries + 1;
      let dt = clock () -. t0 in
      Reservoir.add t.c.lat dt;
      (match t.mx with
      | Some m -> Metrics.observe m.mx_query_latency dt
      | None -> ());
      (* don't leak this query's deadline into the next one *)
      t.deadline := None;
      (r, expired)

(** [handle t q] — Algorithm 1: resolve a client query. [deadline], when
    given, is an absolute point in [clock] units past which the consult
    sweep stops at the best joined answer so far (the analysis-as-a-service
    path: the daemon propagates each request's deadline down here).
    Requires a [clock]; answers truncated by an expired deadline are never
    memoized, so a degraded answer cannot poison later full-budget ones. *)
let handle ?deadline (t : t) (q : Query.t) : Response.t =
  fst (handle_core t ~deadline q)

(** [handle_deadlined t ~deadline q] — like [handle ~deadline] but also
    reports whether the deadline expired while answering (i.e. the response
    may be a truncated, conservative join — the daemon tags such answers as
    degraded). *)
let handle_deadlined (t : t) ~(deadline : float) (q : Query.t) :
    Response.t * bool =
  handle_core t ~deadline:(Some deadline) q

let cached (t : t) (q : Query.t) : Response.t option =
  match Qcache.key_of ~epoch:t.config.epoch q with
  | None -> None
  | Some k -> Qcache.Local.find t.local k

(** [ask_many t qs] — the batch entry point: the i-th response answers the
    i-th query. The domain-parallel fan-out (several orchestrators over a
    shared cache) lives in [Scaf_pdg.Schemes]; this sequential form is its
    [jobs=1] reference semantics. *)
let ask_many (t : t) (qs : Query.t list) : Response.t list =
  List.map (handle t) qs

(** [consult_all t q] — every module's *individual* answer to [q], in
    configuration order, bypassing the join and the bail-out policy (and
    never memoizing the per-module answers). Premise queries a factored
    module raises still flow through the whole ensemble exactly as under
    [handle], so each response is what that module contributes given full
    collaboration — the per-module provenance the audit layer's
    contradiction detector and oracle grade against. Module evaluations are
    guarded (fault isolation and the circuit breaker apply) but no
    [Timeout] deadline is armed. *)
let consult_all (t : t) (q : Query.t) : (string * Response.t) list =
  let ctx = premise_ctx t 0 None q in
  List.map
    (fun (m : Module_api.t) -> (m.Module_api.name, guarded_answer t m ctx q))
    t.config.modules

(** Retained client-query latency sample (bounded reservoir). *)
let latencies (t : t) : float list = Reservoir.samples t.c.lat

let latency_count (t : t) : int = Reservoir.count t.c.lat

let latency_percentile (t : t) (p : float) : float =
  Reservoir.percentile t.c.lat p
