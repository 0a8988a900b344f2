(** The Orchestrator (§3.3, Algorithm 1): forwards queries to modules in
    configured order, joins their responses, stops per the bail-out policy
    and routes premise queries back through the ensemble with a recursion
    budget. Configurable per the paper: module subset and order, join
    policy, bail-out policy, and the desired-result ablation switch.

    The orchestrator's state is abstract: clients observe it only through
    the immutable {!stats} snapshot and the accessors below, so nothing
    outside this module can poison the memo table or the latency
    accounting. Memoization lives in a {!Qcache.t} that may be shared by
    several orchestrators — one per worker domain — to build a parallel
    batch engine (see [Scaf_pdg.Schemes]). *)

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
  clock : (unit -> float) option;  (** per-query latency statistics *)
  module_budget : float option;
      (** per-module-evaluation latency budget in [clock] units; an answer
          arriving past it is discarded as a fault *)
  breaker_threshold : int;
      (** quarantine a module after this many consecutive faults *)
  trace : Scaf_trace.Sink.t;
      (** provenance-tree sink. With {!Scaf_trace.Sink.noop} (the default)
          the query path is byte-for-byte the untraced one; with a
          collecting sink, every sampled client query records a full
          derivation tree: cache behaviour, each module consulted, the
          premise sub-queries it raised (recursively), what the join kept,
          and the final assertion set and cost. *)
  metrics : Scaf_trace.Metrics.t option;
      (** metrics registry. When set, the orchestrator maintains counters
          (query classes, cache hit/miss/canonical-hit, bail-outs, premise
          budget denials) and histograms (premise depth; with [clock],
          per-module and per-query latency). Handles are resolved once at
          {!create}. *)
  epoch : int;
      (** program epoch every cache key is stamped with ({!Qcache.key_of}).
          Batch analysis runs at epoch 0; the incremental engine rebuilds
          orchestrators with the bumped epoch after each program edit. *)
  depsink : Depsink.t;
      (** always-on-grade dependency-event sink feeding the incremental
          engine's invalidation-graph collector. {!Depsink.noop} (the
          default) keeps the query path byte-for-byte unchanged. *)
}

(** CHEAPEST join, definite-free bail-out, premise depth 4, desired-result
    respected, no clock, no module budget, breaker threshold 3, no-op
    trace sink, no metrics, epoch 0, no-op dependency sink. *)
val default_config : Module_api.t list -> config

(** An immutable view of the orchestrator's counters at one instant. *)
type stats_snapshot = {
  client_queries : int;
  premise_queries : int;
  module_evals : int;
  module_faults : int;  (** module evaluations that raised *)
  module_overruns : int;  (** evaluations past [module_budget] *)
  quarantine_skips : int;  (** evaluations skipped by the breaker *)
  deadline_expiries : int;
      (** client queries whose armed deadline (a [Timeout] policy budget or
          an explicit [handle ~deadline]) expired before the consult sweep
          finished — their answers were truncated joins *)
  latency_count : int;  (** client queries with a recorded latency *)
  cache : Qcache.Snapshot.t;
      (** the shared memo store's own counters (immutable snapshot) *)
}

(** Per-module fault-isolation record: a faulting or overrunning module is
    converted into a conservative no-answer, and [breaker_threshold]
    consecutive faults quarantine it for the rest of the session. *)
type health = {
  mutable faults : int;
  mutable overruns : int;
  mutable consecutive : int;  (** consecutive faults; a success resets it *)
  mutable quarantined : bool;
}

type t

(** [create ?cache prog config] — a fresh orchestrator. When [cache] is
    given it is used as the shared memo store (and may be shared with other
    orchestrators, e.g. one per worker domain); otherwise a private one is
    created. Every orchestrator additionally owns a private
    {!Qcache.Local.t} L1 over that store — unsynchronized lookups, batched
    publication — sized by [l1_capacity] (default 8192) and flushed every
    [l1_flush_every] memoized answers (default 32). An orchestrator must
    therefore stay single-worker: share the {!Qcache.t}, not the
    orchestrator. *)
val create :
  ?cache:Qcache.t ->
  ?l1_capacity:int ->
  ?l1_flush_every:int ->
  Scaf_cfg.Progctx.t ->
  config ->
  t

val config : t -> config
val prog : t -> Scaf_cfg.Progctx.t

(** The shared memo store — pass it to [create ?cache] to share
    memoization. *)
val cache : t -> Qcache.t

(** Publish this orchestrator's pending L1 entries into the shared store
    now. Anyone about to walk or invalidate the shared store (the
    incremental engine before [Qcache.invalidate], a peer orchestrator that
    wants to observe this one's answers) must flush first; otherwise the
    batch publishes on its own cadence. *)
val flush_cache : t -> unit

(** Counters right now, as an immutable snapshot. *)
val stats : t -> stats_snapshot

(** The (created-on-demand) health record of the module named [name]. *)
val health_of : t -> string -> health

(** Names of the modules currently quarantined by the circuit breaker. *)
val quarantined : t -> string list

(** [handle t q] — Algorithm 1: resolve a client query.

    [deadline], when given, is an {e absolute} point in [clock] units: once
    it has passed, the consult sweep stops (whatever the bail-out policy)
    and the best joined answer so far is returned — always sound, possibly
    conservative. This is how a long-lived service propagates per-request
    deadlines into the analysis without reconfiguring the orchestrator.
    When the configuration's bail-out policy is [Timeout b], the effective
    deadline is the earlier of the two. Requires [clock] (raises
    [Invalid_argument] otherwise); answers truncated by an expired deadline
    are never memoized, so they cannot poison later full-budget queries. *)
val handle : ?deadline:float -> t -> Query.t -> Response.t

(** [handle_deadlined t ~deadline q] — like [handle ~deadline q] but also
    reports whether the deadline expired while answering, i.e. whether the
    response may be a truncated join that a service should flag as
    degraded. *)
val handle_deadlined : t -> deadline:float -> Query.t -> Response.t * bool

(** [cached t q] — [q]'s memoized response, if a cache tier holds one for
    the orchestrator's epoch. Runs no module, emits no event and counts no
    client query: the cheap probe a service makes before it coordinates a
    full evaluation (a hit is exactly what {!handle} would return). *)
val cached : t -> Query.t -> Response.t option

(** [ask_many t qs] — resolve a batch; the i-th response answers the i-th
    query. Equivalent to [List.map (handle t) qs]; the domain-parallel
    fan-out over a shared cache lives in [Scaf_pdg.Schemes]. *)
val ask_many : t -> Query.t list -> Response.t list

(** [consult_all t q] — every module's individual answer to [q], in
    configuration order, bypassing the join and the bail-out policy.
    Premise queries still flow through the whole ensemble, so each response
    is the module's contribution under full collaboration; per-module
    answers are never memoized. This is the audit layer's entry point for
    grading modules one by one. *)
val consult_all : t -> Query.t -> (string * Response.t) list

(** Retained client-query latency sample (needs [clock]). Bounded by the
    latency reservoir's capacity; see [latency_count] for the exact number
    of observations. *)
val latencies : t -> float list

(** Exact number of client queries whose latency was recorded. *)
val latency_count : t -> int

(** [latency_percentile t p] — the [p]-th percentile (0..100) of the
    retained latency sample. *)
val latency_percentile : t -> float -> float

(** Is a [Timeout] deadline currently armed? (Always false between
    queries — [handle] clears it on exit.) *)
val deadline_pending : t -> bool
