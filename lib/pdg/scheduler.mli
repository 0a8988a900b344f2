(** Work-stealing domain pool with deterministic result reassembly.

    Parallel evaluation runs on a first-class {!pool} value rather than
    respawning domains per call with a fixed share each: domains are
    spawned once, live across calls, and each {!map} distributes the
    items as per-worker LIFO deques with random-victim stealing, so a
    worker that drew cheap items takes over the tail of a worker that drew
    expensive ones.

    {b Determinism.} Scheduling only decides {e who} computes an item and
    {e when}; the i-th result is always [f state items.(i)], written into
    slot [i] and reassembled in index order. Provided [f] is deterministic
    per item (SCAF's query evaluation is: a cache hit returns exactly the
    response a recompute would produce), the output is byte-identical at
    any pool size — including 1, where {!map} degenerates to [List.map]
    with zero scheduling overhead.

    {b Deques.} Items are dense indices, so a deque is just a contiguous
    interval [\[lo, hi)] under its own tiny mutex: the owner pops from the
    [hi] end (LIFO), a thief locks a random victim and takes the older
    half from the [lo] end, keeping every deque a contiguous interval. An
    idle worker gives up only after consecutive full scans find every
    deque empty (any remaining items are then in flight on other workers).

    {b Lifecycle.} A pool holds [jobs - 1] live domains; OCaml caps total
    domains at a small fixed number, so pools must be {!shutdown} (or
    scoped with {!with_pool}) — they are not garbage-collectable
    resources. {!map} calls are serialized: concurrent callers (the
    daemon's worker threads) queue on the submission lock and each batch
    has the whole pool. Calling {!map} on [pool] from inside a task
    running on that same pool would self-deadlock; fan out at one level
    only. *)

type pool

(** [create ()] — a pool of [jobs] workers: the caller (which participates
    in every {!map}) plus [jobs - 1] freshly spawned domains. [jobs]
    defaults to [Domain.recommended_domain_count ()] and is clamped to at
    least 1; [jobs = 1] spawns nothing. *)
val create : ?jobs:int -> unit -> pool

(** Worker count, including the calling slot. *)
val size : pool -> int

(** Total steal events since {!create} (a thief moving the older half of
    a victim's deque counts once, whatever the half's size). *)
val steals : pool -> int

(** [map pool ~state ~f items] — the i-th result is [f w items.(i)] where
    [w] is the per-worker state, built by calling [state ()] at most once
    per worker per call (lazily, in the worker's own domain — resolver
    spawners are not required to be thread-safe values). Results are in
    input order regardless of scheduling. The first exception raised by
    [f] (or [state]) is re-raised in the caller after the batch drains;
    remaining items are skipped, not half-run.

    Raises [Invalid_argument] on a pool that has been {!shutdown}. *)
val map : pool -> state:(unit -> 'w) -> f:('w -> 'a -> 'b) -> 'a list -> 'b list

(** Join the pool's domains. Idempotent; waits for an in-flight {!map} to
    finish first. The pool is unusable afterwards. *)
val shutdown : pool -> unit

(** [with_pool ?jobs f] — [create], run [f], and {!shutdown} even on
    exceptions. The right scope for one figure/one test; long-lived
    services keep a pool instead. *)
val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
