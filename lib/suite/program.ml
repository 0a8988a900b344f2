(** A mutable handle on one suite program — the unit of work of the
    incremental re-analysis engine.

    A handle owns the current state of a benchmark program: its stable
    identity, the verified module, the pretty-printed source, the training
    and reference inputs, and the *program epoch* — a counter bumped by
    every committed edit. Analysis state keyed on (query, epoch) — the
    {!Scaf.Qcache} memo table in particular — survives edits exactly as far
    as the invalidation pass allows; the epoch makes stale entries
    unreachable by construction.

    Handles are deliberately cheap to {!fork}: the registry hands out a
    fresh handle per lookup, and the analysis service forks one per loaded
    benchmark, so edits in one client never bleed into another. *)

open Scaf_ir

type t = {
  id : string;  (** the SPEC benchmark this stands in for (stable) *)
  descr : string;  (** which dependence idioms its hot loops exercise *)
  train_inputs : int64 array list;
  ref_input : int64 array;
  mutable epoch : int;  (** bumped by every committed edit *)
  mutable m : Irmod.t;  (** current program; always fully verified *)
  mutable source : string;  (** pretty-printed text of [m] *)
  mutable ctx_memo : (int * Scaf_cfg.Progctx.t) option;
  mutable profiles_memo : (int * Scaf_profile.Profiles.t) option;
}

(* All rare-path gates read index 0; training input keeps them closed. *)
let default_train = [ [| 0L |] ]
let default_ref = [| 1L |]

(** [make ~id ~descr source] parses and lints [source] at construction —
    the full [Scaf_lint.Pass.default] suite, which subsumes structural
    verification and the dominance-based SSA check — so an ill-formed
    program blows up when the registry is built, not when a client first
    asks for it. Lint *errors* are fatal; warnings are allowed. The
    handle starts at epoch 0 with the lint run's analysis context
    already memoized. *)
let make ~(id : string) ~(descr : string) ?(train_inputs = default_train)
    ?(ref_input = default_ref) (source : string) : t =
  let m = Parser.parse_exn_msg source in
  let report = Scaf_lint.Pass.run m in
  (match Scaf_lint.Pass.errors report with
  | [] -> ()
  | errs ->
      invalid_arg
        (Fmt.str "ill-formed MIR module:@.%a"
           (Fmt.list ~sep:Fmt.cut Scaf_lint.Diagnostic.pp)
           errs));
  {
    id;
    descr;
    train_inputs;
    ref_input;
    epoch = 0;
    m;
    source;
    ctx_memo = Option.map (fun c -> (0, c)) report.Scaf_lint.Pass.ctx;
    profiles_memo = None;
  }

let id (t : t) = t.id
let descr (t : t) = t.descr
let epoch (t : t) = t.epoch
let source (t : t) = t.source
let train_inputs (t : t) = t.train_inputs
let ref_input (t : t) = t.ref_input

(** The current program. Already fully verified — callers need not (and
    should not) re-check it. *)
let program (t : t) : Irmod.t = t.m

(** The analysis context of the current program, built on demand and
    memoized until the next committed edit. *)
let ctx (t : t) : Scaf_cfg.Progctx.t =
  match t.ctx_memo with
  | Some (e, c) when e = t.epoch -> c
  | _ ->
      let c = Scaf_cfg.Progctx.build t.m in
      t.ctx_memo <- Some (t.epoch, c);
      c

(** Profiles of the current program on its training inputs, memoized until
    the next committed edit (so repeated orchestrator rebuilds within one
    epoch profile once). *)
let profiles (t : t) : Scaf_profile.Profiles.t =
  match t.profiles_memo with
  | Some (e, p) when e = t.epoch -> p
  | _ ->
      let p = Scaf_profile.Profiler.profile ~inputs:t.train_inputs (ctx t) in
      t.profiles_memo <- Some (t.epoch, p);
      p

(** An independent handle on the same program state: same epoch, same
    module, but subsequent edits to either handle leave the other
    untouched. Memoized analysis artefacts are shared (they are immutable
    once built for an epoch). *)
let fork (t : t) : t =
  {
    id = t.id;
    descr = t.descr;
    train_inputs = t.train_inputs;
    ref_input = t.ref_input;
    epoch = t.epoch;
    m = t.m;
    source = t.source;
    ctx_memo = t.ctx_memo;
    profiles_memo = t.profiles_memo;
  }

(** [commit t m'] — replace the program with [m'] and bump the epoch,
    provided [m'] lints without errors; on failure the handle is left
    exactly as it was (the edit engine's rollback) and the lint errors
    are returned as structured diagnostics. Returns the new epoch.
    [?touched] restricts the function-local lint passes to the named
    functions (the Edit API passes the functions its script touched);
    module-wide checks always run. The lint run's analysis context is
    memoized for the new epoch, so committing never double-builds a
    [Progctx]. This is the only way a handle's program ever changes, so
    the invariant "[program t] is lint-clean and [epoch t] identifies
    it" holds globally. *)
let commit ?touched (t : t) (m' : Irmod.t) :
    (int, Scaf_lint.Diagnostic.t list) result =
  let report = Scaf_lint.Pass.run ?funcs:touched m' in
  match Scaf_lint.Pass.errors report with
  | [] ->
      t.m <- m';
      t.source <- Irmod.to_string m';
      t.epoch <- t.epoch + 1;
      t.ctx_memo <-
        Option.map (fun c -> (t.epoch, c)) report.Scaf_lint.Pass.ctx;
      t.profiles_memo <- None;
      Ok t.epoch
  | errs -> Error errs

(** Lint the current program with the full default pass suite (no
    function restriction). The program is already known error-free; this
    is for surfacing warnings and cost estimates. *)
let lint ?metrics (t : t) : Scaf_lint.Pass.report =
  Scaf_lint.Pass.run ?metrics t.m
