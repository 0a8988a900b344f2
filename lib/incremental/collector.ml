(** The invalidation-graph collector: a {!Scaf.Depsink.t} implementation
    that turns the orchestrator's dependency events into a provenance graph
    of *what each memoized answer read*.

    The orchestrator emits strictly nested events (each orchestrator is
    single-threaded): [Enter] when a query misses the memo table and the
    consult sweep starts, [Consult] per module evaluated, [Hit] when a
    (premise) query is served from the memo table, and [Exit] when the
    sweep finishes, flagged with whether the answer was memoized. The
    collector mirrors this nesting with a frame stack:

    - a memoized [Exit] publishes the frame as a graph {!node} keyed by the
      canonical query print (the same identity, modulo epoch, that
      {!Scaf.Qcache} keys on) and records it as a premise of its parent;
    - a non-memoized [Exit] (deep premise, uncacheable query, expired
      deadline) *folds* its consults and premise edges into the parent
      frame — whatever the unmemoized sub-derivation read, its memoized
      ancestor read too;
    - a [Hit] records a premise edge from the current frame to the cached
      entry's node.

    The resulting graph is exactly what the invalidation pass needs: per
    cached answer, the functions its query footprint touches, the modules
    that contributed (whose {!Scaf.Module_api.caps} bound how far they
    read), and the memoized premises it depends on.

    Structure mirrors the cache-sharing one: orchestrators sharing one
    {!Scaf.Qcache.t} (one per worker thread in the daemon) each own a
    per-thread {!t} frontend — frame nesting is per-orchestrator — and all
    frontends publish into one shared {!graph}, whose node table is
    mutex-guarded. *)

open Scaf

type node = {
  nfuncs : string list;  (** functions the query footprint touches *)
  nmodules : string list;  (** modules consulted while deriving the answer *)
  npremises : string list;  (** keys of memoized premises it depends on *)
}

type graph = {
  nodes : (string, node) Hashtbl.t;
  lock : Mutex.t;
  mutable funcs_of : Query.t -> string list;
      (** query -> footprint functions; rebound after each edit (the
          mapping reads the current program's instruction index) *)
}

type frame = {
  fq : Query.t;
  mutable fmodules : string list;  (* reversed accumulation *)
  mutable fpremises : string list;
}

type t = { graph : graph; mutable stack : frame list }
(* one frontend per orchestrator: nesting state is thread-private *)

(** The graph identity of a query: its canonical print. [Query.pp] never
    prints the epoch and {!Scaf.Query.canonical} fixes mirror orientation,
    so the key survives epoch restamps and mirrored lookups — the same
    invariances {!Scaf.Qcache} keys have. *)
let key_of_query (q : Query.t) : string =
  Fmt.str "%a" Query.pp (Query.canonical q)

let create_graph ~(funcs_of : Query.t -> string list) : graph =
  { nodes = Hashtbl.create 1024; lock = Mutex.create (); funcs_of }

let frontend (graph : graph) : t = { graph; stack = [] }

(** One-shot convenience for single-threaded owners (the incremental
    session): a fresh graph with its only frontend. *)
let create ~(funcs_of : Query.t -> string list) : t =
  frontend (create_graph ~funcs_of)

let set_funcs_of (g : graph) (f : Query.t -> string list) : unit =
  g.funcs_of <- f

let node_of (g : graph) (key : string) : node option =
  Mutex.lock g.lock;
  let n = Hashtbl.find_opt g.nodes key in
  Mutex.unlock g.lock;
  n

let size (g : graph) : int = Hashtbl.length g.nodes

let uniq l = List.sort_uniq compare l

let record_premise (t : t) (key : string) : unit =
  match t.stack with
  | top :: _ -> top.fpremises <- key :: top.fpremises
  | [] -> ()

(* A hit is a premise edge of the enclosing frame. A client-level hit
   (depth 0) has no frame, so its key is never rendered: the warm path
   stays allocation-free. *)
let record_hit (t : t) (q : Query.t) : unit =
  match t.stack with
  | top :: _ -> top.fpremises <- key_of_query q :: top.fpremises
  | [] -> ()

let on_event (t : t) (ev : Depsink.event) : unit =
  match ev with
  | Depsink.Enter { q; _ } ->
      t.stack <- { fq = q; fmodules = []; fpremises = [] } :: t.stack
  | Depsink.Consult { name } -> (
      match t.stack with
      | top :: _ -> top.fmodules <- name :: top.fmodules
      | [] -> ())
  | Depsink.Hit { q; _ } -> record_hit t q
  | Depsink.Exit { q; memoized } -> (
      match t.stack with
      | [] -> ()
      | top :: rest ->
          t.stack <- rest;
          if memoized then begin
            let key = key_of_query q in
            let n =
              {
                nfuncs = uniq (t.graph.funcs_of q);
                nmodules = uniq top.fmodules;
                npremises = uniq top.fpremises;
              }
            in
            Mutex.lock t.graph.lock;
            Hashtbl.replace t.graph.nodes key n;
            Mutex.unlock t.graph.lock;
            record_premise t key
          end
          else begin
            (* fold the unmemoized derivation into its parent: the parent's
               cached answer depends on everything read down here *)
            match t.stack with
            | parent :: _ ->
                parent.fmodules <- top.fmodules @ parent.fmodules;
                parent.fpremises <- top.fpremises @ parent.fpremises
            | [] -> ()
          end)

let sink (t : t) : Depsink.t = { Depsink.emit = (fun ev -> on_event t ev) }

(** The footprint-function mapping for queries against [ctx]: the
    functions named by the query's memory locations, instruction
    occurrences and loop scope. Unresolvable ids (e.g. ids deleted by a
    later edit) contribute nothing — the invalidation pass treats such
    nodes through their remaining funcs, and the cache entry itself is
    keyed on a query whose ids can no longer be issued. *)
let funcs_of_ctx (ctx : Scaf_cfg.Progctx.t) (q : Query.t) : string list =
  let func_of_instr id =
    match Scaf_cfg.Progctx.occ ctx id with
    | Some o -> [ o.Scaf_ir.Irmod.Index.func.Scaf_ir.Func.name ]
    | None -> []
  in
  let func_of_lid lid =
    match String.index_opt lid ':' with
    | Some i -> [ String.sub lid 0 i ]
    | None -> []
  in
  match q with
  | Query.Alias a ->
      [ a.Query.a1.Query.fname; a.Query.a2.Query.fname ]
      @ (match a.Query.aloop with Some l -> func_of_lid l | None -> [])
  | Query.Modref m ->
      func_of_instr m.Query.minstr
      @ (match m.Query.mtarget with
        | Query.TInstr i -> func_of_instr i
        | Query.TLoc loc -> [ loc.Query.fname ])
      @ (match m.Query.mloop with Some l -> func_of_lid l | None -> [])
