(** Points-to profiler: for every memory access (and pointer-producing
    instruction), the set of underlying objects (allocation sites) it was
    observed referring to, together with the within-object offset range.

    This is the profile behind the points-to speculation module, which in
    turn is what the read-only and short-lived modules premise-query.

    Tables are keyed by instruction id; the context-sensitive entries of an
    instruction hang off it, keyed by an interned context id. Sites arrive
    interned, so an observation that repeats its entry's last site is
    recognized physically and skips the site-set work. *)

type entry = {
  mutable sites : Site.Set.t;
  mutable min_off : int;
  mutable max_off : int;  (** inclusive of last byte touched *)
  mutable const_off : int option;
      (** [Some o] while every observation had offset [o] into a single
          static site *)
  mutable count : int;
}

(* an entry and its last observation *)
type cell = {
  entry : entry;
  mutable last_site : Site.t;
  mutable last_off : int;
  mutable last_size : int;
}

type ctx_cell = { cid : int; cctx : int list  (** trimmed *); cc : cell }

type per_instr = {
  whole : cell;
  mutable by_ctx : ctx_cell list;  (** one per observed context *)
}

type t = {
  by_instr : per_instr Idtbl.t;
  contexts : (int list, int) Hashtbl.t;  (** trimmed context -> id *)
  mutable last_ctx : int list;
  mutable last_cid : int;  (** [last_ctx]'s id: contexts repeat physically *)
}

let create () : t =
  {
    by_instr = Idtbl.create ();
    contexts = Hashtbl.create 64;
    last_ctx = [];
    last_cid = -1;
  }

let fresh_cell site off size =
  {
    entry =
      {
        sites = Site.Set.singleton site;
        min_off = off;
        max_off = off + size - 1;
        const_off = Some off;
        count = 1;
      };
    last_site = site;
    last_off = off;
    last_size = size;
  }

let update_entry (e : entry) (site : Site.t) (off : int) (size : int) =
  let single_static =
    Site.Set.for_all (fun s -> Site.same_static s site) e.sites
  in
  e.sites <- Site.Set.add site e.sites;
  e.min_off <- min e.min_off off;
  e.max_off <- max e.max_off (off + size - 1);
  (match e.const_off with
  | Some o when o = off && single_static -> ()
  | _ -> e.const_off <- None);
  (* re-check: const_off survives only if this observation matches *)
  (match e.const_off with
  | Some o when o <> off -> e.const_off <- None
  | _ -> ());
  e.count <- e.count + 1

(* Against the cell's last observation (same interned site and size), an
   offset seen last time changes nothing but the count, and a new one only
   widens the range and ends the constant offset. *)
let update (c : cell) (site : Site.t) (off : int) (size : int) =
  let e = c.entry in
  if c.last_site == site && c.last_size = size then begin
    if c.last_off <> off then begin
      e.min_off <- min e.min_off off;
      e.max_off <- max e.max_off (off + size - 1);
      e.const_off <- None;
      c.last_off <- off
    end;
    e.count <- e.count + 1
  end
  else begin
    update_entry e site off size;
    c.last_site <- site;
    c.last_off <- off;
    c.last_size <- size
  end

let context_id (t : t) (ctx : int list) : int =
  if ctx == t.last_ctx && t.last_cid >= 0 then t.last_cid
  else begin
    let trimmed = Site.trim_ctx ctx in
    let cid =
      match Hashtbl.find_opt t.contexts trimmed with
      | Some cid -> cid
      | None ->
          let cid = Hashtbl.length t.contexts in
          Hashtbl.replace t.contexts trimmed cid;
          cid
    in
    t.last_ctx <- ctx;
    t.last_cid <- cid;
    cid
  end

let rec find_ctx cid = function
  | [] -> None
  | c :: tl -> if c.cid = cid then Some c else find_ctx cid tl

(** [record t ~instr ~site ~off ~size ~ctx]: [instr] touched [size] bytes
    at offset [off] of an object of [site] (interned, so repeats are
    recognized physically) in calling context [ctx]. *)
let record (t : t) ~(instr : int) ~(site : Site.t) ~(off : int) ~(size : int)
    ~(ctx : int list) =
  let cid = context_id t ctx in
  match Idtbl.find_opt t.by_instr instr with
  | None ->
      Idtbl.replace t.by_instr instr
        {
          whole = fresh_cell site off size;
          by_ctx = [ { cid; cctx = Site.trim_ctx ctx; cc = fresh_cell site off size } ];
        }
  | Some p -> (
      update p.whole site off size;
      match find_ctx cid p.by_ctx with
      | Some c -> update c.cc site off size
      | None ->
          p.by_ctx <-
            { cid; cctx = Site.trim_ctx ctx; cc = fresh_cell site off size }
            :: p.by_ctx)

(** [observed t ?ctx instr] is the profile entry for [instr]; when [ctx] is
    given, the context-sensitive entry is preferred. [None] means the
    instruction never executed while profiling. *)
let observed (t : t) ?(ctx : int list option) (instr : int) : entry option =
  match Idtbl.find_opt t.by_instr instr with
  | None -> None
  | Some p -> (
      let whole = Some p.whole.entry in
      match ctx with
      | None -> whole
      | Some c -> (
          match Hashtbl.find_opt t.contexts (Site.trim_ctx c) with
          | None -> whole
          | Some cid -> (
              match find_ctx cid p.by_ctx with
              | Some c -> Some c.cc.entry
              | None -> whole)))

(** [iter f t] calls [f instr entry] on every context-insensitive entry. *)
let iter (f : int -> entry -> unit) (t : t) : unit =
  Idtbl.iter (fun id p -> f id p.whole.entry) t.by_instr

(** [iter_ctx f t] calls [f instr ctx entry] on every context-sensitive
    entry, [ctx] trimmed. *)
let iter_ctx (f : int -> int list -> entry -> unit) (t : t) : unit =
  Idtbl.iter
    (fun id p -> List.iter (fun c -> f id c.cctx c.cc.entry) p.by_ctx)
    t.by_instr

(** Underlying-object sets are speculatively disjoint when the profiled
    site sets do not intersect. Without [ctx_sensitive], two dynamic
    instances of one static site are conservatively treated as the same
    object; with it (the query supplied a calling context, §3.2.2), the
    full (site, context) identity is compared. *)
let disjoint_sites ?(ctx_sensitive = false) (a : entry) (b : entry) : bool =
  Site.Set.is_empty (Site.Set.inter a.sites b.sites)
  && (ctx_sensitive
     || Site.Set.for_all
          (fun sa ->
            Site.Set.for_all (fun sb -> not (Site.same_static sa sb)) b.sites)
          a.sites)
