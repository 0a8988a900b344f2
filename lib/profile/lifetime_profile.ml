(** Object-lifetime profiler (after Johnson et al.'s speculative
    separation):

    - per (loop, allocation site): read/write behaviour inside the loop,
      giving *read-only* candidates;
    - per (loop, heap allocation site): whether every object allocated in an
      iteration was freed before that iteration ended, giving *short-lived*
      candidates.

    Read-only and short-lived sets are made disjoint here (short-lived wins)
    so their heap-separation validations can never conflict (§4.2.4).

    Sites are interned ({!Site.Intern}): the per-loop tables are keyed by
    site id. *)

module Itbl = Hashtbl.Make (Int)

type rw = { mutable reads : int; mutable writes : int }

type t = {
  sites : Site.Intern.t;
  rw : (string, rw Itbl.t) Hashtbl.t;  (** lid -> site id -> counts *)
  alloc_sites : (string, unit Itbl.t) Hashtbl.t;
      (** lid -> heap sites observed allocating inside the loop *)
  violated : (string, unit Itbl.t) Hashtbl.t;
      (** lid -> short-lived candidates that leaked past an iteration *)
  (* transient state: per active invocation (lid, inv), the objects
     allocated in the current iteration and still live *)
  pending : (string * int, (int, int) Hashtbl.t) Hashtbl.t;
      (** (lid, invocation) -> object id -> site id *)
  live_oids : (int, (string * int) list) Hashtbl.t;
      (** live heap object -> invocations it is pending in *)
  (* the counts every site's accesses bump under the current loop ids:
     valid for a site while [memo_stamp] matches its stamp *)
  mutable memo_lids : string list;
  mutable memo_stamp : int;
  mutable stamps : int array;
  mutable memo : rw list array;
}

let create () : t =
  {
    sites = Site.Intern.create ();
    rw = Hashtbl.create 32;
    alloc_sites = Hashtbl.create 16;
    violated = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    live_oids = Hashtbl.create 64;
    memo_lids = [];
    memo_stamp = 0;
    stamps = [||];
    memo = [||];
  }

(** [intern t site] is [site]'s id in this profile. *)
let intern (t : t) (site : Site.t) : int = Site.Intern.id t.sites site

(** [site t id] is the interned site with id [id]. *)
let site (t : t) (id : int) : Site.t = Site.Intern.site t.sites id

let per_lid (tbl : (string, 'a Itbl.t) Hashtbl.t) (lid : string) : 'a Itbl.t =
  match Hashtbl.find_opt tbl lid with
  | Some s -> s
  | None ->
      let s = Itbl.create 16 in
      Hashtbl.replace tbl lid s;
      s

let rw_entry (t : t) (lid : string) (sid : int) : rw =
  let tbl = per_lid t.rw lid in
  match Itbl.find_opt tbl sid with
  | Some e -> e
  | None ->
      let e = { reads = 0; writes = 0 } in
      Itbl.replace tbl sid e;
      e

let rec bump_reads = function
  | [] -> ()
  | e :: tl ->
      e.reads <- e.reads + 1;
      bump_reads tl

let rec bump_writes = function
  | [] -> ()
  | e :: tl ->
      e.writes <- e.writes + 1;
      bump_writes tl

(** [record_access t ~site ~write ~lids] counts an access to site id
    [site] under every active loop in [lids] (a loop active in two frames
    counts twice). *)
let record_access (t : t) ~(site : int) ~(write : bool) ~(lids : string list) =
  if lids != t.memo_lids then begin
    t.memo_lids <- lids;
    t.memo_stamp <- t.memo_stamp + 1
  end;
  let n = Array.length t.stamps in
  if site >= n then begin
    let size = max (site + 1) (2 * n) in
    let stamps = Array.make size (-1) and memo = Array.make size [] in
    Array.blit t.stamps 0 stamps 0 n;
    Array.blit t.memo 0 memo 0 n;
    t.stamps <- stamps;
    t.memo <- memo
  end;
  let rws =
    if t.stamps.(site) = t.memo_stamp then t.memo.(site)
    else begin
      let rws = List.map (fun lid -> rw_entry t lid site) lids in
      t.stamps.(site) <- t.memo_stamp;
      t.memo.(site) <- rws;
      rws
    end
  in
  if write then bump_writes rws else bump_reads rws

let record_alloc (t : t) ~(oid : int) ~(site : int)
    ~(snap : (string * int * int) list) =
  match (Site.Intern.site t.sites site).Site.skind with
  | Site.SHeap _ ->
      let invs =
        List.map
          (fun (lid, inv, _) ->
            Itbl.replace (per_lid t.alloc_sites lid) site ();
            let key = (lid, inv) in
            let tbl =
              match Hashtbl.find_opt t.pending key with
              | Some tbl -> tbl
              | None ->
                  let tbl = Hashtbl.create 8 in
                  Hashtbl.replace t.pending key tbl;
                  tbl
            in
            Hashtbl.replace tbl oid site;
            key)
          snap
      in
      Hashtbl.replace t.live_oids oid invs
  | _ -> ()

let record_free (t : t) ~(oid : int) =
  match Hashtbl.find_opt t.live_oids oid with
  | Some invs ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.pending key with
          | Some tbl -> Hashtbl.remove tbl oid
          | None -> ())
        invs;
      Hashtbl.remove t.live_oids oid
  | None -> ()

(* At an iteration boundary (next iteration or loop exit), any object still
   pending leaked out of its allocation iteration: its site is not
   short-lived for that loop. *)
let iteration_boundary (t : t) ~(lid : string) ~(invocation : int) =
  (* every pending object is live: none live, none pending *)
  if Hashtbl.length t.live_oids > 0 then
  match Hashtbl.find_opt t.pending (lid, invocation) with
  | Some tbl when Hashtbl.length tbl > 0 ->
      let violated = per_lid t.violated lid in
      Hashtbl.iter (fun _oid site -> Itbl.replace violated site ()) tbl;
      Hashtbl.reset tbl
  | _ -> ()

(** Forget the transient per-run state (interpreter object ids are reused
    between runs). *)
let end_run (t : t) =
  Hashtbl.reset t.pending;
  Hashtbl.reset t.live_oids

let mem_site (tbl : (string, 'a Itbl.t) Hashtbl.t) (t : t) ~lid (site : Site.t)
    : 'a option =
  match (Hashtbl.find_opt tbl lid, Site.Intern.find t.sites site) with
  | Some s, Some sid -> Itbl.find_opt s sid
  | _ -> None

(** [short_lived t ~lid site] - was every profiled object of [site]
    allocated inside [lid] freed before its allocation iteration ended? *)
let short_lived (t : t) ~(lid : string) (site : Site.t) : bool =
  mem_site t.alloc_sites t ~lid site <> None
  && mem_site t.violated t ~lid site = None

(** [read_only t ~lid site] - was [site] accessed in [lid] and never
    written there? Short-lived sites are excluded to keep the two
    speculative heaps disjoint. *)
let read_only (t : t) ~(lid : string) (site : Site.t) : bool =
  (match mem_site t.rw t ~lid site with
  | Some e -> e.reads > 0 && e.writes = 0
  | None -> false)
  && not (short_lived t ~lid site)

(** All sites touched by the loop during profiling. *)
let sites_of_loop (t : t) ~(lid : string) : Site.t list =
  match Hashtbl.find_opt t.rw lid with
  | Some tbl ->
      Itbl.fold (fun sid _ acc -> site t sid :: acc) tbl []
      |> List.sort_uniq Site.compare
  | None -> []

let iter_per_lid (tbl : (string, 'a Itbl.t) Hashtbl.t) (t : t)
    (f : string -> Site.t -> 'a -> unit) : unit =
  Hashtbl.iter
    (fun lid s -> Itbl.iter (fun sid v -> f lid (site t sid) v) s)
    tbl

(** [iter_rw f t] calls [f lid site counts] on every (loop, site) pair. *)
let iter_rw f t = iter_per_lid t.rw t f

(** [iter_alloc_sites f t] calls [f lid site] on every heap site observed
    allocating inside loop [lid]. *)
let iter_alloc_sites f t = iter_per_lid t.alloc_sites t (fun l s () -> f l s)

(** [iter_violated f t] calls [f lid site] on every site some object of
    which leaked past its allocation iteration of [lid]. *)
let iter_violated f t = iter_per_lid t.violated t (fun l s () -> f l s)
