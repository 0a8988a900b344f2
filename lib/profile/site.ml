(** Allocation sites: the identity of memory objects as speculation modules
    see them. A site is the static allocation point plus a bounded calling
    context (§3.2.2's calling-context parameter exists precisely to let
    modules distinguish dynamic instances created by one static site). *)

type skind =
  | SGlobal of string
  | SStack of int  (** alloca instruction id *)
  | SHeap of int  (** malloc/calloc call instruction id *)

type t = { skind : skind; sctx : int list  (** trimmed calling context *) }

(** Contexts are trimmed to this depth before being stored or compared. *)
let ctx_depth = 2

let trim_ctx (ctx : int list) : int list =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take ctx_depth ctx

let of_obj (o : Scaf_interp.Memory.obj) : t =
  let skind =
    match o.Scaf_interp.Memory.kind with
    | Scaf_interp.Memory.KGlobal g -> SGlobal g
    | Scaf_interp.Memory.KStack i -> SStack i
    | Scaf_interp.Memory.KHeap i -> SHeap i
  in
  { skind; sctx = trim_ctx o.Scaf_interp.Memory.ctx }

let compare = Stdlib.compare
let equal a b = compare a b = 0

(** [same_static a b] ignores context: same static allocation point? *)
let same_static a b = a.skind = b.skind

let pp ppf (s : t) =
  (match s.skind with
  | SGlobal g -> Fmt.pf ppf "@%s" g
  | SStack i -> Fmt.pf ppf "stack#%d" i
  | SHeap i -> Fmt.pf ppf "heap#%d" i);
  match s.sctx with
  | [] -> ()
  | ctx -> Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.comma Fmt.int) ctx

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(** Interned sites: one physical {!t} and one dense id per distinct site,
    so per-site tables can be keyed by int. *)
module Intern = struct
  type site = t

  type t = {
    ids : (site, int) Hashtbl.t;
    mutable sites : site array;  (** id -> the interned site *)
  }

  let create () : t = { ids = Hashtbl.create 64; sites = [||] }

  (** [id t s] is [s]'s id, interning it first if it is new. *)
  let id (t : t) (s : site) : int =
    match Hashtbl.find_opt t.ids s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.ids in
        Hashtbl.replace t.ids s i;
        if i >= Array.length t.sites then begin
          let a = Array.make (max 16 (2 * i)) s in
          Array.blit t.sites 0 a 0 i;
          t.sites <- a
        end;
        t.sites.(i) <- s;
        i

  (** [find t s] is [s]'s id if [s] was ever interned. *)
  let find (t : t) (s : site) : int option = Hashtbl.find_opt t.ids s

  (** [site t i] is the interned site with id [i]. *)
  let site (t : t) (i : int) : site = t.sites.(i)
end
