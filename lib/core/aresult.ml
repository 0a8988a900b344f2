(** Analysis results and their precision lattice (Figure 3 of the paper).

    Alias results include [SubAlias], SCAF's addition over LLVM/CAF: the
    first memory location is fully contained within the second (or vice
    versa — containment direction is recorded), which is stronger than
    LLVM's [PartialAlias] (mere overlap).

    Precision order (Algorithm 2):
    [pr NoAlias = pr MustAlias > pr SubAlias > pr MayAlias] and
    [pr NoModRef > pr Mod = pr Ref > pr ModRef]. *)

type alias_res = NoAlias | MustAlias | SubAlias | MayAlias
type modref_res = NoModRef | Mod | Ref | ModRef

type t = RAlias of alias_res | RModref of modref_res

let pr_alias = function
  | NoAlias | MustAlias -> 3
  | SubAlias -> 2
  | MayAlias -> 1

let pr_modref = function NoModRef -> 3 | Mod | Ref -> 2 | ModRef -> 1

(** Precision of a result; comparable only within the same query type. *)
let pr = function RAlias a -> pr_alias a | RModref m -> pr_modref m

(** Bottom (fully conservative) results. *)
let bottom_alias = RAlias MayAlias
let bottom_modref = RModref ModRef

let is_bottom = function
  | RAlias MayAlias | RModref ModRef -> true
  | _ -> false

(** Is this the most precise possible answer for its query type? *)
let is_definite (t : t) = pr t = 3

let alias_name = function
  | NoAlias -> "NoAlias"
  | MustAlias -> "MustAlias"
  | SubAlias -> "SubAlias"
  | MayAlias -> "MayAlias"

let modref_name = function
  | NoModRef -> "NoModRef"
  | Mod -> "Mod"
  | Ref -> "Ref"
  | ModRef -> "ModRef"

let name = function RAlias a -> alias_name a | RModref m -> modref_name m
let pp ppf r = Fmt.string ppf (name r)

let equal (a : t) (b : t) = a = b
