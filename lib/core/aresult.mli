(** Analysis results and their precision lattice (paper Figure 3).

    Alias results include [SubAlias], SCAF's addition over LLVM/CAF: one
    memory location is fully contained within the other — stronger than
    LLVM's [PartialAlias] (mere overlap). *)

type alias_res = NoAlias | MustAlias | SubAlias | MayAlias
type modref_res = NoModRef | Mod | Ref | ModRef

type t = RAlias of alias_res | RModref of modref_res

val pr_alias : alias_res -> int
val pr_modref : modref_res -> int

(** Precision of a result (Algorithm 2's [pr]):
    [pr NoAlias = pr MustAlias > pr SubAlias > pr MayAlias] and
    [pr NoModRef > pr Mod = pr Ref > pr ModRef]. Only comparable within one
    query type. *)
val pr : t -> int

(** Fully conservative results. *)
val bottom_alias : t

val bottom_modref : t
val is_bottom : t -> bool

(** Is this the most precise possible answer for its query type? *)
val is_definite : t -> bool

val alias_name : alias_res -> string
val modref_name : modref_res -> string

(** The answer's name, as {!pp} prints it (a constant: no allocation). *)
val name : t -> string

val pp : t Fmt.t
val equal : t -> t -> bool
