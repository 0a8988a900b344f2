(** Pointer-residue profiler (Johnson): for each memory access, the set of
    observed values of the accessed address's four least-significant bits.
    Two accesses whose residue sets are disjoint *with respect to their
    access sizes* cannot overlap. *)

type entry = { mutable residues : int  (** 16-bit set *); mutable count : int }

type t = entry Idtbl.t
(** keyed by memory-access instruction id *)

let create () : t = Idtbl.create ()

let record (t : t) ~(access : int) ~(addr : int64) =
  let r = Int64.to_int (Int64.logand addr 15L) in
  match Idtbl.find_opt t access with
  | None -> Idtbl.replace t access { residues = 1 lsl r; count = 1 }
  | Some e ->
      e.residues <- e.residues lor (1 lsl r);
      e.count <- e.count + 1

(** [residue_set t access] is the observed 16-bit residue set, or [None] if
    the access never executed during profiling. *)
let residue_set (t : t) (access : int) : int option =
  match Idtbl.find_opt t access with
  | Some e when e.count > 0 -> Some e.residues
  | _ -> None

let exec_count (t : t) (access : int) : int =
  match Idtbl.find_opt t access with Some e -> e.count | None -> 0

(** [expand set size] widens a residue set to cover [size] bytes from each
    member (mod 16), i.e. the set of residues the access may *touch*. *)
let expand (set : int) (size : int) : int =
  let out = ref 0 in
  for r = 0 to 15 do
    if set land (1 lsl r) <> 0 then
      for k = 0 to min size 16 - 1 do
        out := !out lor (1 lsl ((r + k) land 15))
      done
  done;
  !out

(** [disjoint s1 size1 s2 size2] - can accesses with these residue sets and
    sizes ever overlap? Sound only when both accesses stay within their
    16-byte phase, which holds for sizes <= 16; larger accesses return
    [false] (not disjoint). *)
let disjoint (s1 : int) (size1 : int) (s2 : int) (size2 : int) : bool =
  if size1 > 16 || size2 > 16 then false
  else expand s1 size1 land expand s2 size2 = 0
