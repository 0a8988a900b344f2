(** Profile perturbation: mutate gathered profiles (in place) so the
    speculation modules confidently claim facts the program then violates,
    forcing real misspeculations through the full
    plan -> instrument -> run -> recover path.

    Each kind targets one profile the speculation modules consume:

    - [Flip_branch] — erase an executed block's count, so control
      speculation sees it as speculatively dead and plants a beacon on a
      path that runs;
    - [Shift_value] — nudge a stable load's predicted value, so the value
      check compares against a value the load never produces;
    - [Poison_residue] — complement an access's residue set, so the
      residue check rejects the addresses the access actually touches. *)

open Scaf_profile

type kind = Flip_branch | Shift_value | Poison_residue

let all_kinds = [ Flip_branch; Shift_value; Poison_residue ]

let kind_name = function
  | Flip_branch -> "flip-branch"
  | Shift_value -> "shift-value"
  | Poison_residue -> "poison-residue"

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(** [apply ~seed kind profiles] mutates one seeded-random profile entry;
    returns a description of the mutation, or [None] when the profile has
    no suitable entry. *)
let apply ~(seed : int) (k : kind) (p : Profiles.t) : string option =
  let rng = Random.State.make [| seed; Hashtbl.hash (kind_name k) |] in
  match k with
  | Flip_branch -> (
      let edges = p.Profiles.edges in
      let blocks = ref [] in
      Edge_profile.iter_blocks (fun f l _ -> blocks := (f, l) :: !blocks) edges;
      (* sorted: the candidate order must not depend on hash-table order *)
      match pick rng (List.sort compare !blocks) with
      | Some (f, l) ->
          Edge_profile.forget_block edges ~func:f ~label:l;
          Some (Printf.sprintf "flip-branch: block %s:%s now appears dead" f l)
      | None -> None)
  | Shift_value -> (
      let tbl = p.Profiles.values in
      let stable =
        List.filter
          (fun id -> Value_profile.predictable tbl id <> None)
          (Idtbl.keys tbl)
      in
      match pick rng stable with
      | Some id ->
          let e = Idtbl.find tbl id in
          e.Value_profile.first <- Int64.add e.Value_profile.first 1L;
          Some
            (Printf.sprintf "shift-value: load %d now predicts %Ld" id
               e.Value_profile.first)
      | None -> None)
  | Poison_residue -> (
      let tbl = p.Profiles.residues in
      match pick rng (Idtbl.keys tbl) with
      | Some id ->
          let e = Idtbl.find tbl id in
          e.Residue_profile.residues <-
            lnot e.Residue_profile.residues land 0xffff;
          Some
            (Printf.sprintf "poison-residue: access %d now allows %#x" id
               e.Residue_profile.residues)
      | None -> None)
