(** Edge profiler: execution counts of CFG edges and blocks.

    The control speculation module consumes this to find *speculatively
    dead* blocks — blocks never executed during profiling (the paper
    restricts itself to high-confidence speculation, §4.2.4 fn. 1).

    Counts are kept per function, in arrays indexed the way the
    interpreter's hooks name blocks ({!Scaf_interp.Code}): one counter per
    block and one per terminator arm. Queries by name and label resolve
    through those arrays. *)

open Scaf_interp

type fcounts = {
  fn : Code.fn;
  block_n : int array;  (** block index -> execution count *)
  arm_n : int array;  (** [2 * block + arm] -> times the arm was taken *)
  mutable calls : int;
}

type t = {
  by_fid : fcounts Idtbl.t;  (** by function position *)
  by_name : (string, fcounts) Hashtbl.t;
  by_term : (int, fcounts * int) Hashtbl.t;
      (** terminator id -> its function and block *)
}

let create () =
  { by_fid = Idtbl.create (); by_name = Hashtbl.create 16; by_term = Hashtbl.create 64 }

let register (t : t) (fn : Code.fn) : fcounts =
  let nb = Array.length fn.Code.blocks in
  let fc =
    { fn; block_n = Array.make nb 0; arm_n = Array.make (2 * nb) 0; calls = 0 }
  in
  Idtbl.replace t.by_fid fn.Code.fid fc;
  (* a name calls its first definition: only that one ever runs *)
  if not (Hashtbl.mem t.by_name (Code.name fn)) then
    Hashtbl.replace t.by_name (Code.name fn) fc;
  Array.iteri
    (fun b (blk : Scaf_ir.Block.t) ->
      Hashtbl.replace t.by_term blk.Scaf_ir.Block.term.Scaf_ir.Instr.tid (fc, b))
    fn.Code.blocks;
  fc

let counts (t : t) (fn : Code.fn) : fcounts =
  match Idtbl.find_opt t.by_fid fn.Code.fid with
  | Some fc -> fc
  | None -> register t fn

let record_edge (t : t) (fn : Code.fn) ~(src : int) ~(dst : int) =
  let fc = counts t fn in
  let k = (2 * src) + Code.arm fn ~src ~dst in
  fc.arm_n.(k) <- fc.arm_n.(k) + 1

let record_block (t : t) (fn : Code.fn) (b : int) =
  let fc = counts t fn in
  fc.block_n.(b) <- fc.block_n.(b) + 1

let record_call (t : t) (fn : Code.fn) =
  let fc = counts t fn in
  fc.calls <- fc.calls + 1

(* sum [fc.block_n] over the blocks named [label] *)
let sum_labelled (fc : fcounts) (label : string) : int =
  let rec go b acc =
    if b < 0 then acc else go fc.fn.Code.next_same.(b) (acc + fc.block_n.(b))
  in
  match Code.first_block fc.fn label with Some b -> go b 0 | None -> 0

let edge_count (t : t) ~(src_term : int) ~(dst : string) : int =
  match Hashtbl.find_opt t.by_term src_term with
  | None -> 0
  | Some (fc, b) ->
      let arm a =
        let l = fc.fn.Code.succ.((2 * b) + a) in
        if l >= 0 && String.equal fc.fn.Code.labels.(l) dst then
          fc.arm_n.((2 * b) + a)
        else 0
      in
      arm 0 + arm 1

let block_count (t : t) ~(func : string) ~(label : string) : int =
  match Hashtbl.find_opt t.by_name func with
  | None -> 0
  | Some fc -> sum_labelled fc label

let func_count (t : t) ~(func : string) : int =
  match Hashtbl.find_opt t.by_name func with Some fc -> fc.calls | None -> 0

(** A block is speculatively dead if its function ran but the block never
    did. Blocks of never-profiled functions are *not* dead (no evidence). *)
let spec_dead (t : t) ~(func : string) ~(label : string) : bool =
  func_count t ~func > 0 && block_count t ~func ~label = 0

(* every function that ran, by name *)
let iter_funcs (f : fcounts -> unit) (t : t) : unit =
  Hashtbl.iter (fun _ fc -> f fc) t.by_name

(** [iter_edges f t] calls [f src_term dst_label n] once per taken edge. *)
let iter_edges (f : int -> string -> int -> unit) (t : t) : unit =
  iter_funcs
    (fun fc ->
      Array.iteri
        (fun b (blk : Scaf_ir.Block.t) ->
          let tid = blk.Scaf_ir.Block.term.Scaf_ir.Instr.tid in
          let label a =
            let l = fc.fn.Code.succ.((2 * b) + a) in
            if l >= 0 then Some fc.fn.Code.labels.(l) else None
          in
          let n0 = fc.arm_n.(2 * b) and n1 = fc.arm_n.((2 * b) + 1) in
          match (label 0, label 1) with
          | Some l0, Some l1 when String.equal l0 l1 ->
              if n0 + n1 > 0 then f tid l0 (n0 + n1)
          | l0, l1 ->
              (match l0 with Some l when n0 > 0 -> f tid l n0 | _ -> ());
              (match l1 with Some l when n1 > 0 -> f tid l n1 | _ -> ()))
        fc.fn.Code.blocks)
    t

(* the distinct labels of [fc]'s blocks that ran, with their counts *)
let executed_labels (fc : fcounts) : (string * int) list =
  let acc = ref [] in
  Array.iteri
    (fun b (blk : Scaf_ir.Block.t) ->
      let l = blk.Scaf_ir.Block.label in
      (* count each label once, at its first block *)
      match Code.first_block fc.fn l with
      | Some first when first = b -> (
          match sum_labelled fc l with 0 -> () | n -> acc := (l, n) :: !acc)
      | _ -> ())
    fc.fn.Code.blocks;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(** [iter_blocks f t] calls [f func label n] once per executed block. *)
let iter_blocks (f : string -> string -> int -> unit) (t : t) : unit =
  iter_funcs
    (fun fc ->
      List.iter (fun (l, n) -> f (Code.name fc.fn) l n) (executed_labels fc))
    t

(** [iter_calls f t] calls [f func n] once per function that ran. *)
let iter_calls (f : string -> int -> unit) (t : t) : unit =
  iter_funcs (fun fc -> if fc.calls > 0 then f (Code.name fc.fn) fc.calls) t

(** [forget_block t ~func ~label] zeroes the block's count, as if it had
    never run (fault injection). *)
let forget_block (t : t) ~(func : string) ~(label : string) : unit =
  match Hashtbl.find_opt t.by_name func with
  | None -> ()
  | Some fc ->
      let rec go b =
        if b >= 0 then begin
          fc.block_n.(b) <- 0;
          go fc.fn.Code.next_same.(b)
        end
      in
      Option.iter go (Code.first_block fc.fn label)
