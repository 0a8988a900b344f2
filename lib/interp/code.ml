(** A function as the interpreter runs it: its blocks by index and its
    branch targets resolved to label indices, built once per run.
    {!Hooks} hand this record and block indices to their consumers, which
    can then count by index instead of hashing names and labels.

    Block [b] is [blocks.(b)], the [b]-th block of the function (entry
    first — the same numbering as {!Scaf_cfg.Cfg}). [labels] names every
    block and then every label a terminator branches to that names no
    block; those unknown labels get the indices from [Array.length blocks]
    on, so a branch to one can still be reported before it traps. *)

open Scaf_ir

type fn = {
  fid : int;  (** position of [func] in its module's function list *)
  func : Func.t;
  blocks : Block.t array;
  labels : string array;
  succ : int array;
      (** [succ.(2 * b)] and [succ.(2 * b + 1)]: the label indices block
          [b]'s terminator branches to (true arm first), [-1] if none *)
  index : (string, int) Hashtbl.t;  (** label -> its index in [labels] *)
  next_same : int array;
      (** [next_same.(b)]: the next block after [b] with [b]'s label, [-1]
          if none *)
}

let name (fn : fn) : string = fn.func.Func.name

(** [first_block fn label] is the first block named [label], if any; the
    other blocks of that name follow it through [next_same]. *)
let first_block (fn : fn) (label : string) : int option =
  match Hashtbl.find_opt fn.index label with
  | Some b when b < Array.length fn.blocks -> Some b
  | _ -> None

(** [arm fn ~src ~dst] is 0 when the edge [src -> dst] is its terminator's
    first target, 1 otherwise. *)
let arm (fn : fn) ~(src : int) ~(dst : int) : int =
  if fn.succ.(2 * src) = dst then 0 else 1

(** [make ~fid func] resolves [func]'s branch targets. A label names its
    first block, as {!Func.find_block} resolves it. *)
let make ~(fid : int) (func : Func.t) : fn =
  let blocks = Array.of_list func.Func.blocks in
  let nb = Array.length blocks in
  let index = Hashtbl.create ((2 * nb) + 1) in
  (* [tail.(first)]: the last block seen so far named like block [first] *)
  let next_same = Array.make nb (-1) and tail = Array.make nb (-1) in
  Array.iteri
    (fun i (b : Block.t) ->
      match Hashtbl.find_opt index b.Block.label with
      | None ->
          Hashtbl.replace index b.Block.label i;
          tail.(i) <- i
      | Some first ->
          next_same.(tail.(first)) <- i;
          tail.(first) <- i)
    blocks;
  let unknown = ref [] and next = ref nb in
  let target l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
        let i = !next in
        Hashtbl.replace index l i;
        unknown := l :: !unknown;
        incr next;
        i
  in
  let succ = Array.make (2 * nb) (-1) in
  Array.iteri
    (fun i (b : Block.t) ->
      match b.Block.term.Instr.tkind with
      | Instr.Br l -> succ.(2 * i) <- target l
      | Instr.Condbr { if_true; if_false; _ } ->
          succ.(2 * i) <- target if_true;
          succ.((2 * i) + 1) <- target if_false
      | Instr.Ret _ | Instr.Unreachable -> ())
    blocks;
  let block_labels = Array.map (fun (b : Block.t) -> b.Block.label) blocks in
  {
    fid;
    func;
    blocks;
    labels = Array.append block_labels (Array.of_list (List.rev !unknown));
    succ;
    index;
    next_same;
  }
