(** Edge profiler: execution counts of CFG edges and blocks.

    The control speculation module consumes this to find *speculatively
    dead* blocks — blocks never executed during profiling (the paper
    restricts itself to high-confidence speculation, §4.2.4 fn. 1). *)

type t = {
  edges : (int * string, int) Hashtbl.t;
      (** (terminator id, destination label) -> taken count *)
  blocks : (string * string, int) Hashtbl.t;
      (** (function name, block label) -> execution count *)
  funcs : (string, int) Hashtbl.t;  (** function name -> invocation count *)
}

let create () =
  { edges = Hashtbl.create 256; blocks = Hashtbl.create 256; funcs = Hashtbl.create 16 }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let record_edge (t : t) ~(src_term : int) ~(dst : string) =
  bump t.edges (src_term, dst)

let record_block (t : t) ~(func : string) ~(label : string) =
  bump t.blocks (func, label)

let record_call (t : t) ~(func : string) = bump t.funcs func

let edge_count (t : t) ~(src_term : int) ~(dst : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt t.edges (src_term, dst))

let block_count (t : t) ~(func : string) ~(label : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt t.blocks (func, label))

let func_count (t : t) ~(func : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt t.funcs func)

(** A block is speculatively dead if its function ran but the block never
    did. Blocks of never-profiled functions are *not* dead (no evidence). *)
let spec_dead (t : t) ~(func : string) ~(label : string) : bool =
  func_count t ~func > 0 && block_count t ~func ~label = 0
