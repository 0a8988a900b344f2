(** Instrumentation hooks for the interpreter.

    Profilers observe execution exclusively through these callbacks; the
    evaluator invokes them with enough context (instruction, resolved
    object, calling context) that no profiler needs to re-implement address
    resolution. Control-flow events name a function by its {!Code.fn} and
    blocks by index into it, so a consumer can count by index. *)

open Scaf_ir

type t = {
  on_block : Code.fn -> int -> unit;
      (** a block begins executing (after the edge hook) *)
  on_edge : Code.fn -> src:int -> dst:int -> unit;
      (** a control-flow edge is taken from block [src] to label [dst]
          (a label index, see {!Code}: it names no block when the branch
          is about to trap) *)
  on_load :
    instr:Instr.t ->
    addr:int64 ->
    size:int ->
    value:int64 ->
    obj:Memory.obj ->
    ctx:int list ->
    unit;
      (** [obj] is the live object holding the loaded bytes *)
  on_store :
    instr:Instr.t ->
    addr:int64 ->
    size:int ->
    value:int64 ->
    obj:Memory.obj ->
    ctx:int list ->
    unit;
  on_alloc : obj:Memory.obj -> unit;
  on_free : obj:Memory.obj -> unit;
  on_instr : Instr.t -> unit;  (** every executed instruction *)
  on_ptr :
    instr:Instr.t -> addr:int64 -> obj:Memory.obj option -> ctx:int list -> unit;
      (** a pointer-producing instruction (gep/alloca/malloc result) *)
  on_call_enter : Code.fn -> ctx:int list -> unit;
      (** a user-function frame is pushed *)
  on_call_exit : Code.fn -> unit;  (** a user-function frame is popped *)
}

let nop : t =
  {
    on_block = (fun _ _ -> ());
    on_edge = (fun _ ~src:_ ~dst:_ -> ());
    on_load = (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> ());
    on_store = (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> ());
    on_alloc = (fun ~obj:_ -> ());
    on_free = (fun ~obj:_ -> ());
    on_instr = (fun _ -> ());
    on_ptr = (fun ~instr:_ ~addr:_ ~obj:_ ~ctx:_ -> ());
    on_call_enter = (fun _ ~ctx:_ -> ());
    on_call_exit = (fun _ -> ());
  }
