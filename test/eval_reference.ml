(** Reference model of the interpreter: a direct walk of the MIR tree —
    registers in a per-call hash table, blocks found by label on every
    branch, phis split on every block entry. {!Scaf_interp.Eval} compiles
    the module first; it must return the same result, raise the same traps
    and emit the same hook events, with the same arguments, as this walk.

    The hooks here name functions and blocks by record and label, as the
    walk knows them. *)

open Scaf_ir
open Scaf_interp

exception Program_exit = Eval.Program_exit

type result = Eval.result = {
  ret : int64;
  output : int64 list;
  instrs_executed : int;
  cheap_checks : int;
  expensive_checks : int;
  checkpoints : int;
  rollbacks : int;
  recovered_tags : int64 list;
}

module Hooks = struct
  type t = {
    on_block : Func.t -> Block.t -> unit;
    on_edge : src_term:int -> src:string -> dst:string -> func:Func.t -> unit;
    on_load :
      instr:Instr.t ->
      addr:int64 ->
      size:int ->
      value:int64 ->
      obj:Memory.obj ->
      ctx:int list ->
      unit;
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
    on_instr : Instr.t -> unit;
    on_ptr :
      instr:Instr.t -> addr:int64 -> obj:Memory.obj option -> ctx:int list -> unit;
    on_call_enter : Func.t -> ctx:int list -> unit;
    on_call_exit : Func.t -> unit;
  }

  let nop : t =
    {
      on_block = (fun _ _ -> ());
      on_edge = (fun ~src_term:_ ~src:_ ~dst:_ ~func:_ -> ());
      on_load = (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> ());
      on_store = (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> ());
      on_alloc = (fun ~obj:_ -> ());
      on_free = (fun ~obj:_ -> ());
      on_instr = (fun _ -> ());
      on_ptr = (fun ~instr:_ ~addr:_ ~obj:_ ~ctx:_ -> ());
      on_call_enter = (fun _ ~ctx:_ -> ());
      on_call_exit = (fun _ -> ());
    }
end

type state = {
  m : Irmod.t;
  mem : Memory.t;
  rt : Runtime.t;
  hooks : Hooks.t;
  input : int64 array;
  mutable fuel : int;
  mutable output_rev : int64 list;
  mutable executed : int;
  mutable pending_checkpoint : int option;
      (** loop ordinal set by [scaf.checkpoint]; consumed by the next
          control-flow edge, which opens the checkpointed region *)
  globals : (string, int64) Hashtbl.t;
}

let value_of (st : state) (env : (string, int64) Hashtbl.t) (v : Value.t) :
    int64 =
  match v with
  | Value.Int i -> i
  | Value.Null -> 0L
  | Value.Undef -> 0L
  | Value.Global g -> (
      match Hashtbl.find_opt st.globals g with
      | Some a -> a
      | None -> Memory.trap "unknown global @%s" g)
  | Value.Reg r -> (
      match Hashtbl.find_opt env r with
      | Some x -> x
      | None -> Memory.trap "read of unset register %%%s" r)

let apply_binop (op : Instr.binop) (a : int64) (b : int64) : int64 =
  let open Int64 in
  match op with
  | Instr.Add -> add a b
  | Instr.Sub -> sub a b
  | Instr.Mul -> mul a b
  | Instr.Sdiv -> if equal b 0L then Memory.trap "division by zero" else div a b
  | Instr.Srem -> if equal b 0L then Memory.trap "division by zero" else rem a b
  | Instr.And -> logand a b
  | Instr.Or -> logor a b
  | Instr.Xor -> logxor a b
  | Instr.Shl -> shift_left a (to_int (logand b 63L))
  | Instr.Lshr -> shift_right_logical a (to_int (logand b 63L))
  | Instr.Ashr -> shift_right a (to_int (logand b 63L))

let apply_cmp (c : Instr.cmp) (a : int64) (b : int64) : int64 =
  let r =
    match c with
    | Instr.Eq -> Int64.equal a b
    | Instr.Ne -> not (Int64.equal a b)
    | Instr.Slt -> Int64.compare a b < 0
    | Instr.Sle -> Int64.compare a b <= 0
    | Instr.Sgt -> Int64.compare a b > 0
    | Instr.Sge -> Int64.compare a b >= 0
  in
  if r then 1L else 0L

(* Execute an intrinsic (or trap). [ctx] is the calling context including
   the call instruction itself at its head. *)
let intrinsic (st : state) ~(instr : Instr.t) ~(callee : string)
    ~(args : int64 list) ~(ctx : int list) : int64 =
  let arg n =
    match List.nth_opt args n with
    | Some v -> v
    | None -> Memory.trap "@%s: missing argument %d" callee n
  in
  match callee with
  | "malloc" | "calloc" ->
      let size = Int64.to_int (arg 0) in
      let o =
        Memory.alloc st.mem ~size ~kind:(Memory.KHeap instr.Instr.id) ~ctx
      in
      st.hooks.Hooks.on_alloc ~obj:o;
      st.hooks.Hooks.on_ptr ~instr ~addr:o.Memory.base ~obj:(Some o) ~ctx;
      o.Memory.base
  | "free" ->
      let o = Memory.free st.mem (arg 0) in
      Runtime.note_free st.rt o;
      st.hooks.Hooks.on_free ~obj:o;
      0L
  | "memcpy" ->
      Memory.memcpy st.mem ~dst:(arg 0) ~src:(arg 1)
        ~len:(Int64.to_int (arg 2));
      arg 0
  | "memset" ->
      Memory.memset st.mem ~dst:(arg 0) ~byte:(arg 1)
        ~len:(Int64.to_int (arg 2));
      arg 0
  | "print" ->
      st.output_rev <- arg 0 :: st.output_rev;
      0L
  | "input" ->
      let n = Array.length st.input in
      if n = 0 then 0L
      else
        let i = Int64.to_int (Int64.rem (Int64.abs (arg 0)) (Int64.of_int n)) in
        st.input.(i)
  | "exit" -> raise (Program_exit (arg 0))
  | "scaf.misspec" ->
      Runtime.beacon st.rt ~tag:(arg 0);
      0L
  | "scaf.checkpoint" ->
      st.pending_checkpoint <- Some (Int64.to_int (arg 0));
      0L
  | "scaf.commit" ->
      Runtime.commit st.rt ~loop_ord:(Int64.to_int (arg 0));
      0L
  | "scaf.check_residue" ->
      Runtime.check_residue st.rt ~addr:(arg 0) ~allowed:(arg 1) ~tag:(arg 2);
      0L
  | "scaf.check_heap" ->
      Runtime.check_heap st.rt ~addr:(arg 0)
        ~heap_tag:(Int64.to_int (arg 1))
        ~tag:(arg 2);
      0L
  | "scaf.check_not_heap" ->
      Runtime.check_not_heap st.rt ~addr:(arg 0)
        ~heap_tag:(Int64.to_int (arg 1))
        ~tag:(arg 2);
      0L
  | "scaf.ms_forbid" ->
      Runtime.ms_forbid st.rt ~src:(arg 0) ~dst:(arg 1);
      0L
  | "scaf.set_heap" ->
      Runtime.set_heap st.rt ~addr:(arg 0) ~heap_tag:(Int64.to_int (arg 1));
      0L
  | "scaf.check_value" ->
      Runtime.check_value st.rt ~value:(arg 0) ~predicted:(arg 1) ~tag:(arg 2);
      0L
  | "scaf.iter_check" ->
      Runtime.iter_check st.rt ~heap_tag:(Int64.to_int (arg 0)) ~tag:(arg 1);
      0L
  | "scaf.ms_read" ->
      Runtime.ms_read st.rt ~addr:(arg 0) ~size:(Int64.to_int (arg 1))
        ~group:(arg 2) ~tag:(arg 3);
      0L
  | "scaf.ms_write" ->
      Runtime.ms_write st.rt ~addr:(arg 0) ~size:(Int64.to_int (arg 1))
        ~group:(arg 2) ~tag:(arg 3);
      0L
  | _ ->
      (* declared externals without side effects are executable no-ops *)
      if
        Irmod.has_attr st.m callee Func.Readnone
        || Irmod.has_attr st.m callee Func.Readonly
      then 0L
      else Memory.trap "call to undefined function @%s" callee

let rec exec_func (st : state) (f : Func.t) (args : int64 list)
    (ctx : int list) : int64 =
  st.hooks.Hooks.on_call_enter f ~ctx;
  let env : (string, int64) Hashtbl.t = Hashtbl.create 32 in
  (try List.iter2 (fun p a -> Hashtbl.replace env p a) f.Func.params args
   with Invalid_argument _ ->
     Memory.trap "@%s called with %d args, expects %d" f.Func.name
       (List.length args)
       (List.length f.Func.params));
  let frame_objs : Memory.obj list ref = ref [] in
  let finish v =
    List.iter (fun o -> Memory.kill st.mem o) !frame_objs;
    st.hooks.Hooks.on_call_exit f;
    v
  in
  let rec exec_block (b : Block.t) (prev : string option) : int64 =
    st.hooks.Hooks.on_block f b;
    (* Phis evaluate in parallel against the pre-block environment. *)
    let phis, rest =
      let rec split acc = function
        | ({ Instr.kind = Instr.Phi _; _ } as i) :: tl -> split (i :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] b.Block.instrs
    in
    (if phis <> [] then
       let prev =
         match prev with
         | Some p -> p
         | None -> Memory.trap "phi in entry block of @%s" f.Func.name
       in
       let resolved =
         List.map
           (fun (i : Instr.t) ->
             match i.Instr.kind with
             | Instr.Phi incoming -> (
                 match
                   List.find_opt (fun (l, _) -> String.equal l prev) incoming
                 with
                 | Some (_, v) -> (i, value_of st env v)
                 | None ->
                     Memory.trap "phi %d has no arm for predecessor %s"
                       i.Instr.id prev)
             | _ -> assert false)
           phis
       in
       List.iter
         (fun ((i : Instr.t), v) ->
           st.hooks.Hooks.on_instr i;
           st.executed <- st.executed + 1;
           match i.Instr.dst with
           | Some d -> Hashtbl.replace env d v
           | None -> ())
         resolved);
    List.iter (fun i -> step i) rest;
    (* Terminator *)
    st.fuel <- st.fuel - 1;
    st.executed <- st.executed + 1;
    if st.fuel <= 0 then Memory.trap "fuel exhausted";
    let goto l =
      st.hooks.Hooks.on_edge ~src_term:b.Block.term.Instr.tid
        ~src:b.Block.label ~dst:l ~func:f;
      match Func.find_block f l with
      | None -> Memory.trap "branch to unknown block %s" l
      | Some nb -> (
          let continue () = exec_block nb (Some b.Block.label) in
          match st.pending_checkpoint with
          | None -> continue ()
          | Some loop_ord ->
              (* Loop-invocation checkpoint (§4.2.5): on misspeculation
                 inside the region, restore memory/runtime/frame state,
                 squash the offending assertion and replay from this edge.
                 The replayed code is semantically the original (checks are
                 only ever inserted adjacent to existing instructions), so
                 squash-and-replay preserves the original semantics. *)
              st.pending_checkpoint <- None;
              let id = Runtime.checkpoint st.rt ~loop_ord in
              let env_snap = Hashtbl.copy env in
              let objs_snap = !frame_objs in
              let out_snap = st.output_rev in
              let rec attempt () =
                try continue ()
                with Runtime.Misspec { tag } when Runtime.is_active st.rt id ->
                  Runtime.rollback_to st.rt id;
                  Runtime.disable_tag st.rt tag;
                  (* a check that fired between [scaf.checkpoint] and its
                     edge leaves the flag set; drop it or the replay would
                     open a checkpoint at the wrong edge *)
                  st.pending_checkpoint <- None;
                  Hashtbl.reset env;
                  Hashtbl.iter (fun r v -> Hashtbl.replace env r v) env_snap;
                  frame_objs := objs_snap;
                  st.output_rev <- out_snap;
                  attempt ()
              in
              attempt ())
    in
    match b.Block.term.Instr.tkind with
    | Instr.Br l -> goto l
    | Instr.Condbr { cond; if_true; if_false } ->
        if not (Int64.equal (value_of st env cond) 0L) then goto if_true
        else goto if_false
    | Instr.Ret v ->
        finish (match v with Some v -> value_of st env v | None -> 0L)
    | Instr.Unreachable -> Memory.trap "reached 'unreachable' in @%s" f.Func.name
  and step (i : Instr.t) : unit =
    st.hooks.Hooks.on_instr i;
    st.fuel <- st.fuel - 1;
    st.executed <- st.executed + 1;
    if st.fuel <= 0 then Memory.trap "fuel exhausted";
    let set v = match i.Instr.dst with
      | Some d -> Hashtbl.replace env d v
      | None -> ()
    in
    match i.Instr.kind with
    | Instr.Alloca { size } ->
        let o =
          Memory.alloc st.mem ~size ~kind:(Memory.KStack i.Instr.id) ~ctx
        in
        frame_objs := o :: !frame_objs;
        st.hooks.Hooks.on_alloc ~obj:o;
        st.hooks.Hooks.on_ptr ~instr:i ~addr:o.Memory.base ~obj:(Some o) ~ctx;
        set o.Memory.base
    | Instr.Load { ptr; size } ->
        let addr = value_of st env ptr in
        let o = Memory.access st.mem "load" addr size in
        let off = Memory.offset o addr in
        let v = Memory.read o off size in
        st.hooks.Hooks.on_load ~instr:i ~addr ~size ~value:v ~obj:o ~ctx;
        set v
    | Instr.Store { ptr; value; size } ->
        let addr = value_of st env ptr in
        let v = value_of st env value in
        let o = Memory.access st.mem "store" addr size in
        let off = Memory.offset o addr in
        Memory.write st.mem o off size v;
        st.hooks.Hooks.on_store ~instr:i ~addr ~size ~value:v ~obj:o ~ctx
    | Instr.Gep { base; offset } ->
        let a = Int64.add (value_of st env base) (value_of st env offset) in
        st.hooks.Hooks.on_ptr ~instr:i ~addr:a
          ~obj:(Memory.locate_opt st.mem a)
          ~ctx;
        set a
    | Instr.Binop (op, a, b) ->
        set (apply_binop op (value_of st env a) (value_of st env b))
    | Instr.Icmp (c, a, b) ->
        set (apply_cmp c (value_of st env a) (value_of st env b))
    | Instr.Select { cond; if_true; if_false } ->
        set
          (if not (Int64.equal (value_of st env cond) 0L) then
             value_of st env if_true
           else value_of st env if_false)
    | Instr.Call { callee; args } -> (
        let argv = List.map (value_of st env) args in
        match Irmod.find_func st.m callee with
        | Some g -> set (exec_func st g argv (i.Instr.id :: ctx))
        | None -> set (intrinsic st ~instr:i ~callee ~args:argv ~ctx:(i.Instr.id :: ctx)))
    | Instr.Phi _ -> Memory.trap "phi %d not at block start" i.Instr.id
  in
  exec_block (Func.entry f) None

(** [run ?hooks ?fuel ?input ?entry m] executes [m] and returns the result.
    [entry] defaults to ["main"]. *)
let run ?(hooks = Hooks.nop) ?(fuel = 50_000_000) ?(input = [||])
    ?(entry = "main") (m : Irmod.t) : result =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  let st =
    {
      m;
      mem;
      rt;
      hooks;
      input;
      fuel;
      output_rev = [];
      executed = 0;
      pending_checkpoint = None;
      globals = Hashtbl.create 16;
    }
  in
  (* Globals live for the whole run. *)
  List.iter
    (fun (g : Irmod.global) ->
      let o =
        Memory.alloc mem ~size:g.Irmod.gsize ~kind:(Memory.KGlobal g.Irmod.gname)
          ~ctx:[]
      in
      Hashtbl.replace st.globals g.Irmod.gname o.Memory.base;
      List.iter
        (fun (off, v) ->
          let size = if off + 8 <= g.Irmod.gsize then 8 else 1 in
          Memory.store mem (Int64.add o.Memory.base (Int64.of_int off)) size v)
        g.Irmod.ginit)
    m.Irmod.globals;
  let f =
    match Irmod.find_func m entry with
    | Some f -> f
    | None -> Memory.trap "no @%s function" entry
  in
  let args = List.map (fun _ -> 0L) f.Func.params in
  let ret = try exec_func st f args [] with Program_exit v -> v in
  {
    ret;
    output = List.rev st.output_rev;
    instrs_executed = st.executed;
    cheap_checks = st.rt.Runtime.cheap_checks;
    expensive_checks = st.rt.Runtime.expensive_checks;
    checkpoints = st.rt.Runtime.checkpoints_taken;
    rollbacks = st.rt.Runtime.rollbacks;
    recovered_tags = Runtime.disabled_tags st.rt;
  }
