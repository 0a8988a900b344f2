(** The MIR interpreter.

    Executes [@main] of a module with a per-run {!Memory.t}, an optional
    input vector (read by the [@input] intrinsic — how "train" and "ref"
    workloads differ), instrumentation {!Hooks.t}, and a fuel bound. Raises
    {!Runtime.Misspec} when an inserted validation check fails, and
    {!Memory.Trap} on genuine memory errors.

    Each run first compiles the module into a resolved form: a function's
    SSA registers become slots of a per-call array, blocks and branch
    targets become indices ({!Code}), each edge carries the arms its
    destination's phis read, and callees and globals are looked up once.
    Nothing is checked ahead of time: an unknown label, global or callee,
    an unset register or a phi without an arm traps only when executed,
    with the same message as a walk of the source would give. *)

open Scaf_ir

exception Program_exit of int64

type result = {
  ret : int64;
  output : int64 list;  (** values passed to [@print], in order *)
  instrs_executed : int;
  cheap_checks : int;
  expensive_checks : int;
  checkpoints : int;  (** loop-invocation checkpoints taken *)
  rollbacks : int;
      (** misspeculations recovered in place by checkpoint rollback *)
  recovered_tags : int64 list;
      (** assertion tags squashed during rollback recovery *)
}

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

type operand =
  | Const of int64  (** integers, [null], [undef] and resolved globals *)
  | Slot of int  (** a register of the current frame *)
  | Unknown_global of string

type intrinsic =
  | Malloc
  | Free
  | Memcpy
  | Memset
  | Print
  | Input
  | Exit
  | Misspec
  | Checkpoint
  | Commit
  | Check_residue
  | Check_heap
  | Check_not_heap
  | Ms_forbid
  | Set_heap
  | Check_value
  | Iter_check
  | Ms_read
  | Ms_write
  | Extern_nop  (** a declared external without side effects *)
  | Undefined

type op =
  | Alloca of int
  | Load of operand * int
  | Store of operand * operand * int
  | Gep of operand * operand
  | Binop of Instr.binop * operand * operand
  | Icmp of Instr.cmp * operand * operand
  | Select of operand * operand * operand
  | Call of int * operand array  (** user function by position *)
  | Intrinsic of intrinsic * string * operand array
  | Stray_phi  (** a phi after the block's leading phis *)

type step = { instr : Instr.t; dst : int  (** slot, or -1 *); op : op }

(* A branch to label index [dst]; [arms.(k)] is what the destination's
   [k]-th phi reads on this edge ([None]: it has no arm for it). *)
type target = { dst : int; arms : operand option array }

type term =
  | Br of target
  | Condbr of operand * target * target
  | Ret of operand option
  | Unreachable

type cblock = {
  idx : int;
  label : string;
  phis : Instr.t array;  (** the leading phis *)
  phi_dsts : int array;
  body : step array;
  term : term;
}

type cfunc = {
  fn : Code.fn;
  params : int array;  (** parameter slots, in order *)
  reg_names : string array;  (** slot -> register name *)
  cblocks : cblock array;
}

(* A slot nothing has written yet. Physically distinct from every value a
   program can compute. *)
let unset : int64 = Int64.neg (Sys.opaque_identity 0x5ca7L)

let intrinsic_of (m : Irmod.t) (callee : string) : intrinsic =
  match callee with
  | "malloc" | "calloc" -> Malloc
  | "free" -> Free
  | "memcpy" -> Memcpy
  | "memset" -> Memset
  | "print" -> Print
  | "input" -> Input
  | "exit" -> Exit
  | "scaf.misspec" -> Misspec
  | "scaf.checkpoint" -> Checkpoint
  | "scaf.commit" -> Commit
  | "scaf.check_residue" -> Check_residue
  | "scaf.check_heap" -> Check_heap
  | "scaf.check_not_heap" -> Check_not_heap
  | "scaf.ms_forbid" -> Ms_forbid
  | "scaf.set_heap" -> Set_heap
  | "scaf.check_value" -> Check_value
  | "scaf.iter_check" -> Iter_check
  | "scaf.ms_read" -> Ms_read
  | "scaf.ms_write" -> Ms_write
  | _ ->
      if
        Irmod.has_attr m callee Func.Readnone
        || Irmod.has_attr m callee Func.Readonly
      then Extern_nop
      else Undefined

let leading_phis (b : Block.t) : Instr.t list * Instr.t list =
  let rec split acc = function
    | ({ Instr.kind = Instr.Phi _; _ } as i) :: tl -> split (i :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  split [] b.Block.instrs

let compile_func (m : Irmod.t) ~(fid_of : string -> int option)
    ~(global : string -> int64 option) (fn : Code.fn) : cfunc =
  let f = fn.Code.func in
  let slots : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let names = ref [] in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.replace slots r s;
        names := r :: !names;
        s
  in
  let params = Array.of_list (List.map slot f.Func.params) in
  let operand (v : Value.t) =
    match v with
    | Value.Int i -> Const i
    | Value.Null | Value.Undef -> Const 0L
    | Value.Global g -> (
        match global g with Some a -> Const a | None -> Unknown_global g)
    | Value.Reg r -> Slot (slot r)
  in
  let dst_slot (i : Instr.t) = match i.Instr.dst with Some d -> slot d | None -> -1 in
  let step (i : Instr.t) =
    let op =
      match i.Instr.kind with
      | Instr.Alloca { size } -> Alloca size
      | Instr.Load { ptr; size } -> Load (operand ptr, size)
      | Instr.Store { ptr; value; size } -> Store (operand ptr, operand value, size)
      | Instr.Gep { base; offset } -> Gep (operand base, operand offset)
      | Instr.Binop (op, a, b) -> Binop (op, operand a, operand b)
      | Instr.Icmp (c, a, b) -> Icmp (c, operand a, operand b)
      | Instr.Select { cond; if_true; if_false } ->
          Select (operand cond, operand if_true, operand if_false)
      | Instr.Call { callee; args } -> (
          let args = Array.of_list (List.map operand args) in
          match fid_of callee with
          | Some fid -> Call (fid, args)
          | None -> Intrinsic (intrinsic_of m callee, callee, args))
      | Instr.Phi _ -> Stray_phi
    in
    { instr = i; dst = dst_slot i; op }
  in
  let blocks = fn.Code.blocks in
  let split = Array.map leading_phis blocks in
  (* the branch from [from] to label [dst], with the operands [dst]'s phis
     read on it (the first arm naming [from] wins, as a list search
     would) *)
  let target ~(from : Block.t) (dst : int) =
    if dst >= Array.length blocks then { dst; arms = [||] }
    else
      let arm (phi : Instr.t) =
        match phi.Instr.kind with
        | Instr.Phi incoming ->
            Option.map
              (fun (_, v) -> operand v)
              (List.find_opt
                 (fun (l, _) -> String.equal l from.Block.label)
                 incoming)
        | _ -> None
      in
      { dst; arms = Array.of_list (List.map arm (fst split.(dst))) }
  in
  let cblocks =
    Array.mapi
      (fun idx (b : Block.t) ->
        let phis, rest = split.(idx) in
        let phis = Array.of_list phis in
        let phi_dsts = Array.map dst_slot phis in
        let body = Array.of_list (List.map step rest) in
        let succ k = fn.Code.succ.((2 * idx) + k) in
        let term =
          match b.Block.term.Instr.tkind with
          | Instr.Br _ -> Br (target ~from:b (succ 0))
          | Instr.Condbr { cond; _ } ->
              let c = operand cond in
              Condbr (c, target ~from:b (succ 0), target ~from:b (succ 1))
          | Instr.Ret v -> Ret (Option.map operand v)
          | Instr.Unreachable -> Unreachable
        in
        { idx; label = b.Block.label; phis; phi_dsts; body; term })
      blocks
  in
  { fn; params; reg_names = Array.of_list (List.rev !names); cblocks }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type state = {
  mem : Memory.t;
  rt : Runtime.t;
  hooks : Hooks.t;
  input : int64 array;
  funcs : cfunc array;  (** by position in [m.funcs] *)
  phi_vals : int64 array;
      (** scratch for evaluating a block's phis in parallel *)
  mutable fuel : int;
  mutable output_rev : int64 list;
  mutable executed : int;
  mutable pending_checkpoint : int option;
      (** loop ordinal set by [scaf.checkpoint]; consumed by the next
          control-flow edge, which opens the checkpointed region *)
}

type frame = {
  cf : cfunc;
  regs : int64 array;
  mutable objs : Memory.obj list;  (** allocas to kill on return *)
  ctx : int list;
}

let read_unset (fr : frame) (s : int) : int64 =
  Memory.trap "read of unset register %%%s" fr.cf.reg_names.(s)

let value (fr : frame) (o : operand) : int64 =
  match o with
  | Const c -> c
  | Slot s ->
      let v = Array.unsafe_get fr.regs s in
      if v == unset then read_unset fr s else v
  | Unknown_global g -> Memory.trap "unknown global @%s" g

let set (fr : frame) (dst : int) (v : int64) : unit =
  if dst >= 0 then Array.unsafe_set fr.regs dst v

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
let intrinsic (st : state) ~(instr : Instr.t) (k : intrinsic) ~(callee : string)
    ~(args : int64 array) ~(ctx : int list) : int64 =
  let arg n =
    if n < Array.length args then args.(n)
    else Memory.trap "@%s: missing argument %d" callee n
  in
  match k with
  | Malloc ->
      let size = Int64.to_int (arg 0) in
      let o =
        Memory.alloc st.mem ~size ~kind:(Memory.KHeap instr.Instr.id) ~ctx
      in
      st.hooks.Hooks.on_alloc ~obj:o;
      st.hooks.Hooks.on_ptr ~instr ~addr:o.Memory.base ~obj:(Some o) ~ctx;
      o.Memory.base
  | Free ->
      let o = Memory.free st.mem (arg 0) in
      Runtime.note_free st.rt o;
      st.hooks.Hooks.on_free ~obj:o;
      0L
  | Memcpy ->
      Memory.memcpy st.mem ~dst:(arg 0) ~src:(arg 1)
        ~len:(Int64.to_int (arg 2));
      arg 0
  | Memset ->
      Memory.memset st.mem ~dst:(arg 0) ~byte:(arg 1)
        ~len:(Int64.to_int (arg 2));
      arg 0
  | Print ->
      st.output_rev <- arg 0 :: st.output_rev;
      0L
  | Input ->
      let n = Array.length st.input in
      if n = 0 then 0L
      else
        let i = Int64.to_int (Int64.rem (Int64.abs (arg 0)) (Int64.of_int n)) in
        st.input.(i)
  | Exit -> raise (Program_exit (arg 0))
  | Misspec ->
      Runtime.beacon st.rt ~tag:(arg 0);
      0L
  | Checkpoint ->
      st.pending_checkpoint <- Some (Int64.to_int (arg 0));
      0L
  | Commit ->
      Runtime.commit st.rt ~loop_ord:(Int64.to_int (arg 0));
      0L
  | Check_residue ->
      Runtime.check_residue st.rt ~addr:(arg 0) ~allowed:(arg 1) ~tag:(arg 2);
      0L
  | Check_heap ->
      Runtime.check_heap st.rt ~addr:(arg 0)
        ~heap_tag:(Int64.to_int (arg 1))
        ~tag:(arg 2);
      0L
  | Check_not_heap ->
      Runtime.check_not_heap st.rt ~addr:(arg 0)
        ~heap_tag:(Int64.to_int (arg 1))
        ~tag:(arg 2);
      0L
  | Ms_forbid ->
      Runtime.ms_forbid st.rt ~src:(arg 0) ~dst:(arg 1);
      0L
  | Set_heap ->
      Runtime.set_heap st.rt ~addr:(arg 0) ~heap_tag:(Int64.to_int (arg 1));
      0L
  | Check_value ->
      Runtime.check_value st.rt ~value:(arg 0) ~predicted:(arg 1) ~tag:(arg 2);
      0L
  | Iter_check ->
      Runtime.iter_check st.rt ~heap_tag:(Int64.to_int (arg 0)) ~tag:(arg 1);
      0L
  | Ms_read ->
      Runtime.ms_read st.rt ~addr:(arg 0) ~size:(Int64.to_int (arg 1))
        ~group:(arg 2) ~tag:(arg 3);
      0L
  | Ms_write ->
      Runtime.ms_write st.rt ~addr:(arg 0) ~size:(Int64.to_int (arg 1))
        ~group:(arg 2) ~tag:(arg 3);
      0L
  | Extern_nop -> 0L
  | Undefined -> Memory.trap "call to undefined function @%s" callee

let rec kill_all (mem : Memory.t) = function
  | [] -> ()
  | o :: tl ->
      Memory.kill mem o;
      kill_all mem tl

let tick (st : state) =
  st.fuel <- st.fuel - 1;
  st.executed <- st.executed + 1;
  if st.fuel <= 0 then Memory.trap "fuel exhausted"

(* [exec_func st cf regs ~nargs ctx] runs [cf] in a frame whose parameter
   slots the caller filled (when [nargs] matches). *)
let rec exec_func (st : state) (cf : cfunc) (regs : int64 array) ~(nargs : int)
    (ctx : int list) : int64 =
  st.hooks.Hooks.on_call_enter cf.fn ~ctx;
  let nparams = Array.length cf.params in
  if nargs <> nparams then
    Memory.trap "@%s called with %d args, expects %d" (Code.name cf.fn) nargs
      nparams;
  if Array.length cf.cblocks = 0 then ignore (Func.entry cf.fn.Code.func);
  let fr = { cf; regs; objs = []; ctx } in
  let entry = cf.cblocks.(0) in
  st.hooks.Hooks.on_block cf.fn 0;
  if Array.length entry.phis > 0 then
    Memory.trap "phi in entry block of @%s" (Code.name cf.fn);
  run_block st fr entry

and run_block (st : state) (fr : frame) (b : cblock) : int64 =
  let body = b.body in
  for k = 0 to Array.length body - 1 do
    step st fr (Array.unsafe_get body k)
  done;
  (* Terminator *)
  tick st;
  match b.term with
  | Br t -> goto st fr b t
  | Condbr (cond, t, f) ->
      if not (Int64.equal (value fr cond) 0L) then goto st fr b t
      else goto st fr b f
  | Ret v ->
      let v = match v with Some v -> value fr v | None -> 0L in
      kill_all st.mem fr.objs;
      st.hooks.Hooks.on_call_exit fr.cf.fn;
      v
  | Unreachable ->
      Memory.trap "reached 'unreachable' in @%s" (Code.name fr.cf.fn)

and goto (st : state) (fr : frame) (b : cblock) (t : target) : int64 =
  st.hooks.Hooks.on_edge fr.cf.fn ~src:b.idx ~dst:t.dst;
  if t.dst >= Array.length fr.cf.cblocks then
    Memory.trap "branch to unknown block %s" fr.cf.fn.Code.labels.(t.dst)
  else
    match st.pending_checkpoint with
    | None -> enter st fr b t
    | Some loop_ord ->
        (* Loop-invocation checkpoint (§4.2.5): on misspeculation inside
           the region, restore memory/runtime/frame state, squash the
           offending assertion and replay from this edge. The replayed code
           is semantically the original (checks are only ever inserted
           adjacent to existing instructions), so squash-and-replay
           preserves the original semantics. *)
        st.pending_checkpoint <- None;
        let id = Runtime.checkpoint st.rt ~loop_ord in
        let regs_snap = Array.copy fr.regs in
        let objs_snap = fr.objs in
        let out_snap = st.output_rev in
        let rec attempt () =
          try enter st fr b t
          with Runtime.Misspec { tag } when Runtime.is_active st.rt id ->
            Runtime.rollback_to st.rt id;
            Runtime.disable_tag st.rt tag;
            (* a check that fired between [scaf.checkpoint] and its edge
               leaves the flag set; drop it or the replay would open a
               checkpoint at the wrong edge *)
            st.pending_checkpoint <- None;
            Array.blit regs_snap 0 fr.regs 0 (Array.length regs_snap);
            fr.objs <- objs_snap;
            st.output_rev <- out_snap;
            attempt ()
        in
        attempt ()

(* Enter [t]'s block from [prev]: its phis evaluate in parallel against
   the registers as they were on the edge. *)
and enter (st : state) (fr : frame) (prev : cblock) (t : target) : int64 =
  let nb = fr.cf.cblocks.(t.dst) in
  st.hooks.Hooks.on_block fr.cf.fn t.dst;
  let n = Array.length t.arms in
  if n > 0 then begin
    let vals = st.phi_vals in
    for k = 0 to n - 1 do
      match Array.unsafe_get t.arms k with
      | Some o -> Array.unsafe_set vals k (value fr o)
      | None ->
          Memory.trap "phi %d has no arm for predecessor %s"
            nb.phis.(k).Instr.id prev.label
    done;
    for k = 0 to n - 1 do
      st.hooks.Hooks.on_instr nb.phis.(k);
      st.executed <- st.executed + 1;
      set fr nb.phi_dsts.(k) (Array.unsafe_get vals k)
    done
  end;
  run_block st fr nb

and step (st : state) (fr : frame) (s : step) : unit =
  let i = s.instr in
  st.hooks.Hooks.on_instr i;
  tick st;
  match s.op with
  | Alloca size ->
      let o = Memory.alloc st.mem ~size ~kind:(Memory.KStack i.Instr.id) ~ctx:fr.ctx in
      fr.objs <- o :: fr.objs;
      st.hooks.Hooks.on_alloc ~obj:o;
      st.hooks.Hooks.on_ptr ~instr:i ~addr:o.Memory.base ~obj:(Some o)
        ~ctx:fr.ctx;
      set fr s.dst o.Memory.base
  | Load (ptr, size) ->
      let addr = value fr ptr in
      let o = Memory.access st.mem "load" addr size in
      let v = Memory.read o (Memory.offset o addr) size in
      st.hooks.Hooks.on_load ~instr:i ~addr ~size ~value:v ~obj:o ~ctx:fr.ctx;
      set fr s.dst v
  | Store (ptr, v, size) ->
      let addr = value fr ptr in
      let v = value fr v in
      let o = Memory.access st.mem "store" addr size in
      Memory.write st.mem o (Memory.offset o addr) size v;
      st.hooks.Hooks.on_store ~instr:i ~addr ~size ~value:v ~obj:o ~ctx:fr.ctx
  | Gep (base, offset) ->
      let a = Int64.add (value fr base) (value fr offset) in
      st.hooks.Hooks.on_ptr ~instr:i ~addr:a ~obj:(Memory.locate_opt st.mem a)
        ~ctx:fr.ctx;
      set fr s.dst a
  | Binop (op, a, b) -> set fr s.dst (apply_binop op (value fr a) (value fr b))
  | Icmp (c, a, b) -> set fr s.dst (apply_cmp c (value fr a) (value fr b))
  | Select (cond, if_true, if_false) ->
      set fr s.dst
        (if not (Int64.equal (value fr cond) 0L) then value fr if_true
         else value fr if_false)
  | Call (fid, args) ->
      let g = st.funcs.(fid) in
      let regs = Array.make (Array.length g.reg_names) unset in
      let nparams = Array.length g.params in
      (* arguments evaluate left to right, straight into the callee's
         parameter slots *)
      for k = 0 to Array.length args - 1 do
        let v = value fr (Array.unsafe_get args k) in
        if k < nparams then regs.(g.params.(k)) <- v
      done;
      set fr s.dst
        (exec_func st g regs ~nargs:(Array.length args) (i.Instr.id :: fr.ctx))
  | Intrinsic (k, callee, args) ->
      let argv = Array.map (value fr) args in
      set fr s.dst (intrinsic st ~instr:i k ~callee ~args:argv ~ctx:(i.Instr.id :: fr.ctx))
  | Stray_phi -> Memory.trap "phi %d not at block start" i.Instr.id

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(** [run ?hooks ?fuel ?input ?entry m] executes [m] and returns the result.
    [entry] defaults to ["main"]. *)
let run ?(hooks = Hooks.nop) ?(fuel = 50_000_000) ?(input = [||])
    ?(entry = "main") (m : Irmod.t) : result =
  let mem = Memory.create () in
  let rt = Runtime.create mem in
  (* Globals live for the whole run. *)
  let globals : (string, int64) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (g : Irmod.global) ->
      let o =
        Memory.alloc mem ~size:g.Irmod.gsize ~kind:(Memory.KGlobal g.Irmod.gname)
          ~ctx:[]
      in
      Hashtbl.replace globals g.Irmod.gname o.Memory.base;
      List.iter
        (fun (off, v) ->
          let size = if off + 8 <= g.Irmod.gsize then 8 else 1 in
          Memory.store mem (Int64.add o.Memory.base (Int64.of_int off)) size v)
        g.Irmod.ginit)
    m.Irmod.globals;
  (* a name calls the first function defining it, as [Irmod.find_func] *)
  let fids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun fid (f : Func.t) ->
      if not (Hashtbl.mem fids f.Func.name) then Hashtbl.replace fids f.Func.name fid)
    m.Irmod.funcs;
  let funcs =
    Array.of_list
      (List.mapi
         (fun fid f ->
           compile_func m ~fid_of:(Hashtbl.find_opt fids)
             ~global:(Hashtbl.find_opt globals) (Code.make ~fid f))
         m.Irmod.funcs)
  in
  let max_phis =
    Array.fold_left
      (fun n cf ->
        Array.fold_left (fun n b -> max n (Array.length b.phis)) n cf.cblocks)
      0 funcs
  in
  let st =
    {
      mem;
      rt;
      hooks;
      input;
      funcs;
      phi_vals = Array.make max_phis 0L;
      fuel;
      output_rev = [];
      executed = 0;
      pending_checkpoint = None;
    }
  in
  let cf =
    match Hashtbl.find_opt fids entry with
    | Some fid -> funcs.(fid)
    | None -> Memory.trap "no @%s function" entry
  in
  let regs = Array.make (Array.length cf.reg_names) unset in
  Array.iter (fun s -> regs.(s) <- 0L) cf.params;
  let ret =
    try exec_func st cf regs ~nargs:(Array.length cf.params) []
    with Program_exit v -> v
  in
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
