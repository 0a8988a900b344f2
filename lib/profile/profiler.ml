(** One-pass profiling driver: runs a module under the interpreter with all
    profilers attached, once per training input, and returns the filled
    {!Profiles.t}. *)

open Scaf_ir
open Scaf_cfg
open Scaf_interp

(* Per-run transient state must not leak across runs (interpreter
   addresses are reused between runs) nor outlive profiling: nothing reads
   it afterwards. *)
let end_run (p : Profiles.t) =
  Time_profile.flush p.Profiles.time;
  Hashtbl.reset p.Profiles.lifetime.Lifetime_profile.pending;
  Hashtbl.reset p.Profiles.lifetime.Lifetime_profile.live_oids

let hooks_for (p : Profiles.t) (tracker : Tracker.t) : Hooks.t =
  let memdep = Memdep_profile.recorder p.Profiles.memdep in
  let lifetime = p.Profiles.lifetime in
  let time = p.Profiles.time in
  (* loop lifecycle listeners *)
  Tracker.add_enter_listener tracker (fun a ->
      Time_profile.record_invocation time ~lid:a.Tracker.lid);
  Tracker.add_iter_listener tracker (fun a ->
      Time_profile.record_iteration time ~lid:a.Tracker.lid;
      (* close the previous iteration of this invocation *)
      if a.Tracker.iteration > 1 then
        Lifetime_profile.iteration_boundary lifetime ~lid:a.Tracker.lid
          ~invocation:a.Tracker.invocation);
  Tracker.add_exit_listener tracker (fun a ->
      Lifetime_profile.iteration_boundary lifetime ~lid:a.Tracker.lid
        ~invocation:a.Tracker.invocation);
  {
    Hooks.on_block =
      (fun f b ->
        Edge_profile.record_block p.Profiles.edges ~func:f.Func.name
          ~label:b.Block.label);
    on_edge =
      (fun ~src_term ~src:_ ~dst ~func ->
        Edge_profile.record_edge p.Profiles.edges ~src_term ~dst;
        Tracker.edge tracker ~func:func.Func.name ~dst);
    on_call_enter =
      (fun f ~ctx:_ ->
        Edge_profile.record_call p.Profiles.edges ~func:f.Func.name;
        Tracker.call_enter tracker f.Func.name);
    on_call_exit = (fun _ -> Tracker.call_exit tracker);
    on_instr = (fun _ -> Time_profile.record_instr time (Tracker.actives tracker));
    on_load =
      (fun ~instr ~addr ~size ~value ~obj ~ctx ->
        let id = instr.Instr.id and snap = Tracker.snapshot tracker in
        Value_profile.record p.Profiles.values ~load:id ~value;
        Residue_profile.record p.Profiles.residues ~access:id ~addr;
        Memdep_profile.record_load memdep ~instr:id ~addr ~size ~snap;
        let off = Int64.to_int (Int64.sub addr obj.Memory.base) in
        Points_to_profile.record p.Profiles.points_to ~instr:id ~obj ~off ~size
          ~ctx;
        Lifetime_profile.record_access lifetime ~site:(Site.of_obj obj)
          ~write:false ~snap);
    on_store =
      (fun ~instr ~addr ~size ~value:_ ~obj ~ctx ->
        let id = instr.Instr.id and snap = Tracker.snapshot tracker in
        Residue_profile.record p.Profiles.residues ~access:id ~addr;
        Memdep_profile.record_store memdep ~instr:id ~addr ~size ~snap;
        let off = Int64.to_int (Int64.sub addr obj.Memory.base) in
        Points_to_profile.record p.Profiles.points_to ~instr:id ~obj ~off ~size
          ~ctx;
        Lifetime_profile.record_access lifetime ~site:(Site.of_obj obj)
          ~write:true ~snap);
    on_ptr =
      (fun ~instr ~addr ~obj ~ctx ->
        Residue_profile.record p.Profiles.residues ~access:instr.Instr.id ~addr;
        match obj with
        | Some o ->
            let off = Int64.to_int (Int64.sub addr o.Memory.base) in
            Points_to_profile.record p.Profiles.points_to ~instr:instr.Instr.id
              ~obj:o ~off ~size:1 ~ctx
        | None -> ());
    on_alloc =
      (fun ~obj ->
        Lifetime_profile.record_alloc lifetime ~oid:obj.Memory.oid
          ~site:(Site.of_obj obj) ~snap:(Tracker.snapshot tracker));
    on_free =
      (fun ~obj -> Lifetime_profile.record_free lifetime ~oid:obj.Memory.oid);
  }

(** [profile ?inputs ?fuel ctx] profiles the module of [ctx] once per
    training input (default: one run with no input). *)
let profile ?(inputs : int64 array list = [ [||] ]) ?(fuel = 50_000_000)
    (ctx : Progctx.t) : Profiles.t =
  let p = Profiles.create ctx in
  List.iter
    (fun input ->
      let tracker =
        Tracker.create ~loops_of:(fun fname -> Progctx.loops_of ctx fname)
      in
      let hooks = hooks_for p tracker in
      let (_ : Eval.result) = Eval.run ~hooks ~fuel ~input ctx.Progctx.m in
      Tracker.finish tracker;
      end_run p)
    inputs;
  p

(** Convenience: build the context and profile in one step. *)
let profile_module ?inputs ?fuel (m : Irmod.t) : Profiles.t =
  profile ?inputs ?fuel (Progctx.build m)
