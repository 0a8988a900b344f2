(** One-pass profiling driver: runs a module under the interpreter with all
    profilers attached, once per training input, and returns the filled
    {!Profiles.t}. *)

open Scaf_ir
open Scaf_cfg
open Scaf_interp

(* Per-run transient state must not leak across runs (interpreter
   addresses and object ids are reused between runs) nor outlive
   profiling: nothing reads it afterwards. *)
let end_run (p : Profiles.t) =
  Time_profile.flush p.Profiles.time;
  Lifetime_profile.end_run p.Profiles.lifetime

let hooks_for (p : Profiles.t) (tracker : Tracker.t) : Hooks.t =
  let memdep = Memdep_profile.recorder p.Profiles.memdep in
  let lifetime = p.Profiles.lifetime in
  let time = p.Profiles.time in
  let edges = p.Profiles.edges in
  (* this run's objects -> interned site id; an allocation re-interns
     its object id, which a rollback may reuse *)
  let obj_sites : int Idtbl.t = Idtbl.create () in
  let intern (o : Memory.obj) =
    let sid = Lifetime_profile.intern lifetime (Site.of_obj o) in
    Idtbl.replace obj_sites o.Memory.oid sid;
    sid
  in
  let site_id (o : Memory.obj) =
    match Idtbl.find_opt obj_sites o.Memory.oid with
    | Some sid -> sid
    | None -> intern o
  in
  let points_to ~instr ~obj ~addr ~size ~ctx =
    let sid = site_id obj in
    Points_to_profile.record p.Profiles.points_to ~instr
      ~site:(Lifetime_profile.site lifetime sid)
      ~off:(Memory.offset obj addr)
      ~size ~ctx;
    sid
  in
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
    Hooks.on_block = (fun fn b -> Edge_profile.record_block edges fn b);
    on_edge =
      (fun fn ~src ~dst ->
        Edge_profile.record_edge edges fn ~src ~dst;
        Tracker.edge tracker fn ~dst);
    on_call_enter =
      (fun fn ~ctx:_ ->
        Edge_profile.record_call edges fn;
        Tracker.call_enter tracker fn);
    on_call_exit = (fun _ -> Tracker.call_exit tracker);
    on_instr = (fun _ -> Time_profile.record_instr time (Tracker.actives tracker));
    on_load =
      (fun ~instr ~addr ~size ~value ~obj ~ctx ->
        let id = instr.Instr.id in
        Value_profile.record p.Profiles.values ~load:id ~value;
        Residue_profile.record p.Profiles.residues ~access:id ~addr;
        Memdep_profile.record_load memdep ~instr:id ~addr ~size
          ~snap:(Tracker.snapshot tracker);
        let site = points_to ~instr:id ~obj ~addr ~size ~ctx in
        Lifetime_profile.record_access lifetime ~site ~write:false
          ~lids:(Tracker.lids tracker));
    on_store =
      (fun ~instr ~addr ~size ~value:_ ~obj ~ctx ->
        let id = instr.Instr.id in
        Residue_profile.record p.Profiles.residues ~access:id ~addr;
        Memdep_profile.record_store memdep ~instr:id ~addr ~size
          ~snap:(Tracker.snapshot tracker);
        let site = points_to ~instr:id ~obj ~addr ~size ~ctx in
        Lifetime_profile.record_access lifetime ~site ~write:true
          ~lids:(Tracker.lids tracker));
    on_ptr =
      (fun ~instr ~addr ~obj ~ctx ->
        Residue_profile.record p.Profiles.residues ~access:instr.Instr.id ~addr;
        match obj with
        | Some o ->
            ignore (points_to ~instr:instr.Instr.id ~obj:o ~addr ~size:1 ~ctx)
        | None -> ());
    on_alloc =
      (fun ~obj ->
        Lifetime_profile.record_alloc lifetime ~oid:obj.Memory.oid
          ~site:(intern obj) ~snap:(Tracker.snapshot tracker));
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
