(** Per-function profile fingerprints.

    Profile-dependent answers ([uses_profile] in a module's caps) must be
    invalidated when the profile facts they could have read changed — but
    re-profiling after an edit regenerates every table, so "did the profile
    change?" cannot be asked of the tables directly. This module renders
    each profile bundle into a canonical, per-function set of fact strings
    and compares those across an edit: a function whose fact set is
    byte-identical before and after contributes nothing new to any
    profile-derived answer, so such answers survive.

    Attribution: edge counts through the terminator/block/function they
    count; access facts (values, residues, points-to) through the function
    owning the instruction; loop-scoped facts (lifetime read/write sets,
    allocation sites, violations, memory dependences) through the loop's
    function. Transient collection state (lifetime [pending]/[live_oids],
    emptied after every profiling run) and the time profile are excluded:
    the former is dead weight after profiling finishes, and wall-clock
    timings differ between runs of identical programs — fingerprinting them
    would turn every edit into a global invalidation. *)

open Scaf_profile

type t = (string, string list) Hashtbl.t
(* function name -> sorted fact strings *)

let func_of_lid (lid : string) : string =
  match String.index_opt lid ':' with
  | Some i -> String.sub lid 0 i
  | None -> lid

let add (acc : (string, string list) Hashtbl.t) (fname : string) (fact : string)
    : unit =
  Hashtbl.replace acc fname
    (fact :: Option.value ~default:[] (Hashtbl.find_opt acc fname))

let pp_site = Fmt.to_to_string Site.pp

let of_profiles (p : Profiles.t) : t =
  let acc = Hashtbl.create 64 in
  let ctx = p.Profiles.ctx in
  let func_of_instr id =
    Option.map
      (fun o -> o.Scaf_ir.Irmod.Index.func.Scaf_ir.Func.name)
      (Scaf_cfg.Progctx.occ ctx id)
  in
  let add_instr_fact id fact =
    match func_of_instr id with Some f -> add acc f fact | None -> ()
  in
  (* edge profile *)
  Edge_profile.iter_edges
    (fun tid dst n ->
      match Hashtbl.find_opt ctx.Scaf_cfg.Progctx.index.Scaf_ir.Irmod.Index.term_by_id tid with
      | Some (f, b) ->
          add acc f.Scaf_ir.Func.name
            (Printf.sprintf "edge %s->%s %d" b.Scaf_ir.Block.label dst n)
      | None -> ())
    p.Profiles.edges;
  Edge_profile.iter_blocks
    (fun f label n -> add acc f (Printf.sprintf "block %s %d" label n))
    p.Profiles.edges;
  Edge_profile.iter_calls
    (fun f n -> add acc f (Printf.sprintf "func %d" n))
    p.Profiles.edges;
  (* value profile *)
  Idtbl.iter
    (fun id (e : Value_profile.entry) ->
      add_instr_fact id
        (Printf.sprintf "value %d %Ld %b %d" id e.Value_profile.first
           e.Value_profile.stable e.Value_profile.count))
    p.Profiles.values;
  (* residue profile *)
  Idtbl.iter
    (fun id (e : Residue_profile.entry) ->
      add_instr_fact id
        (Printf.sprintf "residue %d %d %d" id e.Residue_profile.residues
           e.Residue_profile.count))
    p.Profiles.residues;
  (* points-to profile *)
  let pt_fact tag id (e : Points_to_profile.entry) =
    Printf.sprintf "pt%s %d [%s] %d %d %s %d" tag id
      (String.concat ";"
         (List.map pp_site (Site.Set.elements e.Points_to_profile.sites)))
      e.Points_to_profile.min_off e.Points_to_profile.max_off
      (match e.Points_to_profile.const_off with
      | Some o -> string_of_int o
      | None -> "*")
      e.Points_to_profile.count
  in
  Points_to_profile.iter
    (fun id e -> add_instr_fact id (pt_fact "" id e))
    p.Profiles.points_to;
  Points_to_profile.iter_ctx
    (fun id cc e ->
      add_instr_fact id
        (pt_fact
           (Printf.sprintf "@[%s]"
              (String.concat "," (List.map string_of_int cc)))
           id e))
    p.Profiles.points_to;
  (* lifetime profile (transient pending/live_oids excluded) *)
  Lifetime_profile.iter_rw
    (fun lid site (rw : Lifetime_profile.rw) ->
      add acc (func_of_lid lid)
        (Printf.sprintf "rw %s %s %d %d" lid (pp_site site)
           rw.Lifetime_profile.reads rw.Lifetime_profile.writes))
    p.Profiles.lifetime;
  Lifetime_profile.iter_alloc_sites
    (fun lid site ->
      add acc (func_of_lid lid) (Printf.sprintf "alloc %s %s" lid (pp_site site)))
    p.Profiles.lifetime;
  Lifetime_profile.iter_violated
    (fun lid site ->
      add acc (func_of_lid lid)
        (Printf.sprintf "violated %s %s" lid (pp_site site)))
    p.Profiles.lifetime;
  (* memory-dependence profile *)
  Memdep_profile.iter
    (fun lid (src, dst, cross) n ->
      add acc (func_of_lid lid)
        (Printf.sprintf "memdep %s %d->%d %b %d" lid src dst cross n))
    p.Profiles.memdep;
  (* canonicalize *)
  Hashtbl.filter_map_inplace (fun _ facts -> Some (List.sort compare facts)) acc;
  acc

(** The fingerprint of a program at its current epoch, kept beside the
    program's handle: an edit then renders only the new epoch's profiles,
    the previous epoch's being the ones kept. *)
type memo = { mutable last : (int * t) option }

let memo () : memo = { last = None }

let current (m : memo) (p : Scaf_suite.Program.t) : t =
  let epoch = Scaf_suite.Program.epoch p in
  match m.last with
  | Some (e, fp) when e = epoch -> fp
  | _ ->
      let fp = of_profiles (Scaf_suite.Program.profiles p) in
      m.last <- Some (epoch, fp);
      fp

(** Functions whose fact set differs between the two fingerprints
    (including functions present in only one). *)
let changed ~(before : t) ~(after : t) : string list =
  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  List.sort_uniq compare (keys before @ keys after)
  |> List.filter (fun f ->
         Hashtbl.find_opt before f <> Hashtbl.find_opt after f)
