(** A canonical text rendering of what profiling records for the 16 suite
    programs: every {!Scaf_incremental.Fingerprint.of_profiles} fact, the
    time profile's per-loop counts, the hot loops and every observed
    memory dependence. [test/fixtures/profiles.golden] holds this rendering;
    regenerate it with [dune exec test/facts/profile_facts_gen.exe >
    test/fixtures/profiles.golden] only when a change to what is recorded
    is intended. *)

open Scaf_profile

let render_program (b : Scaf_suite.Program.t) : string =
  let p = Scaf_suite.Program.profiles b in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let sorted_keys tbl =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  line "== %s" (Scaf_suite.Program.id b);
  let fp = Scaf_incremental.Fingerprint.of_profiles p in
  List.iter
    (fun f -> List.iter (line "fact %s %s" f) (Hashtbl.find fp f))
    (sorted_keys fp);
  let time = p.Profiles.time in
  let lids = sorted_keys p.Profiles.ctx.Scaf_cfg.Progctx.by_lid in
  line "time total %d" time.Time_profile.total;
  List.iter
    (fun lid ->
      line "time %s %d %d %d" lid
        (Time_profile.instructions time ~lid)
        (Time_profile.iterations time ~lid)
        (Time_profile.invocations time ~lid))
    lids;
  line "hot %s" (String.concat " " (Time_profile.hot_loops time));
  List.iter
    (fun lid ->
      List.iter
        (fun (src, dst, cross) -> line "memdep %s %d %d %b" lid src dst cross)
        (Memdep_profile.all p.Profiles.memdep ~lid))
    lids;
  Buffer.contents buf

let render () : string =
  String.concat "" (List.map render_program (Scaf_suite.Registry.all ()))
