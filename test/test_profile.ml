(** Tests for the profilers: edge, value, residue, points-to, lifetime,
    memory-dependence and loop-time, plus the loop tracker. *)

open Scaf_ir
open Scaf_profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

let profile ?(inputs = [ [||] ]) src =
  let m = Parser.parse_exn_msg src in
  Verify.check_exn m;
  (m, Profiler.profile_module ~inputs m)

let find m p =
  let r = ref (-1) in
  Irmod.iter_instrs m (fun _ _ i -> if p i then r := i.Instr.id);
  !r

let branchy =
  {|
global @g 8
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [latch: %i2]
  %r = call @input(0)
  %c = icmp ne %r, 0
  condbr %c, hot, cold
hot:
  store 8, @g, %i
  br latch
cold:
  store 8, @g, 7
  br latch
latch:
  %i2 = add %i, 1
  %d = icmp slt %i2, 60
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_edge_profile () =
  let _, p = profile ~inputs:[ [| 1L |] ] branchy in
  checki "loop block 60x" 60 (Edge_profile.block_count p.Profiles.edges ~func:"main" ~label:"loop");
  checki "hot block 60x" 60 (Edge_profile.block_count p.Profiles.edges ~func:"main" ~label:"hot");
  checkb "cold spec-dead" true
    (Edge_profile.spec_dead p.Profiles.edges ~func:"main" ~label:"cold");
  checkb "hot not dead" false
    (Edge_profile.spec_dead p.Profiles.edges ~func:"main" ~label:"hot");
  checki "main called once" 1 (Edge_profile.func_count p.Profiles.edges ~func:"main")

let test_edge_profile_multi_input () =
  (* two training inputs: one takes hot, one cold: nothing is dead *)
  let _, p = profile ~inputs:[ [| 1L |]; [| 0L |] ] branchy in
  checkb "cold not dead" false
    (Edge_profile.spec_dead p.Profiles.edges ~func:"main" ~label:"cold");
  checki "loop 120x" 120
    (Edge_profile.block_count p.Profiles.edges ~func:"main" ~label:"loop")

let value_src =
  {|
global @cfg 8 init [0: 42]
global @var 8
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %c = load 8, @cfg
  store 8, @var, %i
  %v = load 8, @var
  %i2 = add %i, 1
  %d = icmp slt %i2, 55
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_value_profile () =
  let m, p = profile value_src in
  let cfg_load = find m (fun i -> i.Instr.dst = Some "c") in
  let var_load = find m (fun i -> i.Instr.dst = Some "v") in
  (match Value_profile.predictable p.Profiles.values cfg_load with
  | Some (v, n) ->
      Alcotest.check Alcotest.int64 "predicted value" 42L v;
      checki "count" 55 n
  | None -> Alcotest.fail "cfg load should be predictable");
  checkb "varying load not predictable" true
    (Value_profile.predictable p.Profiles.values var_load = None)

let residue_src =
  {|
global @arr 64
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %o = mul %i, 16
  %o2 = srem %o, 48
  %p = gep @arr, %o2
  store 8, %p, %i
  %q2 = add %o2, 8
  %q = gep @arr, %q2
  %v = load 8, %q
  %i2 = add %i, 1
  %d = icmp slt %i2, 52
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_residue_profile () =
  let m, p = profile residue_src in
  let st = find m (fun i -> Instr.writes_memory i) in
  let ld = find m (fun i -> i.Instr.dst = Some "v") in
  (match Residue_profile.residue_set p.Profiles.residues st with
  | Some s -> checki "store residues {0}" 1 s
  | None -> Alcotest.fail "no store residues");
  (match Residue_profile.residue_set p.Profiles.residues ld with
  | Some s -> checki "load residues {8}" 0x100 s
  | None -> Alcotest.fail "no load residues");
  checkb "disjoint at size 8" true (Residue_profile.disjoint 1 8 0x100 8);
  checkb "overlap at size 16" false (Residue_profile.disjoint 1 16 0x100 8);
  checkb "oversize never disjoint" false (Residue_profile.disjoint 1 32 0x100 8)

let test_residue_expand () =
  checki "expand {0} by 4" 0b1111 (Residue_profile.expand 1 4);
  checki "expand {14} by 4 wraps" ((1 lsl 14) lor (1 lsl 15) lor 1 lor 2)
    (Residue_profile.expand (1 lsl 14) 4)

let pt_src =
  {|
global @slotA 8
global @slotB 8
func @main() {
entry:
  %a = call @malloc(32)
  store 8, @slotA, %a
  %b = call @malloc(32)
  store 8, @slotB, %b
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %pa = load 8, @slotA
  %qa = gep %pa, 8
  store 8, %qa, %i
  %pb = load 8, @slotB
  %qb = gep %pb, 16
  %v = load 8, %qb
  %i2 = add %i, 1
  %d = icmp slt %i2, 51
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_points_to_profile () =
  let m, p = profile pt_src in
  let qa = find m (fun i -> i.Instr.dst = Some "qa") in
  let qb = find m (fun i -> i.Instr.dst = Some "qb") in
  match
    ( Points_to_profile.observed p.Profiles.points_to qa,
      Points_to_profile.observed p.Profiles.points_to qb )
  with
  | Some ea, Some eb ->
      checkb "disjoint sites" true (Points_to_profile.disjoint_sites ea eb);
      checki "qa const off" 8 (Option.get ea.Points_to_profile.const_off);
      checki "qb const off" 16 (Option.get eb.Points_to_profile.const_off)
  | _ -> Alcotest.fail "missing points-to entries"

let lifetime_src =
  {|
global @slot 8
global @ro 8
global @acc 8
func @main() {
entry:
  %t = call @malloc(16)
  store 8, @ro, %t
  store 8, %t, 5
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %b = call @malloc(8)
  store 8, @slot, %b
  store 8, %b, %i
  %rp = load 8, @ro
  %rv = load 8, %rp
  %a = load 8, @acc
  %a2 = add %a, %rv
  store 8, @acc, %a2
  %b2 = load 8, @slot
  call @free(%b2)
  %i2 = add %i, 1
  %d = icmp slt %i2, 60
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_lifetime_profile () =
  let m, p = profile lifetime_src in
  let lid = "main:loop" in
  let heap_site id = { Site.skind = Site.SHeap id; sctx = Site.trim_ctx [ id ] } in
  let buf_malloc =
    find m (fun i ->
        match i.Instr.kind with
        | Instr.Call { callee = "malloc"; args = [ Value.Int 8L ] } -> true
        | _ -> false)
  in
  let tbl_malloc =
    find m (fun i ->
        match i.Instr.kind with
        | Instr.Call { callee = "malloc"; args = [ Value.Int 16L ] } -> true
        | _ -> false)
  in
  checkb "per-iter buffer short-lived" true
    (Lifetime_profile.short_lived p.Profiles.lifetime ~lid (heap_site buf_malloc));
  checkb "table not short-lived" false
    (Lifetime_profile.short_lived p.Profiles.lifetime ~lid (heap_site tbl_malloc));
  checkb "table read-only in loop" true
    (Lifetime_profile.read_only p.Profiles.lifetime ~lid (heap_site tbl_malloc));
  checkb "buffer not read-only" false
    (Lifetime_profile.read_only p.Profiles.lifetime ~lid (heap_site buf_malloc))

let test_lifetime_leak_detected () =
  (* a buffer kept across an iteration is not short-lived *)
  let src =
    {|
global @slot 8
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [sk: %i2]
  %old = load 8, @slot
  %c0 = icmp ne %old, 0
  condbr %c0, fr, sk
fr:
  call @free(%old)
  br sk
sk:
  %b = call @malloc(8)
  store 8, @slot, %b
  store 8, %b, %i
  %i2 = add %i, 1
  %d = icmp slt %i2, 60
  condbr %d, loop, exit
exit:
  ret
}
|}
  in
  let m, p = profile src in
  let malloc = find m (fun i -> match i.Instr.kind with Instr.Call { callee = "malloc"; _ } -> true | _ -> false) in
  checkb "leaked buffer not short-lived" false
    (Lifetime_profile.short_lived p.Profiles.lifetime ~lid:"main:loop"
       { Site.skind = Site.SHeap malloc; sctx = Site.trim_ctx [ malloc ] })

let memdep_src =
  {|
global @x 8
global @y 8
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  store 8, @x, %i
  %v = load 8, @x
  %w = load 8, @y
  store 8, @y, %v
  %i2 = add %i, 1
  %d = icmp slt %i2, 60
  condbr %d, loop, exit
exit:
  ret
}
|}

let test_memdep_profile () =
  let m, p = profile memdep_src in
  let lid = "main:loop" in
  let st_x = find m (fun i -> match i.Instr.kind with Instr.Store { ptr = Value.Global "x"; _ } -> true | _ -> false) in
  let ld_x = find m (fun i -> i.Instr.dst = Some "v") in
  let ld_y = find m (fun i -> i.Instr.dst = Some "w") in
  let st_y = find m (fun i -> match i.Instr.kind with Instr.Store { ptr = Value.Global "y"; _ } -> true | _ -> false) in
  (* intra flow x: store -> load, same iteration *)
  checkb "intra flow observed" true
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:st_x ~dst:ld_x ~cross:false);
  (* the store kills across iterations: no cross flow st_x -> ld_x *)
  checkb "cross flow killed" false
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:st_x ~dst:ld_x ~cross:true);
  (* cross output dep on x *)
  checkb "cross output observed" true
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:st_x ~dst:st_x ~cross:true);
  (* y: load old value, then store: anti dep intra; flow cross *)
  checkb "anti intra observed" true
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:ld_y ~dst:st_y ~cross:false);
  checkb "cross flow y observed" true
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:st_y ~dst:ld_y ~cross:true);
  (* no dep between x and y locations *)
  checkb "x-y unrelated" false
    (Memdep_profile.observed p.Profiles.memdep ~lid ~src:st_x ~dst:ld_y ~cross:false)

(* ---- the recorder against the byte-at-a-time reference model ---- *)

type op =
  | Access of { store : bool; instr : int; obj : int; off : int; size : int }
  | Snap of int  (** switch to a pooled snapshot, physically shared *)
  | Snap_copy of int  (** an equal but physically fresh copy of one *)
  | Alloc of int
  | Mark
  | Undo  (** roll memory back to the last mark: later allocations reuse its addresses *)

(* nested loops, a callee's loop, a recursive re-entry of the inner loop,
   and a scope list no tracker builds (one invocation listed twice) *)
let snap_pool =
  [|
    [];
    [ ("f:inner", 1, 1); ("f:outer", 1, 1) ];
    [ ("f:inner", 1, 2); ("f:outer", 1, 1) ];
    [ ("f:inner", 2, 1); ("f:outer", 1, 2) ];
    [ ("f:outer", 1, 2) ];
    [ ("g:loop", 1, 1); ("f:inner", 2, 3); ("f:outer", 1, 2) ];
    [ ("f:inner", 3, 1); ("f:inner", 2, 3); ("f:outer", 1, 2) ];
    [ ("f:inner", 2, 1); ("f:inner", 2, 3) ];
  |]

let pp_op = function
  | Access { store; instr; obj; off; size } ->
      Printf.sprintf "%s#%d o%d+%d/%d" (if store then "st" else "ld") instr obj off size
  | Snap i -> Printf.sprintf "snap%d" i
  | Snap_copy i -> Printf.sprintf "snapcopy%d" i
  | Alloc n -> Printf.sprintf "alloc%d" n
  | Mark -> "mark"
  | Undo -> "undo"

let gen_op : op QCheck.Gen.t =
  let open QCheck.Gen in
  let snap = int_bound (Array.length snap_pool - 1) in
  frequency
    [
      ( 12,
        map
          (fun (store, instr, obj, off, size) -> Access { store; instr; obj; off; size })
          (tup5 bool (int_bound 5) (int_bound 3) (int_bound 40) (oneofl [ 1; 2; 4; 8 ])) );
      (3, map (fun i -> Snap i) snap);
      (1, map (fun i -> Snap_copy i) snap);
      (1, map (fun n -> Alloc n) (int_range 1 48));
      (1, return Mark);
      (1, return Undo);
    ]

(* Replay [ops] through the recorder and the reference model; both see the
   same addresses, taken from live objects of a journaling memory. *)
let replay (ops : op list) =
  let open Scaf_interp in
  let mem = Memory.create () in
  Memory.set_journaling mem true;
  let alloc n = Memory.alloc mem ~size:n ~kind:(Memory.KHeap 0) ~ctx:[] in
  let objs = ref [ alloc 24; alloc 9 ] and marks = ref [] and snap = ref [] in
  let deps = Memdep_profile.create () in
  let r = Memdep_profile.recorder deps and model = Memdep_reference.create () in
  List.iter
    (function
      | Access { store; instr; obj; off; size } ->
          let o = List.nth !objs (obj mod List.length !objs) in
          let size = min size o.Memory.size in
          let addr = Int64.add o.Memory.base (Int64.of_int (off mod (o.Memory.size - size + 1))) in
          let snap = !snap in
          if store then begin
            Memdep_profile.record_store r ~instr ~addr ~size ~snap;
            Memdep_reference.record_store model ~instr ~addr ~size ~snap
          end
          else begin
            Memdep_profile.record_load r ~instr ~addr ~size ~snap;
            Memdep_reference.record_load model ~instr ~addr ~size ~snap
          end
      | Snap i -> snap := snap_pool.(i)
      | Snap_copy i -> snap := List.map Fun.id snap_pool.(i)
      | Alloc n -> objs := alloc n :: !objs
      | Mark -> marks := (Memory.mark mem, !objs) :: !marks
      | Undo -> (
          match !marks with
          | (m, os) :: rest ->
              Memory.undo_to mem m;
              objs := os;
              marks := rest
          | [] -> ()))
    ops;
  let rows = ref [] in
  Memdep_profile.iter (fun lid (s, d, c) n -> rows := (lid, s, d, c, n) :: !rows) deps;
  (List.sort compare !rows, Memdep_reference.rows model)

let prop_recorder_matches_reference =
  QCheck.Test.make ~name:"memdep recorder = byte-at-a-time model, counts included"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let got, want = replay ops in
      got = want)

(* The generator's undo really makes later objects overlap addresses an
   earlier, rolled-back object had touched. *)
let test_recorder_address_reuse () =
  let ops =
    [
      Snap 1;
      Mark;
      Alloc 16;
      Access { store = true; instr = 1; obj = 0; off = 0; size = 8 };
      Alloc 16;
      Access { store = true; instr = 2; obj = 0; off = 0; size = 8 };
      Undo;
      Alloc 40;
      Snap 2;
      Access { store = false; instr = 3; obj = 0; off = 0; size = 8 };
      Access { store = false; instr = 4; obj = 0; off = 32; size = 8 };
    ]
  in
  let got, want = replay ops in
  checkb "same table" true (got = want);
  (* the new 40-byte object spans both rolled-back objects' bytes *)
  checkb "read through a reused address" true
    (List.exists (fun (_, s, d, c, n) -> s = 1 && d = 3 && c && n = 8) got);
  checkb "second reused object seen too" true
    (List.exists (fun (_, s, d, _, n) -> s = 2 && d = 4 && n = 8) got)

let nested_time_src =
  {|
func @main() {
entry:
  br outer
outer:
  %i = phi [entry: 0], [olatch: %i2]
  br inner
inner:
  %j = phi [outer: 0], [inner: %j2]
  %j2 = add %j, 1
  %c = icmp slt %j2, 60
  condbr %c, inner, olatch
olatch:
  %i2 = add %i, 1
  %d = icmp slt %i2, 55
  condbr %d, outer, exit
exit:
  ret
}
|}

let test_time_profile_nested () =
  let _, p = profile nested_time_src in
  let hot = Time_profile.hot_loops p.Profiles.time in
  checkb "inner hot" true (List.mem "main:inner" hot);
  checkb "outer hot" true (List.mem "main:outer" hot);
  checkf "inner avg iters" 60.0
    (Time_profile.avg_iterations p.Profiles.time ~lid:"main:inner");
  checkf "outer avg iters" 55.0
    (Time_profile.avg_iterations p.Profiles.time ~lid:"main:outer");
  checkb "outer fraction dominates" true
    (Time_profile.time_fraction p.Profiles.time ~lid:"main:outer"
    >= Time_profile.time_fraction p.Profiles.time ~lid:"main:inner")

let test_hot_loop_thresholds () =
  (* a 10-iteration loop fails the >= 50 average-iterations rule *)
  let src =
    {|
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %i2 = add %i, 1
  %c = icmp slt %i2, 10
  condbr %c, loop, exit
exit:
  ret
}
|}
  in
  let _, p = profile src in
  checkb "short loop not hot" false
    (List.mem "main:loop" (Time_profile.hot_loops p.Profiles.time))

let test_callee_time_attribution () =
  (* work done in a callee counts toward the calling loop *)
  let src =
    {|
global @g 8
func @work() {
entry:
  br wloop
wloop:
  %j = phi [entry: 0], [wloop: %j2]
  store 8, @g, %j
  %j2 = add %j, 1
  %c = icmp slt %j2, 20
  condbr %c, wloop, exit
exit:
  ret
}
func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %x = call @work()
  %i2 = add %i, 1
  %d = icmp slt %i2, 60
  condbr %d, loop, exit
exit:
  ret
}
|}
  in
  let m, p = profile src in
  (* the store inside @work carries a dependence attributed to main:loop *)
  let st = find m (fun i -> Instr.writes_memory i) in
  checkb "callee store in caller-loop dep profile" true
    (Memdep_profile.observed p.Profiles.memdep ~lid:"main:loop" ~src:st ~dst:st
       ~cross:true);
  checkb "main loop fraction > 0.9" true
    (Time_profile.time_fraction p.Profiles.time ~lid:"main:loop" > 0.9)

(* A function of [n] blocks in a chain, each run once: label queries and
   the edit-path fingerprint must stay linear in the blocks (a label scan
   per query made them quadratic). *)
let test_many_blocks () =
  let n = 40_000 in
  let b = Buffer.create (n * 16) in
  Buffer.add_string b "func @main() {\nentry:\n  br b0\n";
  for k = 0 to n - 1 do
    Printf.bprintf b "b%d:\n  br b%d\n" k (k + 1)
  done;
  Printf.bprintf b "b%d:\n  ret\n}\n" n;
  (* profiled without [Verify]: only the profiles are under test *)
  let p = Profiler.profile_module (Parser.parse_exn_msg (Buffer.contents b)) in
  let t0 = Sys.time () in
  let fp = Scaf_incremental.Fingerprint.of_profiles p in
  let dead = ref 0 in
  for k = 0 to n do
    if
      Edge_profile.spec_dead p.Profiles.edges ~func:"main"
        ~label:(Printf.sprintf "b%d" k)
    then incr dead
  done;
  let dt = Sys.time () -. t0 in
  checki "no block dead" 0 !dead;
  checki "middle block ran once" 1
    (Edge_profile.block_count p.Profiles.edges ~func:"main" ~label:"b20000");
  let block_facts =
    List.filter
      (fun f -> String.starts_with ~prefix:"block " f)
      (Option.value ~default:[] (Hashtbl.find_opt fp "main"))
  in
  checki "one block fact per block" (n + 2) (List.length block_facts);
  if dt > 1.0 then
    Alcotest.failf "fingerprint and block queries took %.2f s of CPU for %d blocks"
      dt n

(* Blocks sharing a label (which [Verify] rejects, but profiling never
   checks) are counted and forgotten together; a branch reaches the first. *)
let test_duplicate_labels () =
  let src =
    "func @main() {\nentry:\n  br a\na:\n  br b\nb:\n  ret\na:\n  br b\n}\n"
  in
  let p = Profiler.profile_module (Parser.parse_exn_msg src) in
  let edges = p.Profiles.edges in
  checki "a ran once" 1 (Edge_profile.block_count edges ~func:"main" ~label:"a");
  let seen = ref [] in
  Edge_profile.iter_blocks (fun _ l n -> seen := (l, n) :: !seen) edges;
  checkb "one fact per label" true
    (List.rev !seen = [ ("a", 1); ("b", 1); ("entry", 1) ]);
  Edge_profile.forget_block edges ~func:"main" ~label:"a";
  checkb "forgotten a is dead" true
    (Edge_profile.spec_dead edges ~func:"main" ~label:"a");
  checki "b kept" 1 (Edge_profile.block_count edges ~func:"main" ~label:"b")

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "edge profile" `Quick test_edge_profile;
        Alcotest.test_case "edge profile, multiple inputs" `Quick
          test_edge_profile_multi_input;
        Alcotest.test_case "value profile" `Quick test_value_profile;
        Alcotest.test_case "residue profile" `Quick test_residue_profile;
        Alcotest.test_case "residue expand" `Quick test_residue_expand;
        Alcotest.test_case "points-to profile" `Quick test_points_to_profile;
        Alcotest.test_case "lifetime profile" `Quick test_lifetime_profile;
        Alcotest.test_case "lifetime leak detected" `Quick
          test_lifetime_leak_detected;
        Alcotest.test_case "memory-dependence profile" `Quick
          test_memdep_profile;
        QCheck_alcotest.to_alcotest prop_recorder_matches_reference;
        Alcotest.test_case "recorder, addresses reused after undo" `Quick
          test_recorder_address_reuse;
        Alcotest.test_case "time profile, nested loops" `Quick
          test_time_profile_nested;
        Alcotest.test_case "hot-loop thresholds" `Quick
          test_hot_loop_thresholds;
        Alcotest.test_case "callee attribution" `Quick
          test_callee_time_attribution;
        Alcotest.test_case "label queries linear in blocks" `Quick
          test_many_blocks;
        Alcotest.test_case "duplicate labels" `Quick test_duplicate_labels;
      ] );
  ]
