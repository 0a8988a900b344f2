(** Tests for the interpreter: arithmetic, memory, control flow, calls,
    intrinsics, hooks, traps and the validation runtime. *)

open Scaf_ir
open Scaf_interp

let checki64 = Alcotest.check Alcotest.int64
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let run ?hooks ?input ?fuel src =
  Eval.run ?hooks ?input ?fuel (Parser.parse_exn_msg src)

let test_arith () =
  let r =
    run
      {|func @main() {
entry:
  %a = add 3, 4
  %b = mul %a, 10
  %c = sub %b, 5
  %d = sdiv %c, 2
  %e = srem %d, 13
  %f = shl %e, 2
  %g = ashr -8, 1
  %h = add %f, %g
  ret %h
}|}
  in
  (* c=65 d=32 e=6 f=24 g=-4 h=20 *)
  checki64 "ret" 20L r.Eval.ret

let test_icmp_select () =
  let r =
    run
      {|func @main() {
entry:
  %a = icmp slt 3, 4
  %b = icmp sge -1, 0
  %c = select %a, 100, 200
  %d = select %b, 1000, %c
  ret %d
}|}
  in
  checki64 "ret" 100L r.Eval.ret

let test_memory_roundtrip () =
  let r =
    run
      {|func @main() {
entry:
  %a = alloca 16
  %p = gep %a, 8
  store 8, %p, 123456789
  %v = load 8, %p
  ret %v
}|}
  in
  checki64 "ret" 123456789L r.Eval.ret

let test_store_sizes () =
  let r =
    run
      {|func @main() {
entry:
  %a = alloca 8
  store 8, %a, -1
  store 1, %a, 0
  %v = load 2, %a
  ret %v
}|}
  in
  (* low byte zeroed, next byte still 0xff *)
  checki64 "ret" 0xFF00L r.Eval.ret

let test_global_init () =
  let r =
    run
      {|global @g 16 init [0: 42, 8: 7]
func @main() {
entry:
  %p = gep @g, 8
  %a = load 8, @g
  %b = load 8, %p
  %s = add %a, %b
  ret %s
}|}
  in
  checki64 "ret" 49L r.Eval.ret

let test_loop_sum () =
  let r =
    run
      {|func @main() {
entry:
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %s = phi [entry: 0], [loop: %s2]
  %s2 = add %s, %i
  %i2 = add %i, 1
  %c = icmp slt %i2, 10
  condbr %c, loop, exit
exit:
  ret %s2
}|}
  in
  checki64 "sum 0..9" 45L r.Eval.ret

let test_call_and_args () =
  let r =
    run
      {|func @sq(%x) {
entry:
  %y = mul %x, %x
  ret %y
}
func @main() {
entry:
  %a = call @sq(7)
  ret %a
}|}
  in
  checki64 "7^2" 49L r.Eval.ret

let test_malloc_free () =
  let r =
    run
      {|func @main() {
entry:
  %p = call @malloc(32)
  store 8, %p, 5
  %q = gep %p, 24
  store 8, %q, 6
  %a = load 8, %p
  %b = load 8, %q
  %s = add %a, %b
  call @free(%p)
  ret %s
}|}
  in
  checki64 "heap" 11L r.Eval.ret

let test_use_after_free_traps () =
  match
    run
      {|func @main() {
entry:
  %p = call @malloc(8)
  call @free(%p)
  %v = load 8, %p
  ret %v
}|}
  with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_oob_traps () =
  match
    run
      {|func @main() {
entry:
  %a = alloca 8
  %p = gep %a, 8
  %v = load 8, %p
  ret %v
}|}
  with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_wild_pointer_traps () =
  match run "func @main() {\nentry:\n  %v = load 8, 64\n  ret %v\n}" with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_div_zero_traps () =
  match run "func @main() {\nentry:\n  %v = sdiv 1, 0\n  ret %v\n}" with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_fuel () =
  match
    run ~fuel:100
      "func @main() {\nentry:\n  br loop\nloop:\n  br loop\n}"
  with
  | exception Memory.Trap msg ->
      checkb "mentions fuel" true (Astring_contains.contains msg "fuel")
  | _ -> Alcotest.fail "expected fuel trap"

let test_memcpy_memset () =
  let r =
    run
      {|func @main() {
entry:
  %a = alloca 16
  %b = alloca 16
  call @memset(%a, 7, 8)
  call @memcpy(%b, %a, 8)
  %v = load 1, %b
  ret %v
}|}
  in
  checki64 "copied byte" 7L r.Eval.ret

let test_print_output () =
  let r =
    run
      {|func @main() {
entry:
  call @print(1)
  call @print(2)
  call @print(3)
  ret
}|}
  in
  Alcotest.(check (list int64)) "output" [ 1L; 2L; 3L ] r.Eval.output

let test_input () =
  let r =
    run ~input:[| 10L; 20L; 30L |]
      {|func @main() {
entry:
  %a = call @input(0)
  %b = call @input(1)
  %c = call @input(4)
  %s = add %a, %b
  %t = add %s, %c
  ret %t
}|}
  in
  (* input wraps: input(4) = input(1) = 20 *)
  checki64 "inputs" 50L r.Eval.ret

let test_exit () =
  let r =
    run
      {|func @main() {
entry:
  call @exit(99)
  ret 1
}|}
  in
  checki64 "exit code" 99L r.Eval.ret

let test_alloca_freed_on_return () =
  (* callee's alloca dies; caller reusing the pointer traps *)
  match
    run
      {|func @leak() {
entry:
  %a = alloca 8
  ret %a
}
func @main() {
entry:
  %p = call @leak()
  %v = load 8, %p
  ret %v
}|}
  with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap on dead stack object"

let test_hooks_counts () =
  let loads = ref 0 and stores = ref 0 and blocks = ref 0 and edges = ref 0 in
  let allocs = ref 0 in
  let hooks =
    {
      Hooks.nop with
      Hooks.on_load =
        (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> incr loads);
      on_store =
        (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx:_ -> incr stores);
      on_block = (fun _ _ -> incr blocks);
      on_edge = (fun _ ~src:_ ~dst:_ -> incr edges);
      on_alloc = (fun ~obj:_ -> incr allocs);
    }
  in
  let _ =
    run ~hooks
      {|func @main() {
entry:
  %a = alloca 8
  br loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  store 8, %a, %i
  %v = load 8, %a
  %i2 = add %i, 1
  %c = icmp slt %i2, 5
  condbr %c, loop, exit
exit:
  ret
}|}
  in
  checki "loads" 5 !loads;
  checki "stores" 5 !stores;
  checki "blocks" 7 !blocks;
  (* entry->loop, loop->loop x4, loop->exit *)
  checki "edges" 6 !edges;
  checki "allocs" 1 !allocs

let test_hook_ctx () =
  (* calling context is the stack of call-site ids, innermost first *)
  let ctxs = ref [] in
  let hooks =
    {
      Hooks.nop with
      Hooks.on_store =
        (fun ~instr:_ ~addr:_ ~size:_ ~value:_ ~obj:_ ~ctx -> ctxs := ctx :: !ctxs);
    }
  in
  let _ =
    run ~hooks
      {|global @g 8
func @inner() {
entry:
  store 8, @g, 1
  ret
}
func @outer() {
entry:
  call @inner()
  ret
}
func @main() {
entry:
  call @outer()
  store 8, @g, 2
  ret
}|}
  in
  match List.rev !ctxs with
  | [ ctx_inner; ctx_main ] ->
      checki "inner depth" 2 (List.length ctx_inner);
      checki "main depth" 0 (List.length ctx_main)
  | l -> Alcotest.failf "expected 2 stores, got %d" (List.length l)

let test_runtime_residue_ok () =
  (* residue of every 16-aligned base is 0 -> allowed set {0} = 1 *)
  let r =
    run
      {|func @main() {
entry:
  %a = alloca 8
  call @scaf.check_residue(%a, 1, 7)
  ret 1
}|}
  in
  checki64 "survived" 1L r.Eval.ret;
  checki "one cheap check" 1 r.Eval.cheap_checks

let test_runtime_residue_misspec () =
  match
    run
      {|func @main() {
entry:
  %a = alloca 16
  %p = gep %a, 4
  call @scaf.check_residue(%p, 1, 7)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 7L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_heap_check () =
  let r =
    run
      {|func @main() {
entry:
  %p = call @malloc(8)
  call @scaf.set_heap(%p, 3)
  call @scaf.check_heap(%p, 3, 11)
  ret 1
}|}
  in
  checki64 "survived" 1L r.Eval.ret;
  match
    run
      {|func @main() {
entry:
  %p = call @malloc(8)
  call @scaf.check_heap(%p, 3, 11)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 11L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_value_check () =
  (match
     run
       {|func @main() {
entry:
  call @scaf.check_value(5, 5, 1)
  ret 1
}|}
   with
  | r -> checki64 "ok" 1L r.Eval.ret);
  match
    run
      {|func @main() {
entry:
  call @scaf.check_value(5, 6, 2)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 2L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_misspec_beacon () =
  match
    run
      {|func @main() {
entry:
  call @scaf.misspec(42)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 42L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_shortlived_check () =
  (* balanced alloc/free inside iteration passes *)
  let r =
    run
      {|func @main() {
entry:
  %p = call @malloc(8)
  call @scaf.set_heap(%p, 5)
  call @free(%p)
  call @scaf.iter_check(5, 9)
  ret 1
}|}
  in
  checki64 "balanced ok" 1L r.Eval.ret;
  match
    run
      {|func @main() {
entry:
  %p = call @malloc(8)
  call @scaf.set_heap(%p, 5)
  call @scaf.iter_check(5, 9)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 9L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_memspec_check () =
  (* the 1 -> 2 dependence is asserted absent; it manifests -> misspec *)
  match
    run
      {|func @main() {
entry:
  call @scaf.ms_forbid(1, 2)
  %a = alloca 8
  call @scaf.ms_write(%a, 8, 1, 3)
  call @scaf.ms_read(%a, 8, 2, 3)
  ret 1
}|}
  with
  | exception Runtime.Misspec { tag } -> checki64 "tag" 3L tag
  | _ -> Alcotest.fail "expected misspec"

let test_runtime_memspec_same_group_ok () =
  (* no pair declared absent: any dependence may manifest *)
  let r =
    run
      {|func @main() {
entry:
  %a = alloca 8
  call @scaf.ms_write(%a, 8, 1, 3)
  call @scaf.ms_read(%a, 8, 2, 3)
  ret 1
}|}
  in
  checki64 "undeclared dep ok" 1L r.Eval.ret;
  checki "expensive checks" 2 r.Eval.expensive_checks

(* qcheck: interpreter evaluates random arithmetic expressions like OCaml *)
let arb_expr =
  let open QCheck in
  let gen =
    Gen.(
      let node =
        oneofl [ `Add; `Sub; `Mul; `And; `Or; `Xor ]
      in
      let* ops = list_size (int_range 1 20) node in
      let* start = int_range (-1000) 1000 in
      let* operands = list_repeat (List.length ops) (int_range (-1000) 1000) in
      return (start, List.combine ops operands))
  in
  make
    ~print:(fun (s, l) -> Printf.sprintf "start=%d ops=%d" s (List.length l))
    gen

let prop_arith_matches_ocaml =
  QCheck.Test.make ~name:"interp arithmetic matches OCaml semantics" ~count:100
    arb_expr (fun (start, ops) ->
      let b = Buffer.create 256 in
      Buffer.add_string b "func @main() {\nentry:\n";
      Buffer.add_string b (Printf.sprintf "  %%v0 = add %d, 0\n" start);
      List.iteri
        (fun k (op, x) ->
          let opname =
            match op with
            | `Add -> "add"
            | `Sub -> "sub"
            | `Mul -> "mul"
            | `And -> "and"
            | `Or -> "or"
            | `Xor -> "xor"
          in
          Buffer.add_string b
            (Printf.sprintf "  %%v%d = %s %%v%d, %d\n" (k + 1) opname k x))
        ops;
      Buffer.add_string b
        (Printf.sprintf "  ret %%v%d\n}\n" (List.length ops));
      let expected =
        List.fold_left
          (fun acc (op, x) ->
            let x = Int64.of_int x in
            match op with
            | `Add -> Int64.add acc x
            | `Sub -> Int64.sub acc x
            | `Mul -> Int64.mul acc x
            | `And -> Int64.logand acc x
            | `Or -> Int64.logor acc x
            | `Xor -> Int64.logxor acc x)
          (Int64.of_int start) ops
      in
      let r = run (Buffer.contents b) in
      Int64.equal r.Eval.ret expected)

let prop_memory_byte_roundtrip =
  QCheck.Test.make ~name:"memory load/store round-trips any size" ~count:100
    QCheck.(pair (int_range 1 8) (map Int64.of_int int))
    (fun (size, v) ->
      let mem = Memory.create () in
      let o = Memory.alloc mem ~size:16 ~kind:(Memory.KStack 0) ~ctx:[] in
      Memory.store mem o.Memory.base size v;
      let back = Memory.load mem o.Memory.base size in
      let mask =
        if size = 8 then -1L
        else Int64.sub (Int64.shift_left 1L (8 * size)) 1L
      in
      Int64.equal back (Int64.logand v mask))

(* qcheck: [Memory.locate]/[locate_opt]/[access] answer, and trap, as a
   plain address-map lookup does, across allocation, free, frame kills and
   rollbacks *)
type mem_op =
  | Alloc of int * bool  (** size, heap *)
  | Free of int * int  (** object, offset *)
  | Kill of int
  | Mark
  | Undo
  | Probe of int * int  (** object, offset *)
  | Access of int * int * int  (** object, offset, size *)
  | Wild of int

let arb_mem_ops =
  let open QCheck in
  let obj = Gen.int_range 0 1000 and off = Gen.int_range (-24) 72 in
  let op =
    Gen.frequency
      [
        (3, Gen.map2 (fun n h -> Alloc (n, h)) (Gen.int_range 1 64) Gen.bool);
        (1, Gen.map2 (fun o k -> Free (o, k)) obj (Gen.oneofl [ 0; 0; 8 ]));
        (1, Gen.map (fun o -> Kill o) obj);
        (1, Gen.return Mark);
        (1, Gen.return Undo);
        (6, Gen.map2 (fun o k -> Probe (o, k)) obj off);
        (3, Gen.map3 (fun o k n -> Access (o, k, n)) obj off (Gen.int_range 1 8));
        (1, Gen.map (fun a -> Wild a) (Gen.int_range 0 0x20000));
      ]
  in
  make
    ~print:(fun l -> Printf.sprintf "%d ops" (List.length l))
    Gen.(list_size (int_range 1 200) op)

(* the lookup [Memory.locate] must agree with *)
let reference_locate (m : Memory.t) (a : int64) : (Memory.obj, string) result =
  match
    Memory.Addr_map.find_last_opt
      (fun b -> Int64.compare b a <= 0)
      m.Memory.by_base
  with
  | None -> Error (Printf.sprintf "wild pointer 0x%Lx" a)
  | Some (_, o) ->
      if Memory.offset o a >= o.Memory.size then
        Error (Printf.sprintf "pointer 0x%Lx past object %d" a o.Memory.oid)
      else if not o.Memory.live then
        Error (Printf.sprintf "use of freed object %d" o.Memory.oid)
      else Ok o

let prop_locate_matches_map =
  QCheck.Test.make ~name:"memory lookup = address-map lookup" ~count:300
    arb_mem_ops (fun ops ->
      let m = Memory.create () in
      let all = ref [||] and marks = ref [] in
      let pick k = !all.(k mod Array.length !all) in
      let addr k off =
        Int64.add (pick k).Memory.base (Int64.of_int off)
      in
      let same r r' =
        match (r, r') with
        | Ok o, Ok o' -> o == o'
        | Error s, Error s' -> String.equal s s'
        | _ -> false
      in
      let trapping f = match f () with o -> Ok o | exception Memory.Trap s -> Error s in
      let check a =
        let r = reference_locate m a in
        same (trapping (fun () -> Memory.locate m a)) r
        && (match (Memory.locate_opt m a, r) with
           | Some o, Ok o' -> o == o'
           | None, Error _ -> true
           | _ -> false)
      in
      List.for_all
        (fun op ->
          match op with
          | Alloc (size, heap) ->
              let kind = if heap then Memory.KHeap 0 else Memory.KStack 0 in
              let o = Memory.alloc m ~size ~kind ~ctx:[] in
              all := Array.append !all [| o |];
              true
          | _ when Array.length !all = 0 -> true
          | Free (k, off) ->
              (try ignore (Memory.free m (addr k off)) with Memory.Trap _ -> ());
              true
          | Kill k ->
              let o = pick k in
              (* only objects still allocated: rollback drops the others *)
              (match Hashtbl.find_opt m.Memory.objects o.Memory.oid with
              | Some o' when o' == o -> Memory.kill m o
              | _ -> ());
              true
          | Mark ->
              if List.is_empty !marks then Memory.set_journaling m true;
              marks := Memory.mark m :: !marks;
              true
          | Undo -> (
              match !marks with
              | mk :: rest ->
                  Memory.undo_to m mk;
                  marks := rest;
                  if List.is_empty rest then Memory.set_journaling m false;
                  true
              | [] -> true)
          | Probe (k, off) -> check (addr k off)
          | Access (k, off, size) ->
              let a = addr k off in
              let expect =
                match reference_locate m a with
                | Ok o when Memory.offset o a + size > o.Memory.size ->
                    Error
                      (Printf.sprintf "load of %d bytes at 0x%Lx overruns object %d"
                         size a o.Memory.oid)
                | r -> r
              in
              same (trapping (fun () -> Memory.access m "load" a size)) expect
          | Wild a -> check (Int64.of_int a))
        ops)

let suite =
  [
    ( "interp",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "icmp/select" `Quick test_icmp_select;
        Alcotest.test_case "memory round-trip" `Quick test_memory_roundtrip;
        Alcotest.test_case "store sizes" `Quick test_store_sizes;
        Alcotest.test_case "global init" `Quick test_global_init;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "calls" `Quick test_call_and_args;
        Alcotest.test_case "malloc/free" `Quick test_malloc_free;
        Alcotest.test_case "use-after-free traps" `Quick
          test_use_after_free_traps;
        Alcotest.test_case "out-of-bounds traps" `Quick test_oob_traps;
        Alcotest.test_case "wild pointer traps" `Quick test_wild_pointer_traps;
        Alcotest.test_case "division by zero traps" `Quick test_div_zero_traps;
        Alcotest.test_case "fuel bound" `Quick test_fuel;
        Alcotest.test_case "memcpy/memset" `Quick test_memcpy_memset;
        Alcotest.test_case "print output" `Quick test_print_output;
        Alcotest.test_case "input vector" `Quick test_input;
        Alcotest.test_case "exit" `Quick test_exit;
        Alcotest.test_case "alloca dies at return" `Quick
          test_alloca_freed_on_return;
        Alcotest.test_case "hook event counts" `Quick test_hooks_counts;
        Alcotest.test_case "hook calling context" `Quick test_hook_ctx;
        Alcotest.test_case "residue check ok" `Quick test_runtime_residue_ok;
        Alcotest.test_case "residue check misspec" `Quick
          test_runtime_residue_misspec;
        Alcotest.test_case "heap check" `Quick test_runtime_heap_check;
        Alcotest.test_case "value check" `Quick test_runtime_value_check;
        Alcotest.test_case "misspec beacon" `Quick test_runtime_misspec_beacon;
        Alcotest.test_case "short-lived balance check" `Quick
          test_runtime_shortlived_check;
        Alcotest.test_case "memspec conflict detected" `Quick
          test_runtime_memspec_check;
        Alcotest.test_case "memspec same group ok" `Quick
          test_runtime_memspec_same_group_ok;
        QCheck_alcotest.to_alcotest prop_arith_matches_ocaml;
        QCheck_alcotest.to_alcotest prop_memory_byte_roundtrip;
        QCheck_alcotest.to_alcotest prop_locate_matches_map;
      ] );
  ]
