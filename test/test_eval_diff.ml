(* Differential test of the interpreter against its reference model
   ({!Eval_reference}, the direct tree walk): on every program below both
   must return the same result, or raise the same trap or misspeculation,
   after emitting the same hook events with the same arguments. *)

open Scaf_ir
open Scaf_interp

let checkb = Alcotest.(check bool)

(* One hook event, functions and blocks by name and label. *)
type event =
  | Block of string * string
  | Edge of int * string * string * string  (** src term, src, dst, func *)
  | Load of int * int64 * int * int64 * int * int list
  | Store of int * int64 * int * int64 * int * int list
  | Alloc of int
  | Free of int
  | Instr of int
  | Ptr of int * int64 * int option * int list
  | Enter of string * int list
  | Exit of string

type outcome =
  | Returned of Eval.result
  | Trapped of string
  | Misspeculated of int64
  | Exited of int64

let outcome f =
  match f () with
  | r -> Returned r
  | exception Memory.Trap msg -> Trapped msg
  | exception Runtime.Misspec { tag } -> Misspeculated tag
  | exception Eval.Program_exit v -> Exited v

let oid (o : Memory.obj) = o.Memory.oid

let reference_run ?fuel ~input m : outcome * event list =
  let log = ref [] in
  let ev e = log := e :: !log in
  let hooks =
    {
      Eval_reference.Hooks.on_block =
        (fun f b -> ev (Block (f.Func.name, b.Block.label)));
      on_edge =
        (fun ~src_term ~src ~dst ~func ->
          ev (Edge (src_term, src, dst, func.Func.name)));
      on_load =
        (fun ~instr ~addr ~size ~value ~obj ~ctx ->
          ev (Load (instr.Instr.id, addr, size, value, oid obj, ctx)));
      on_store =
        (fun ~instr ~addr ~size ~value ~obj ~ctx ->
          ev (Store (instr.Instr.id, addr, size, value, oid obj, ctx)));
      on_alloc = (fun ~obj -> ev (Alloc (oid obj)));
      on_free = (fun ~obj -> ev (Free (oid obj)));
      on_instr = (fun i -> ev (Instr i.Instr.id));
      on_ptr =
        (fun ~instr ~addr ~obj ~ctx ->
          ev (Ptr (instr.Instr.id, addr, Option.map oid obj, ctx)));
      on_call_enter = (fun f ~ctx -> ev (Enter (f.Func.name, ctx)));
      on_call_exit = (fun f -> ev (Exit f.Func.name));
    }
  in
  let o = outcome (fun () -> Eval_reference.run ~hooks ?fuel ~input m) in
  (o, List.rev !log)

let compiled_run ?fuel ~input m : outcome * event list =
  let log = ref [] in
  let ev e = log := e :: !log in
  let hooks =
    {
      Hooks.on_block =
        (fun fn b -> ev (Block (Code.name fn, fn.Code.blocks.(b).Block.label)));
      on_edge =
        (fun fn ~src ~dst ->
          let b = fn.Code.blocks.(src) in
          ev
            (Edge
               ( b.Block.term.Instr.tid,
                 b.Block.label,
                 fn.Code.labels.(dst),
                 Code.name fn )));
      on_load =
        (fun ~instr ~addr ~size ~value ~obj ~ctx ->
          ev (Load (instr.Instr.id, addr, size, value, oid obj, ctx)));
      on_store =
        (fun ~instr ~addr ~size ~value ~obj ~ctx ->
          ev (Store (instr.Instr.id, addr, size, value, oid obj, ctx)));
      on_alloc = (fun ~obj -> ev (Alloc (oid obj)));
      on_free = (fun ~obj -> ev (Free (oid obj)));
      on_instr = (fun i -> ev (Instr i.Instr.id));
      on_ptr =
        (fun ~instr ~addr ~obj ~ctx ->
          ev (Ptr (instr.Instr.id, addr, Option.map oid obj, ctx)));
      on_call_enter = (fun fn ~ctx -> ev (Enter (Code.name fn, ctx)));
      on_call_exit = (fun fn -> ev (Exit (Code.name fn)));
    }
  in
  let o = outcome (fun () -> Eval.run ~hooks ?fuel ~input m) in
  (o, List.rev !log)

let describe = function
  | Returned r -> Printf.sprintf "returned %Ld after %d" r.Eval.ret r.Eval.instrs_executed
  | Trapped msg -> "trap: " ^ msg
  | Misspeculated tag -> Printf.sprintf "misspec %Ld" tag
  | Exited v -> Printf.sprintf "exit %Ld" v

(* [same ~what m input] runs both interpreters (also without hooks) and
   returns the compiled run's outcome. *)
let same ?fuel ~what ?(input = [||]) (m : Irmod.t) : outcome =
  let ro, revs = reference_run ?fuel ~input m in
  let co, cevs = compiled_run ?fuel ~input m in
  checkb
    (Printf.sprintf "%s: outcome (%s vs %s)" what (describe co) (describe ro))
    true (co = ro);
  checkb
    (Printf.sprintf "%s: %d vs %d hook events" what (List.length cevs)
       (List.length revs))
    true (cevs = revs);
  let bare = outcome (fun () -> Eval.run ?fuel ~input m) in
  checkb (what ^ ": outcome without hooks") true (bare = ro);
  co

let rollbacks = function Returned r -> r.Eval.rollbacks | _ -> 0

(* ---- the suite, plain and instrumented ---------------------------- *)

let test_suite_programs () =
  List.iter
    (fun b ->
      let m = Scaf_suite.Program.program b in
      let id = Scaf_suite.Program.id b in
      List.iteri
        (fun k input ->
          ignore (same ~what:(Printf.sprintf "%s train %d" id k) ~input m))
        (Scaf_suite.Program.train_inputs b);
      ignore
        (same ~what:(id ^ " ref") ~input:(Scaf_suite.Program.ref_input b) m))
    (Scaf_suite.Registry.all ())

(* Checkpointed speculation, plus a prediction that is always wrong: the
   ref inputs misspeculate, and the false prediction forces a rollback and
   replay wherever it lands inside a checkpointed loop. *)
let test_instrumented_programs () =
  let rolled = ref 0 in
  List.iter
    (fun b ->
      let id = Scaf_suite.Program.id b in
      let p = Scaf_suite.Program.profiles b in
      let prog = p.Scaf_profile.Profiles.ctx in
      let lids = List.map fst (Scaf_pdg.Nodep.hot_loop_weights p) in
      let plan, speculative = Scaf_transform.Apply.speculate p in
      let first_load =
        List.find_map
          (fun lid ->
            match Hashtbl.find_opt prog.Scaf_cfg.Progctx.by_lid lid with
            | None -> None
            | Some (fname, l) -> (
                let li = Option.get (Scaf_cfg.Progctx.loops_of prog fname) in
                let f = li.Scaf_cfg.Loops.cfg.Scaf_cfg.Cfg.func in
                Func.fold_instrs f
                  (fun acc blk (i : Instr.t) ->
                    match (acc, i.Instr.kind) with
                    | None, Instr.Load _
                      when Scaf_cfg.Loops.contains l
                             (Scaf_cfg.Cfg.index_of li.Scaf_cfg.Loops.cfg
                                blk.Block.label) ->
                        Some i.Instr.id
                    | _ -> acc)
                  None))
          lids
      in
      let wrong =
        match first_load with
        | None -> []
        | Some load ->
            [
              {
                Scaf.Assertion.module_id = "always-wrong";
                points = [];
                cost = 1.0;
                conflicts = [];
                payload = Scaf.Assertion.Value_predict { load; value = -999L };
              };
            ]
      in
      let checkpointed =
        Scaf_transform.Instrument.instrument prog ~checkpoints:lids
          (plan.Scaf_transform.Plan.selected @ wrong)
      in
      let inputs =
        Scaf_suite.Program.train_inputs b @ [ Scaf_suite.Program.ref_input b ]
      in
      List.iteri
        (fun k input ->
          ignore (same ~what:(Printf.sprintf "%s speculative %d" id k) ~input speculative);
          let o =
            same ~what:(Printf.sprintf "%s checkpointed %d" id k) ~input
              checkpointed.Scaf_transform.Instrument.imod
          in
          rolled := !rolled + rollbacks o)
        inputs)
    (Scaf_suite.Registry.all ());
  checkb (Printf.sprintf "%d rollbacks replayed" !rolled) true (!rolled > 0)

(* ---- random compositions ------------------------------------------ *)

let kinds :
    (name:string -> iters:int -> size:int -> gate:int -> Scaf_suite.Patterns.piece)
    list =
  let open Scaf_suite.Patterns in
  [
    (fun ~name ~iters ~size:_ ~gate -> rare_kill ~name ~iters ~gate);
    (fun ~name ~iters ~size ~gate:_ -> ro_table ~name ~iters ~size);
    (fun ~name ~iters ~size:_ ~gate:_ -> short_lived ~name ~iters);
    (fun ~name ~iters ~size:_ ~gate -> dead_store_global_malloc ~name ~iters ~gate);
    (fun ~name ~iters ~size:_ ~gate -> unique_path_chain ~name ~iters ~gate);
    (fun ~name ~iters ~size:_ ~gate:_ -> value_kill_output ~name ~iters);
    (fun ~name ~iters ~size:_ ~gate -> residue_streams ~name ~iters ~gate);
    (fun ~name ~iters:_ ~size ~gate:_ -> static_arrays ~name ~size);
    (fun ~name ~iters ~size:_ ~gate -> indirect_index ~name ~iters ~gate);
  ]

let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let piece k =
    map3
      (fun kind iters (size, gate) ->
        (List.nth kinds kind) ~name:(Printf.sprintf "k%d" k) ~iters ~size ~gate)
      (int_bound (List.length kinds - 1))
      (int_range 1 12)
      (pair (map (fun s -> 8 * s) (int_range 1 8)) (int_range 0 3))
  in
  int_range 1 3 >>= fun n ->
  map Scaf_suite.Patterns.compose (flatten_l (List.init n piece))

let prop_random_programs =
  QCheck.Test.make ~count:60 ~name:"random compositions: compiled = reference"
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun src ->
      let m = Parser.parse_exn_msg src in
      List.iter
        (fun input -> ignore (same ~what:"random" ~input m))
        [ [||]; [| 0L |]; [| 1L |]; [| 3L; 5L |] ];
      true)

(* ---- traps ---------------------------------------------------------- *)

let trap_programs =
  [
    ( "use after free",
      "func @main() {\nentry:\n  %p = call @malloc(8)\n  call @free(%p)\n  %v = load 8, %p\n  ret %v\n}" );
    ( "out of bounds",
      "func @main() {\nentry:\n  %a = alloca 8\n  %p = gep %a, 8\n  %v = load 8, %p\n  ret %v\n}" );
    ("wild pointer", "func @main() {\nentry:\n  %v = load 8, 64\n  ret %v\n}");
    ("division by zero", "func @main() {\nentry:\n  %v = sdiv 1, 0\n  ret %v\n}");
    ("fuel", "func @main() {\nentry:\n  br loop\nloop:\n  br loop\n}");
    ( "dead stack object",
      "func @leak() {\nentry:\n  %a = alloca 8\n  ret %a\n}\nfunc @main() {\nentry:\n  %p = call @leak()\n  %v = load 8, %p\n  ret %v\n}" );
    ( "overrun",
      "func @main() {\nentry:\n  %a = alloca 8\n  %p = gep %a, 4\n  store 8, %p, 1\n  ret\n}" );
    ( "free of interior pointer",
      "func @main() {\nentry:\n  %p = call @malloc(16)\n  %q = gep %p, 8\n  call @free(%q)\n  ret\n}" );
    ( "free of stack object",
      "func @main() {\nentry:\n  %a = alloca 8\n  call @free(%a)\n  ret\n}" );
    ("unset register", "func @main() {\nentry:\n  %v = add %x, %y\n  ret %v\n}");
    ("unset gep operands", "func @main() {\nentry:\n  %p = gep %x, %y\n  ret %p\n}");
    ("unset store operands", "func @main() {\nentry:\n  store 8, %p, %v\n  ret\n}");
    ( "unset select operands",
      "func @main() {\nentry:\n  %v = select %c, %x, %y\n  ret %v\n}" );
    ("unknown global", "func @main() {\nentry:\n  %v = load 8, @nowhere\n  ret %v\n}");
    ("unknown label", "func @main() {\nentry:\n  call @print(1)\n  br nowhere\n}");
    ( "phi without arm",
      "func @main() {\nentry:\n  br next\nnext:\n  %i = phi [other: 1]\n  ret %i\n}" );
    ( "phi in entry",
      "func @f() {\nentry:\n  %i = phi [entry: 1]\n  ret %i\n}\nfunc @main() {\nentry:\n  %v = call @f()\n  ret %v\n}" );
    ( "phi after a non-phi",
      "func @main() {\nentry:\n  br next\nnext:\n  %a = add 1, 2\n  %i = phi [entry: 1]\n  ret %i\n}" );
    ("undefined callee", "func @main() {\nentry:\n  %v = call @mystery(1)\n  ret %v\n}");
    ( "arity",
      "func @f(%a, %b) {\nentry:\n  ret %a\n}\nfunc @main() {\nentry:\n  %v = call @f(1)\n  ret %v\n}" );
    ("missing intrinsic argument", "func @main() {\nentry:\n  call @memcpy()\n  ret\n}");
    ("unreachable", "func @main() {\nentry:\n  unreachable\n}");
    ( "unset argument",
      "func @f(%a) {\nentry:\n  ret %a\n}\nfunc @main() {\nentry:\n  %v = call @f(%u)\n  ret %v\n}" );
    ("no main", "func @other() {\nentry:\n  ret\n}");
  ]

let test_traps () =
  List.iter
    (fun (what, src) ->
      let m = Parser.parse_exn_msg src in
      match same ~fuel:1000 ~what m with
      | Trapped _ -> ()
      | o -> Alcotest.failf "%s: expected a trap, got %s" what (describe o))
    trap_programs

(* ---- allocation ----------------------------------------------------- *)

(* Interpretation with no-op hooks, in minor words per executed
   instruction over the suite's training runs. The tree walk allocated
   18.5; the compiled form allocates about 6.3 (values are boxed int64s). *)
let test_interp_allocation () =
  let runs =
    List.concat_map
      (fun b ->
        let m = Scaf_suite.Program.program b in
        List.map (fun input -> (m, input)) (Scaf_suite.Program.train_inputs b))
      (Scaf_suite.Registry.all ())
  in
  let w0 = Gc.minor_words () in
  let executed =
    List.fold_left
      (fun n (m, input) -> n + (Eval.run ~input m).Eval.instrs_executed)
      0 runs
  in
  let per_instr = (Gc.minor_words () -. w0) /. float_of_int executed in
  checkb
    (Printf.sprintf "%.2f minor words per executed instruction <= 8" per_instr)
    true (per_instr <= 8.0)

let suite =
  [
    ( "interp-diff",
      [
        Alcotest.test_case "suite programs" `Quick test_suite_programs;
        Alcotest.test_case "speculative and checkpointed programs" `Quick
          test_instrumented_programs;
        QCheck_alcotest.to_alcotest prop_random_programs;
        Alcotest.test_case "traps" `Quick test_traps;
        Alcotest.test_case "no-op hook allocation per instruction" `Quick
          test_interp_allocation;
      ] );
  ]
