(* The benchmark driver: one process, one workload per invocation.

     driver.exe --workload NAME --seed N --seconds S --trace 0|1 [--exe PATH]

   Every input is generated from --seed. Human-readable lines go first;
   the last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 the per-layer ones, and the span
   events are written to perfbench/_out as Chrome trace_event JSON. *)

open Perfbench
open Scaf_server

(* Metric names and units come from BENCHMARK.json at the root of the
   checkout, the benchmark's contract: an untraced run prints every
   end_to_end metric, a traced run every per_layer one. *)
let contract () : (string * string) list * (string * string) list =
  let ic = open_in_bin "BENCHMARK.json" in
  let j = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let metrics key =
    List.map
      (fun m -> (Json.string_member "name" m, Json.string_member "unit" m))
      (Json.to_list_exn (Json.mem_or key ~default:(Json.List []) j))
  in
  (metrics "end_to_end", metrics "per_layer")

let usage () =
  prerr_endline
    "usage: driver --workload batch-cold|serve-warm|serve-edit --seed N \
     --seconds S --trace 0|1 [--exe PATH]";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let exe = ref "_build/default/bin/scaf_eval.exe" and out = "perfbench/_out" in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string_opt v; parse tl
    | "--trace" :: v :: tl -> trace := Some (String.equal v "1"); parse tl
    | "--exe" :: v :: tl -> exe := v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let env = { Run.seed; seconds; traced; exe = !exe; out_dir = out } in
  let run =
    match !workload with
    | "batch-cold" -> Batch.run
    | "serve-warm" -> Serve.warm
    | "serve-edit" -> Serve.edit
    | _ -> usage ()
  in
  let end_to_end, per_layer = contract () in
  let r = run env in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.Run.metrics with
        | Some v -> (name, v, unit)
        | None when traced ->
            Printf.printf "%s is not exercised by %s; reported as 0\n" name !workload;
            (name, 0.0, unit)
        | None -> failwith (Printf.sprintf "%s did not measure %s" !workload name))
      (if traced then per_layer else end_to_end)
  in
  List.iter print_endline r.Run.report;
  List.iter (fun w -> Printf.printf "failure: %s\n" w) (List.rev r.Run.ops.Run.why);
  if traced then begin
    let file = Filename.concat out (Printf.sprintf "trace-%s-%d.json" !workload seed) in
    Span.write_chrome file;
    Printf.printf "trace events written to %s\n" file
  end;
  let metric (name, v, unit) =
    let v =
      if Float.is_finite v then v
      else if traced then begin
        Printf.printf "metric %s could not be measured in this run; reported as 0\n" name;
        0.0
      end
      else failwith (Printf.sprintf "%s measured %s as %f" !workload name v)
    in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  let ops = r.Run.ops in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ops.Run.failed = 0 && ops.Run.attempted > 0)
    ops.Run.attempted ops.Run.failed
    (String.concat ", " (List.map metric metrics))
