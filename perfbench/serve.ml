(** The two serve workloads, against a [scaf_eval serve] child process
    ({!Child}) over one client connection in a closed loop.

    Set-up, seven times: spawn the daemon, wait for its first [ping]
    answer ([setup_s]), then replay every suite query once in 64-query
    batches to fill its cache ([pass_s]); the first six daemons are shut
    down, the seventh serves the measured window.

    Every served answer is checked against the in-process rendering of the
    same query ([Engine.answer] rendered by [Protocol.render_answer], the
    [eval-file] format); a degraded or mismatching answer, or a request
    that raises, counts as a failed operation. *)

open Scaf_server
open Scaf_suite

type query = { bench : string; wq : Protocol.wire_query; expect : string }

let render = Protocol.render_answer

let wire_of lid (dq : Scaf_pdg.Pdg.dep_query) : Protocol.wire_query =
  { Protocol.wloop = lid; wsrc = dq.Scaf_pdg.Pdg.src; wdst = dq.Scaf_pdg.Pdg.dst;
    wcross = dq.Scaf_pdg.Pdg.cross }

(** The PDG workload of a resident benchmark, in [queries]-op order. *)
let workload (b : Engine.bench) : Protocol.wire_query list =
  let ctx = Program.ctx b.Engine.program in
  List.concat_map
    (fun (lid, _) -> List.map (wire_of lid) (Scaf_pdg.Pdg.queries_of_loop ctx lid))
    (Engine.bench_loops b)

(** Reference answers for every query of every suite benchmark, computed
    in-process on an engine loaded like the daemon's. *)
let expected (eng : Engine.t) : (string * query array) list =
  let w = Engine.worker eng in
  List.map
    (fun name ->
      let b = Option.get (Engine.find_bench eng name) in
      ( name,
        Array.of_list
          (List.map
             (fun wq ->
               { bench = name; wq;
                 expect = render (Engine.answer w ~degrade:Admission.Full ~deadline:None b wq) })
             (workload b)) ))
    (Engine.bench_names eng)

let check (ops : Run.ops) (expect : string) (a : Protocol.answer) : unit =
  match a.Protocol.a_degraded with
  | Some why -> Run.fail ops ("degraded answer: " ^ why)
  | None ->
      if String.equal (render a) expect then Run.ok ops
      else Run.fail ops (Printf.sprintf "answer %S, expected %S" (render a) expect)

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: chunks n rest

let describe = function
  | Client.Server_error e -> Printf.sprintf "server error [%s] %s" e.Protocol.code e.Protocol.msg
  | e -> Printexc.to_string e

(** Ask [qs] of [bench] as batches of at most 64; answers in order. *)
let ask_batched (c : Client.t) ~bench (qs : Protocol.wire_query list) : Protocol.answer list =
  List.concat_map (fun chunk -> Client.ask_many c ~bench chunk) (chunks 64 qs)

(* Replay every suite query once; returns the seconds spent waiting on
   the daemon, with a yardstick slice between benchmarks. *)
let fill (ops : Run.ops) (cal : Calib.t) (c : Client.t) (table : (string * query array) list) :
    float =
  List.fold_left
    (fun acc (bench, qs) ->
      Calib.tick cal;
      let qs = Array.to_list qs in
      match Run.timed (fun () -> ask_batched c ~bench (List.map (fun q -> q.wq) qs)) with
      | answers, t ->
          List.iter2 (fun q a -> check ops q.expect a) qs answers;
          acc +. t
      | exception e ->
          List.iter (fun _ -> Run.fail ops ("fill: " ^ describe e)) qs;
          acc)
    0.0 table

(* Spawn seven daemons in turn (set-up and fill timed on each); return
   the last, still running. *)
let start (env : Run.env) (ops : Run.ops) (cal : Calib.t) table : Child.t * float * float =
  let socket = Filename.concat env.Run.out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let log = Filename.concat env.Run.out_dir "daemon.log" in
  let setups = ref [] and fills = ref [] in
  let rec go k =
    Calib.tick cal;
    let d, up = Child.spawn ~exe:env.Run.exe ~socket ~log in
    Calib.tick cal;
    match fill ops cal d.Child.client table with
    | exception e ->
        Child.stop d;
        raise e
    | f ->
        Calib.tick cal;
        Calib.record cal setups up;
        Calib.record cal fills f;
        ignore (Calib.close cal);
        if k = 1 then (d, Stats.median !setups, Stats.median !fills)
        else begin
          Child.stop d;
          go (k - 1)
        end
  in
  go 7

(* ---- daemon statistics ------------------------------------------- *)

let member path (j : Json.t) : Json.t option =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let counter (j : Json.t) (name : string) : float =
  match member [ "metrics"; "counters"; name ] j with
  | Some (Json.Int n) -> float_of_int n
  | _ -> nan

(* summed (hits, l1_hits, misses) over every benchmark's full cache *)
let cache_totals (j : Json.t) : float * float * float =
  match member [ "engine"; "caches" ] j with
  | Some (Json.Obj benches) ->
      List.fold_left
        (fun (h, l, m) (_, b) ->
          let f k =
            match member [ "full"; k ] b with Some (Json.Int n) -> float_of_int n | _ -> 0.0
          in
          (h +. f "hits", l +. f "l1_hits", m +. f "misses"))
        (0.0, 0.0, 0.0) benches
  | _ -> (nan, nan, nan)

(* ---- in-process layer probes (traced run only) ------------------- *)

(* median over [n] samples of the mean cost of [batch] back-to-back
   calls *)
let probe ?(batch = 1) ~(n : int) (f : unit -> unit) : float =
  Stats.median
    (List.init n (fun _ ->
         let t0 = Run.now () in
         for _ = 1 to batch do
           f ()
         done;
         (Run.now () -. t0) /. float_of_int batch))

let layer_probes (eng : Engine.t) (c : Client.t) (table : (string * query array) list) :
    (string * float) list =
  let all = Array.concat (List.map snd table) in
  let w = Engine.worker eng in
  let i = ref 0 in
  let engine_hit () =
    let q = all.(!i mod Array.length all) in
    incr i;
    let b = Option.get (Engine.find_bench eng q.bench) in
    ignore (Engine.answer w ~degrade:Admission.Full ~deadline:None b q.wq)
  in
  let adm = Admission.create Admission.default_config in
  let admission () =
    ignore (Admission.submit adm ());
    ignore (Admission.pop adm)
  in
  let reply =
    let b = Option.get (Engine.find_bench eng (fst (List.hd table))) in
    Protocol.ok
      [ ( "answers",
          Json.List
            (List.init 64 (fun k ->
                 let q = all.(k mod Array.length all) in
                 Protocol.answer_to_json
                   (Engine.answer w ~degrade:Admission.Full ~deadline:None b q.wq))) ) ]
  in
  let text = Json.to_string reply in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame () =
    match Wire.write_frame a reply with
    | Ok () -> ignore (Wire.read_frame b)
    | Error e -> failwith (Wire.error_to_string e)
  in
  let us x = x *. 1e6 in
  let r =
    [
      ("server.ping_us", us (probe ~n:2000 (fun () -> Client.ping c)));
      ("server.admission_us", us (probe ~batch:16 ~n:2000 admission));
      ("server.engine_hit_us", us (probe ~n:5000 engine_hit));
      ("server.json_encode_us", us (probe ~n:2000 (fun () -> ignore (Json.to_string reply))));
      ("server.json_decode_us", us (probe ~n:2000 (fun () -> ignore (Json.of_string text))));
      ("server.frame_us", us (probe ~n:2000 frame));
    ]
  in
  Unix.close a;
  Unix.close b;
  r

(* ---- serve-warm --------------------------------------------------- *)

let warm (env : Run.env) : Run.result =
  let ops = Run.ops () in
  let eng = Engine.create ~benchmarks:(Registry.all ()) () in
  let table = expected eng in
  let all = Array.concat (List.map snd table) in
  let rng = Random.State.make [| 0x3a; env.Run.seed |] in
  let cal = Calib.create () in
  let d, setup_s, pass_s = start env ops cal table in
  Fun.protect
    ~finally:(fun () -> Child.stop d)
    (fun () ->
      let c = d.Child.client in
      let s0 = Client.stats c in
      let asks = ref [] and batches = ref [] and streams = ref [] and firsts = ref [] in
      (* answers_per_s counts asks and batches only: a stream's time is
         mostly the daemon's polling sleeps, which op3/op4 already report.
         It is the median over rounds of each round's rate, so one request
         stalled by the machine does not move it. *)
      let busy = ref [] and answered = ref 0 and rates = ref [] and raw_asks = ref [] in
      let call span f =
        let r, t = Run.timed (fun () -> Span.with_ span f) in
        Calib.record cal busy t;
        (r, t)
      in
      let ask () =
        let q = all.(Random.State.int rng (Array.length all)) in
        match call "e2e.ask" (fun () -> Client.ask c ~bench:q.bench q.wq) with
        | a, t ->
            Calib.record cal asks t;
            raw_asks := t :: !raw_asks;
            incr answered;
            check ops q.expect a
        | exception e -> Run.fail ops ("ask: " ^ describe e)
      in
      let pick64 () =
        let bench, qs = List.nth table (Random.State.int rng (List.length table)) in
        (bench, List.init 64 (fun _ -> qs.(Random.State.int rng (Array.length qs))))
      in
      let batch () =
        let bench, qs = pick64 () in
        match call "e2e.batch64" (fun () -> Client.ask_many c ~bench (List.map (fun q -> q.wq) qs)) with
        | answers, t ->
            Calib.record cal batches t;
            answered := !answered + List.length answers;
            List.iter2 (fun q a -> check ops q.expect a) qs answers
        | exception e -> Run.fail ops ("ask_many: " ^ describe e)
      in
      let stream () =
        let bench, qs = pick64 () in
        let t0 = Run.now () in
        let last = ref t0 and first = ref nan in
        let on_item _ _ =
          let t = Run.now () in
          if Float.is_nan !first then first := t -. t0 else Span.sample "server.stream_gap" (t -. !last);
          last := t;
          `Continue
        in
        match
          Run.timed (fun () ->
              Span.with_ "e2e.stream64" (fun () ->
                  Client.ask_stream ~on_item c ~bench (List.map (fun q -> q.wq) qs)))
        with
        | (answers, summary), t ->
            streams := t :: !streams;
            firsts := !first :: !firsts;
            if summary.Protocol.st_shed > 0 || summary.Protocol.st_cancelled then
              Run.fail ops "stream shed or cancelled"
            else List.iter2 (fun q a -> check ops q.expect a) qs answers
        | exception e -> Run.fail ops ("stream: " ^ describe e)
      in
      (* One round: 256 single asks, 4 batches of 64 and 1 stream of 64,
         shuffled; every 32 steps make a yardstick block. The mix is a
         measurement design, not a model of any client: as many answers
         go singly as batched, so answers_per_s weighs both paths alike,
         and one stream per round (~0.36 s) gives a steady stream median
         in the window without the streams' sleeps crowding out the
         asks. The stream is timed raw, as its time is mostly the
         daemon's polling sleeps. *)
      let round () =
        let steps = Array.concat [ Array.make 256 ask; Array.make 4 batch; [| stream |] ] in
        let answered0 = !answered in
        busy := [];
        Array.iteri
          (fun i f ->
            f ();
            if i mod 32 = 31 || i = Array.length steps - 1 then begin
              Calib.tick cal;
              ignore (Calib.close cal)
            end)
          (Corpus.shuffle rng (Array.to_list steps));
        rates := (float_of_int (!answered - answered0) /. Stats.sum !busy) :: !rates
      in
      let t_start = Run.now () in
      let until frac =
        Run.repeat_until (t_start +. (env.Run.seconds *. frac)) round
      in
      let ms x = x *. 1e3 in
      if not env.Run.traced then begin
        until 1.0;
        let rss = Run.peak_rss_mb d.Child.pid in
        {
          Run.ops;
          metrics =
            [
              ("setup_s", setup_s);
              ("peak_rss_mb", rss);
              ("pass_s", pass_s);
              ("op_p50_ms", ms (Stats.windowed ~size:256 0.5 (List.rev !asks)));
              ("op_p90_ms", ms (Stats.windowed ~size:256 0.9 (List.rev !asks)));
              ("answers_per_s", Stats.median !rates);
              ("op2_p50_ms", ms (Stats.median !batches));
              ("op3_p50_ms", ms (Stats.median !streams));
              (* p90, not p50: whether the first item waits for the
                 daemon's first 20 ms poll is a race between two daemon
                 threads, so the median flips between ~0.3 ms and ~20 ms
                 from run to run; the p90 reads the poll-bound mode *)
              ("op4_ms", ms (Stats.quantile !firsts 0.9));
            ];
          report =
            [
              Printf.sprintf "serve-warm: %d asks, %d batches, %d streams; raw ask p50 %.1f us"
                (List.length !asks) (List.length !batches) (List.length !streams)
                (1e6 *. Stats.windowed ~size:256 0.5 (List.rev !raw_asks));
              Printf.sprintf "stream first item p10 %.2f ms, p50 %.2f ms, p90 %.2f ms"
                (ms (Stats.quantile !firsts 0.1)) (ms (Stats.quantile !firsts 0.5))
                (ms (Stats.quantile !firsts 0.9));
              Calib.describe cal;
            ];
        }
      end
      else begin
        until 0.5;
        let untraced = Stats.windowed ~size:256 0.5 (List.rev !asks) in
        asks := [];
        Span.on := true;
        until 1.0;
        Span.on := false;
        let traced = Stats.windowed ~size:256 0.5 (List.rev !asks) in
        let s1 = Client.stats c in
        let delta name = counter s1 name -. counter s0 name in
        let h0, l0, m0 = cache_totals s0 and h1, l1, m1 = cache_totals s1 in
        let hits = h1 -. h0 and l1h = l1 -. l0 and miss = m1 -. m0 in
        let server_p50 =
          match member [ "metrics"; "histograms"; "server.request_latency_s"; "p50" ] s1 with
          | Some (Json.Float f) -> f *. 1e6
          | _ -> nan
        in
        (* per-layer times are scaled by the run's median yardstick factor *)
        let f = Calib.median_factor cal in
        let probes = List.map (fun (k, v) -> (k, v *. f)) (layer_probes eng c table) in
        let server_p50 = server_p50 *. f in
        let mean_gap =
          match Span.find "server.stream_gap" with
          | Some a -> a.Span.total /. float_of_int a.Span.calls
          | None -> nan
        in
        let explained =
          List.assoc "server.admission_us" probes +. List.assoc "server.engine_hit_us" probes
        in
        {
          Run.ops;
          metrics =
            probes
            @ [
                ("server.request_us", server_p50);
                ("core.qcache_hit_ratio", (hits +. l1h) /. (hits +. l1h +. miss));
                ("core.l1_hit_ratio", l1h /. (hits +. l1h));
                (* mean, not median: items arrive in bursts a few us apart,
                   separated by the outbox's polling sleeps; raw, as those
                   sleeps dominate it *)
                ("server.stream_gap_ms", ms mean_gap);
                ("server.shed", delta "server.shed");
                ("server.rejected", delta "server.rejected");
                ("server.bp_sheds", delta "server.backpressure.sheds");
                ("server.heartbeats", delta "server.heartbeats");
                ("server.coalesced", delta "server.coalesced");
              ];
          report =
            Run.span_report ~e2e:[]
            @ [
                Calib.describe cal;
                Printf.sprintf
                  "stream items (raw): median gap %.4f ms, mean gap %.3f ms (the outbox's 20/50 ms \
                   polling sleeps)"
                  (ms (Option.value ~default:nan (Span.self_median "server.stream_gap")))
                  (ms mean_gap);
                Printf.sprintf
                  "ask p50 %.1f us; daemon-side request p50 %.1f us; admission + warm engine hit \
                   explain %.1f us of it (%.0f%%), the rest is wire, thread hand-off and the \
                   client"
                  (1e6 *. traced) server_p50 explained (100.0 *. explained /. (1e6 *. traced));
                Printf.sprintf "tracing overhead: ask p50 %.1f us traced vs %.1f us untraced (%+.1f%%)"
                  (1e6 *. traced) (1e6 *. untraced)
                  (100.0 *. ((traced /. untraced) -. 1.0));
              ];
        }
      end)

(* ---- serve-edit --------------------------------------------------- *)

(* Session.edit, decomposed into its public steps with a span on each. *)
let traced_edit (s : Scaf_incremental.Session.t) (op : Edit.op) : Edit.diff =
  let open Scaf_incremental in
  let open Scaf in
  let program = Session.program s in
  let old_m = Program.program program in
  let old_profiles = Program.profiles program in
  let old_fp = Span.with_ "incremental.fingerprint" (fun () -> Fingerprint.of_profiles old_profiles) in
  match Span.with_ "suite.edit_apply" (fun () -> Edit.apply_all program [ op ]) with
  | Error ds ->
      failwith (Fmt.str "mirror edit rejected: %a" (Fmt.list Scaf_lint.Diagnostic.pp) ds)
  | Ok diff ->
      let profiles = Span.with_ "profile.reprofile" (fun () -> Program.profiles program) in
      let new_fp = Span.with_ "incremental.fingerprint" (fun () -> Fingerprint.of_profiles profiles) in
      let profile_dirty = Fingerprint.changed ~before:old_fp ~after:new_fp in
      let components =
        Span.with_ "incremental.components" (fun () ->
            Components.build [ old_m; Program.program program ])
      in
      let caps_of name =
        Option.map
          (fun (m : Module_api.t) -> m.Module_api.caps)
          (List.find_opt (fun (m : Module_api.t) -> String.equal m.Module_api.name name) s.Session.modules)
      in
      Orchestrator.flush_cache s.Session.orch;
      ignore
        (Span.with_ "incremental.invalidate" (fun () ->
             Invalidate.run ~graph:s.Session.graph ~caps_of ~components
               ~touched_funcs:diff.Edit.touched_funcs ~touched_globals:diff.Edit.touched_globals
               ~profile_dirty ~next_epoch:diff.Edit.epoch s.Session.cache));
      Span.with_ "incremental.rebuild" (fun () ->
          Collector.set_funcs_of s.Session.graph (Collector.funcs_of_ctx (Program.ctx program));
          s.Session.modules <- Session.modules_of program;
          s.Session.orch <- Session.make_orch program s.Session.cache s.Session.frontend s.Session.modules);
      diff

let leading_phis (p : Program.t) ~fname ~block : int =
  match
    Option.bind (Scaf_ir.Irmod.find_func (Program.program p) fname) (fun f ->
        Scaf_ir.Func.find_block f block)
  with
  | None -> 0
  | Some b ->
      let rec go n = function
        | { Scaf_ir.Instr.kind = Scaf_ir.Instr.Phi _; _ } :: tl -> go (n + 1) tl
        | _ -> n
      in
      go 0 b.Scaf_ir.Block.instrs

(* Submissions run one every [submit_every] steps until
   [submissions_per_run] are resident: each stays resident and adds about
   1.5 MiB to the daemon, so their number is capped, and 64 give a steady
   submit median. Spread over the first 512 steps, about half the window,
   they sample more of the machine's swings than a burst at its start
   would. The daemon's peak RSS is read right after step [rss_step]: the
   metric then covers the same work in every run, however many steps the
   machine fits into the window. The RSS keeps rising for a few hundred
   steps after the last submission and levels off by [rss_step] (the
   checkpoints are printed in every run's report). *)
let submissions_per_run = 64
let submit_every = 8
let rss_step = 1024
let rss_checkpoints = [ 64; 128; 256; 512; 1024; 2048; 4096 ]

let edit (env : Run.env) : Run.result =
  let open Scaf_incremental in
  let ops = Run.ops () in
  let eng = Engine.create ~benchmarks:(Registry.all ()) () in
  let table = expected eng in
  let names = Array.of_list (List.map fst table) in
  let hot =
    Hashtbl.of_seq
      (Seq.map
         (fun n -> (n, Array.of_list (List.map fst (Engine.bench_loops (Option.get (Engine.find_bench eng n))))))
         (Array.to_seq names))
  in
  let rng = Random.State.make [| 0xed; env.Run.seed |] in
  (* the driver's mirror of each resident program: same edits, same
     instruction ids, and the source of the from-scratch baseline *)
  let mirrors =
    Hashtbl.of_seq
      (Seq.map (fun p -> (Program.id p, Session.create p)) (List.to_seq (Registry.all ())))
  in
  if env.Run.traced then
    Hashtbl.iter (fun _ s -> List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s)) mirrors;
  let pending : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let submissions =
    Array.of_list (Corpus.generate ~seed:(env.Run.seed + 1) ~count:submissions_per_run)
  in
  let ref_eng = Engine.create ~benchmarks:[] () in
  let cal = Calib.create () in
  let d, setup_s, pass_s = start env ops cal table in
  Fun.protect
    ~finally:(fun () -> Child.stop d)
    (fun () ->
      let c = d.Child.client in
      let edits = ref [] and reanswers = ref [] and submits = ref [] and asks = ref [] in
      let busy = ref [] and answered = ref 0 and step = ref 0 and submitted = ref 0 in
      let evicted = ref 0 and retained = ref 0 and recomputed = ref [] in
      let call span f =
        let r, t = Run.timed (fun () -> Span.with_ span f) in
        Calib.record cal busy t;
        (r, t)
      in
      let order = ref [||] in
      let next_bench () =
        let k = !step mod Array.length names in
        if k = 0 then order := Corpus.shuffle rng (Array.to_list names);
        !order.(k)
      in
      let edit_step bench =
        let s = Hashtbl.find mirrors bench in
        let p = Session.program s in
        let wedit, op =
          match Hashtbl.find_opt pending bench with
          | Some id -> (Protocol.WDelete { id }, Edit.Delete_instr { id })
          | None ->
              let loops = Hashtbl.find hot bench in
              let lid = loops.(Random.State.int rng (Array.length loops)) in
              let i = String.index lid ':' in
              let fname = String.sub lid 0 i
              and block = String.sub lid (i + 1) (String.length lid - i - 1) in
              let at = leading_phis p ~fname ~block in
              let text =
                Printf.sprintf "  %%pb%d = add %d, %d" !step (Random.State.int rng 100)
                  (Random.State.int rng 100)
              in
              (Protocol.WInsert { fname; block; at; text }, Edit.Insert_instr { fname; block; at; text })
        in
        match call "e2e.edit" (fun () -> Client.edit c ~bench [ wedit ]) with
        | exception e -> Run.fail ops ("edit: " ^ describe e)
        | r, t ->
            Calib.record cal edits t;
            evicted := !evicted + r.Protocol.e_evicted;
            retained := !retained + r.Protocol.e_retained;
            let diff =
              if not env.Run.traced then Edit.apply p op
              else if !Span.on then Ok (traced_edit s op)
              else Result.map fst (Session.edit s [ op ])
            in
            (match diff with
            | Ok diff when diff.Edit.epoch = r.Protocol.e_epoch ->
                Run.ok ops;
                (match op with
                | Edit.Insert_instr _ -> Hashtbl.replace pending bench (List.hd diff.Edit.touched_instrs)
                | _ -> Hashtbl.remove pending bench)
            | Ok diff ->
                Run.fail ops
                  (Printf.sprintf "%s: daemon epoch %d, mirror epoch %d" bench r.Protocol.e_epoch
                     diff.Edit.epoch)
            | Error _ -> failwith (bench ^ ": the mirror rejected an edit the daemon accepted"))
      in
      let reanswer bench =
        let qs = List.concat_map (fun (_, _, qs) -> qs) (Client.queries c ~bench) in
        match call "e2e.reanswer" (fun () -> ask_batched c ~bench qs) with
        | exception e -> Run.fail ops ("re-answer: " ^ describe e)
        | answers, t ->
            Calib.record cal reanswers t;
            answered := !answered + List.length answers;
            let s = Hashtbl.find mirrors bench in
            if env.Run.traced then begin
              Session.reset_counters s;
              Span.with_ "incremental.reanswer" (fun () ->
                  List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s));
              let k = Session.counters s in
              if !Span.on then
                recomputed :=
                  (100.0 *. float_of_int k.Session.recomputed /. float_of_int (max 1 k.Session.asked))
                  :: !recomputed
            end;
            if !step mod 4 = 0 then begin
              (* sampled: compare with a from-scratch session on the
                 edited program *)
              let base = Session.baseline s in
              let local = List.map Protocol.to_core_query qs in
              if List.map (Fmt.str "%a" Scaf.Query.pp) (Session.workload base)
                 <> List.map (Fmt.str "%a" Scaf.Query.pp) local
              then Run.fail ops (bench ^ ": served workload differs from the baseline's")
              else
                List.iter2
                  (fun q a -> check ops (render (Protocol.answer_of_response (Session.ask base q))) a)
                  local answers
            end
            else
              List.iter
                (fun (a : Protocol.answer) ->
                  match a.Protocol.a_degraded with
                  | Some why -> Run.fail ops ("degraded answer: " ^ why)
                  | None -> Run.ok ops)
                answers
      in
      (* Eight side asks per step: an ask (~0.04 ms) against a ~10 ms
         step adds a few per cent to the step while the ask median
         beside edits gets eight times the edit median's samples. *)
      let ask_others bench =
        for _ = 1 to 8 do
          let other = names.(Random.State.int rng (Array.length names)) in
          if (not (String.equal other bench)) && not (Hashtbl.mem pending other) then begin
            let qs = List.assoc other table in
            let q = qs.(Random.State.int rng (Array.length qs)) in
            match call "e2e.ask" (fun () -> Client.ask c ~bench:other q.wq) with
            | a, t ->
                Calib.record cal asks t;
                incr answered;
                check ops q.expect a
            | exception e -> Run.fail ops ("ask: " ^ describe e)
          end
        done
      in
      let submit () =
        let src = submissions.(!submitted) in
        let wp =
          { Protocol.wp_id = Printf.sprintf "sub%d-%d" env.Run.seed !step; wp_source = src.Corpus.source;
            wp_train = None; wp_ref = None }
        in
        match call "e2e.submit" (fun () -> Client.submit c wp) with
        | exception e -> Run.fail ops ("submit: " ^ describe e)
        | _, t -> (
            Calib.record cal submits t;
            match Engine.submit ref_eng ~max_est_queries:200_000 wp with
            | Error e -> Run.fail ops ("reference rejected a submission: " ^ e.Protocol.msg)
            | Ok (_, b) -> (
                let w = Engine.worker ref_eng in
                let qs = workload b in
                match call "e2e.replay" (fun () -> ask_batched c ~bench:wp.Protocol.wp_id qs) with
                | exception e -> Run.fail ops ("replay: " ^ describe e)
                | answers, _ ->
                    answered := !answered + List.length answers;
                    List.iter2
                      (fun q a ->
                        check ops (render (Engine.answer w ~degrade:Admission.Full ~deadline:None b q)) a)
                      qs answers))
      in
      (* Each step is a yardstick block. *)
      let rss_at = ref [] in
      let one_step () =
        let bench = next_bench () in
        edit_step bench;
        reanswer bench;
        ask_others bench;
        if !submitted < submissions_per_run && !step mod submit_every = 0 then begin
          submit ();
          incr submitted
        end;
        incr step;
        if List.mem !step rss_checkpoints then
          rss_at := (!step, Run.peak_rss_mb d.Child.pid) :: !rss_at;
        Calib.tick cal;
        ignore (Calib.close cal)
      in
      let t_start = Run.now () in
      let until frac =
        Run.repeat_until (t_start +. (env.Run.seconds *. frac)) one_step
      in
      let ms x = x *. 1e3 in
      if not env.Run.traced then begin
        until 1.0;
        (* a machine too slow to reach [rss_step] in the window runs on *)
        while !step < rss_step do
          one_step ()
        done;
        {
          Run.ops;
          metrics =
            [
              ("setup_s", setup_s);
              ("peak_rss_mb", List.assoc rss_step !rss_at);
              ("pass_s", pass_s);
              ("op_p50_ms", ms (Stats.median !edits));
              ("op_p90_ms", ms (Stats.quantile !edits 0.9));
              ("answers_per_s", float_of_int !answered /. Stats.sum !busy);
              ("op2_p50_ms", ms (Stats.median !reanswers));
              ("op3_p50_ms", ms (Stats.median !submits));
              ("op4_ms", ms (Stats.median !asks));
            ];
          report =
            [
              Printf.sprintf "serve-edit: %d edit steps, %d submissions, %d side asks" !step
                (List.length !submits) (List.length !asks);
              "daemon peak RSS after step: "
              ^ String.concat ", "
                  (List.rev_map (fun (k, mb) -> Printf.sprintf "%d: %.1f MiB" k mb) !rss_at);
              (let first, second =
                 List.partition (fun (i, _) -> i < List.length !edits / 2)
                   (List.mapi (fun i t -> (i, t)) (List.rev !edits))
               in
               Printf.sprintf "edit p50 over the first half of the window %.3f ms, second half %.3f ms"
                 (ms (Stats.median (List.map snd first))) (ms (Stats.median (List.map snd second))));
              Calib.describe cal;
            ];
        }
      end
      else begin
        until 0.5;
        let untraced = Stats.median !edits in
        edits := [];
        evicted := 0;
        retained := 0;
        Span.on := true;
        until 1.0;
        (* the submissions all land early in the window, so the layers
           they run through are probed afterwards, on the same texts *)
        Array.iter
          (fun (src : Corpus.program) ->
            let m = Span.with_ "ir.parse" (fun () -> Scaf_ir.Parser.parse src.Corpus.source) in
            ignore (Span.with_ "lint.run" (fun () -> Scaf_lint.Pass.run m));
            let p = Corpus.make src in
            ignore (Span.with_ "profile.run" (fun () -> Program.profiles p)))
          submissions;
        Span.on := false;
        let traced = Stats.median !edits in
        let n_edits = float_of_int (List.length !edits) in
        (* per-layer times are scaled by the run's median yardstick factor *)
        let f = Calib.median_factor cal in
        let med name = match Span.self_median name with Some v -> v *. f | None -> nan in
        let parts =
          [ ("suite.edit_apply", 1.0); ("profile.reprofile", 1.0); ("incremental.fingerprint", 2.0);
            ("incremental.components", 1.0); ("incremental.invalidate", 1.0);
            ("incremental.rebuild", 1.0) ]
        in
        let share =
          List.map
            (fun (n, k) ->
              Printf.sprintf "  %-26s %7.3f ms  %5.1f%% of edit p50" n (ms (k *. med n))
                (100.0 *. k *. med n /. traced))
            parts
        in
        {
          Run.ops;
          metrics =
            [
              ("suite.edit_apply_ms", ms (med "suite.edit_apply"));
              ("profile.reprofile_ms", ms (med "profile.reprofile"));
              ("incremental.fingerprint_ms", ms (med "incremental.fingerprint"));
              ("incremental.components_ms", ms (med "incremental.components"));
              ("incremental.invalidate_ms", ms (med "incremental.invalidate"));
              ("incremental.rebuild_ms", ms (med "incremental.rebuild"));
              ("incremental.reanswer_ms", ms (med "incremental.reanswer"));
              ("incremental.recomputed_pct", Stats.median !recomputed);
              ("incremental.evicted", float_of_int !evicted /. n_edits);
              ("incremental.retained", float_of_int !retained /. n_edits);
              ("ir.parse_ms", ms (med "ir.parse"));
              ("lint.run_ms", ms (med "lint.run"));
              ("profile.run_ms", ms (med "profile.run"));
            ];
          report =
            Run.span_report ~e2e:[]
            @ (Printf.sprintf "edit p50 %.3f ms over the wire; the same edit in-process, by step:"
                 (ms traced)
              :: share)
            @ [
                Calib.describe cal;
                Printf.sprintf "tracing overhead: edit p50 %.3f ms traced vs %.3f ms untraced (%+.1f%%)"
                  (ms traced) (ms untraced)
                  (100.0 *. ((traced /. untraced) -. 1.0));
              ];
        }
      end)
