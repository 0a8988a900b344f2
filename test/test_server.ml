(** Tests for the analysis-as-a-service layer ([lib/server]): the JSON
    codec, the length-prefixed wire protocol's edge cases (truncated
    prefix, oversized frame, malformed payload), the protocol codecs,
    the admission queue's watermark state machine, in-flight coalescing
    under concurrent clients (observable via the engine's counters), the
    deadline path, an end-to-end daemon round-trip, and the full server
    chaos matrix. *)

open Scaf_server

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* -- Json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\t\x01é");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.1);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
        ("nested", Json.Obj [ ("x", Json.Float 1e-300) ]);
      ]
  in
  let j' = Json.of_string (Json.to_string j) in
  checkb "round-trips structurally" true (j = j')

let test_json_float_bit_exact () =
  (* %.17g printing must round-trip every binary64 exactly: this is what
     makes the daemon's fig8 replay byte-identical to batch *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Float f' ->
          checkb (Printf.sprintf "%h survives" f) true (Int64.equal
            (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | _ -> Alcotest.fail "float did not parse back as Float")
    [ 0.1; 1.0 /. 3.0; 96.174999999999997; 1e300; -0.0; 4.9e-324 ]

let test_json_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "accepted malformed %S" s
      | exception Json.Parse_error _ -> ())
    [ "{nope"; "[1,]"; "\"unterminated"; "{\"a\":1} trailing"; ""; "nul" ]

(* Every parse error message is part of the wire contract (a [bad_request]
   reply carries it verbatim), so the table pins them exactly. *)
let test_json_error_messages () =
  List.iter
    (fun (input, msg) ->
      match Json.of_string input with
      | _ -> Alcotest.failf "accepted malformed %S" input
      | exception Json.Parse_error m -> checks (Printf.sprintf "%S" input) msg m)
    [
      ("{nope", "at 1: expected '\"', got 'n'");
      ("[1,]", "at 3: unexpected ']'");
      ("\"unterminated", "unterminated string");
      ("{\"a\":1} trailing", "at 8: trailing garbage after value");
      ("", "unexpected end of input");
      ("nul", "at 0: bad literal");
      ("   ", "unexpected end of input");
      ("tru", "at 0: bad literal");
      ("fals", "at 0: bad literal");
      ("nulx", "at 0: bad literal");
      ("[1 2]", "at 3: expected ',' or ']'");
      ("{\"a\" 1}", "at 5: expected ':', got '1'");
      ("{\"a\":1,}", "at 7: expected '\"', got '}'");
      ("{\"a\":1 \"b\":2}", "at 7: expected ',' or '}'");
      ("\"\\x\"", "at 2: bad escape");
      ("\"\\u12g4\"", "at 5: bad \\u escape");
      ("\"\\u12", "unterminated \\u escape");
      ("-", "at 0: bad number \"-\"");
      ("1.2.3", "at 0: bad number \"1.2.3\"");
      ("1e", "at 0: bad number \"1e\"");
      ("--1", "at 0: bad number \"--1\"");
      ("+1", "at 0: unexpected '+'");
      ("@", "at 0: unexpected '@'");
      ("[\"a\",]", "at 5: unexpected ']'");
      ("{1:2}", "at 1: expected '\"', got '1'");
      ("{\"a\":}", "at 5: unexpected '}'");
      ("\"abc\\", "at 5: bad escape");
      ("[1,2", "at 4: expected ',' or ']'");
      ("{\"a\":1", "at 6: expected ',' or '}'");
      ("[true false]", "at 6: expected ',' or ']'");
      ("1-2", "at 0: bad number \"1-2\"");
      ("{\"a\"", "at 4: expected ':', got end of input");
      ("{", "at 1: expected '\"', got end of input");
      ("[", "unexpected end of input");
      ("{\"a\":", "unexpected end of input");
      ("\"\\", "at 2: bad escape")
    ]

let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 10) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map Json.float float;
        map (fun s -> Json.String s) str;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 4)))) );
             ]))

(* emit then parse is the identity, from a string and in place from a
   longer buffer (the wire's reusable read buffer) *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"emit then parse is the identity" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j ->
      let s = Json.to_string j in
      let buf = Bytes.of_string (s ^ "}garbage") in
      Json.of_string s = j && Json.of_bytes buf (String.length s) = j)

(* -- Wire ----------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair (fun a b ->
      let j = Json.Obj [ ("op", Json.String "ping") ] in
      (match Wire.write_frame a j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" (Wire.error_to_string e));
      match Wire.read_frame b with
      | Ok j' -> checkb "frame round-trips" true (j = j')
      | Error e -> Alcotest.failf "read: %s" (Wire.error_to_string e))

(* One pair of buffers across frames that grow past the kept size and
   shrink again: each frame must read back exactly as written. *)
let test_wire_reused_buffers () =
  with_socketpair (fun a b ->
      let wbuf = Wire.buffers () and rbuf = Wire.buffers () in
      List.iter
        (fun n ->
          let j = Json.Obj [ ("pad", Json.String (String.make n 'x')) ] in
          (match Wire.write_frame ~buf:wbuf a j with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Wire.error_to_string e));
          match Wire.read_frame ~buf:rbuf b with
          | Ok j' -> checkb (Printf.sprintf "%d-byte frame" n) true (j = j')
          | Error e -> Alcotest.failf "read: %s" (Wire.error_to_string e))
        [ 10; 3000; 70_000; 5; 40_000; 0 ])

let test_wire_truncated_prefix () =
  (* peer dies after two bytes of the length prefix *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x00" 0 2);
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "parsed a frame from half a prefix"
      | Error e ->
          Alcotest.failf "expected Truncated, got %s" (Wire.error_to_string e))

let test_wire_truncated_payload () =
  with_socketpair (fun a b ->
      (* declare 10 payload bytes, deliver 3, hang up *)
      ignore (Unix.write_substring a "\x00\x00\x00\x0aabc" 0 7);
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "parsed a truncated payload"
      | Error e ->
          Alcotest.failf "expected Truncated, got %s" (Wire.error_to_string e))

let test_wire_oversized () =
  with_socketpair (fun a b ->
      (* a 256 MiB declaration must be rejected from the prefix alone,
         without the reader trying to buffer any payload *)
      ignore (Unix.write_substring a "\x10\x00\x00\x00" 0 4);
      match Wire.read_frame ~max_len:Wire.default_max_len b with
      | Error (Wire.Oversized n) -> checki "declared length" 0x10000000 n
      | Ok _ -> Alcotest.fail "accepted an oversized frame"
      | Error e ->
          Alcotest.failf "expected Oversized, got %s" (Wire.error_to_string e))

let test_wire_bad_json () =
  with_socketpair (fun a b ->
      let payload = "{broken" in
      let n = String.length payload in
      let prefix =
        Printf.sprintf "%c%c%c%c" '\x00' '\x00' '\x00' (Char.chr n)
      in
      ignore (Unix.write_substring a (prefix ^ payload) 0 (4 + n));
      match Wire.read_frame b with
      | Error (Wire.Bad_json _) -> ()
      | Ok _ -> Alcotest.fail "accepted broken JSON"
      | Error e ->
          Alcotest.failf "expected Bad_json, got %s" (Wire.error_to_string e))

let test_wire_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read_frame b with
      | Error Wire.Closed -> ()
      | Ok _ -> Alcotest.fail "read a frame from a closed peer"
      | Error e ->
          Alcotest.failf "expected Closed, got %s" (Wire.error_to_string e))

(* -- Protocol ------------------------------------------------------- *)

let wq = { Protocol.wloop = "main_loop"; wsrc = 3; wdst = 7; wcross = true }

let test_protocol_request_roundtrip () =
  List.iter
    (fun r ->
      let r' = Protocol.request_of_json (Protocol.request_to_json r) in
      checkb "request round-trips" true (r = r'))
    [
      Protocol.Hello { client = "t" };
      Protocol.Ping;
      Protocol.Ask { bench = "164.gzip"; q = wq; deadline_ms = Some 12.5 };
      Protocol.Ask { bench = "164.gzip"; q = wq; deadline_ms = None };
      Protocol.Ask_many
        { bench = "b"; qs = [ wq; { wq with Protocol.wcross = false } ];
          deadline_ms = None; stream = false };
      Protocol.Ask_many
        { bench = "b"; qs = [ wq ]; deadline_ms = Some 7.0; stream = true };
      Protocol.Cancel;
      Protocol.Queries { bench = "b" };
      Protocol.Report { bench = "b" };
      Protocol.Stats;
      Protocol.Shutdown;
    ]

let test_protocol_version_envelope () =
  (* every request envelope carries the protocol version, and the gate
     reads it back; a version-less envelope reads as a v1 client *)
  List.iter
    (fun r ->
      checkb "request carries v" true
        (Protocol.request_version (Protocol.request_to_json r)
        = Some Protocol.version))
    [ Protocol.Ping; Protocol.Cancel; Protocol.Stats ];
  checki "current version" 2 Protocol.version;
  checkb "missing v reads as pre-versioned" true
    (Protocol.request_version (Json.Obj [ ("op", Json.String "ping") ]) = None);
  let e = Protocol.version_mismatch ~got:(Some 99) in
  checks "code" "version_mismatch" e.Protocol.code;
  checkb "not retryable" false e.Protocol.retryable;
  (* the message must be actionable: name both versions and say what to
     do about it *)
  checkb "message names both versions" true
    (let mem sub s =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     mem "99" e.Protocol.msg && mem "2" e.Protocol.msg
     && mem "rebuild" e.Protocol.msg)

let test_protocol_stream_frames () =
  let a =
    {
      Protocol.a_result = "ModRef";
      a_nodep = false;
      a_cost = 3.5;
      a_options = 2;
      a_unconditional = true;
      a_provenance = [ "shape" ];
      a_degraded = None;
      a_coalesced = false;
    }
  in
  let reparse j = Json.of_string (Json.to_string j) in
  (match Protocol.stream_frame_of_json (reparse (Protocol.stream_item_to_json 4 a)) with
  | Protocol.Sitem (4, a') -> checkb "item round-trips" true (a = a')
  | _ -> Alcotest.fail "item frame did not parse as Sitem 4");
  checkb "heartbeat recognized" true
    (Protocol.is_heartbeat (reparse Protocol.stream_heartbeat_json));
  (match Protocol.stream_frame_of_json (reparse Protocol.stream_heartbeat_json) with
  | Protocol.Sheartbeat -> ()
  | _ -> Alcotest.fail "heartbeat frame did not parse as Sheartbeat");
  let s = { Protocol.st_count = 9; st_shed = 2; st_cancelled = true } in
  (match Protocol.stream_frame_of_json (reparse (Protocol.stream_end_to_json s)) with
  | Protocol.Send s' -> checkb "summary round-trips" true (s = s')
  | _ -> Alcotest.fail "end frame did not parse as Send");
  match
    Protocol.stream_frame_of_json (Protocol.ok [ ("pong", Json.Bool true) ])
  with
  | Protocol.Snot_stream -> ()
  | _ -> Alcotest.fail "plain reply misread as a stream frame"

let test_protocol_unknown_op () =
  match Protocol.request_of_json (Json.Obj [ ("op", Json.String "nope") ]) with
  | _ -> Alcotest.fail "accepted unknown op"
  | exception Json.Parse_error _ -> ()

let test_protocol_answer_roundtrip () =
  let a =
    {
      Protocol.a_result = "NoModRef";
      a_nodep = true;
      a_cost = 12.25;
      a_options = 3;
      a_unconditional = false;
      a_provenance = [ "points-to"; "read-only" ];
      a_degraded = Some "load_shed:cheap-modules";
      a_coalesced = true;
    }
  in
  let a' = Protocol.answer_of_json (Protocol.answer_to_json a) in
  checkb "answer round-trips" true (a = a')

let test_protocol_err_envelope () =
  let e = Protocol.overloaded ~retry_after_ms:50.0 in
  match Protocol.open_envelope (Json.of_string
    (Json.to_string (Protocol.err_to_json e))) with
  | Error e' ->
      checks "code" "overloaded" e'.Protocol.code;
      checkb "retryable" true e'.Protocol.retryable;
      checkb "hint" true (e'.Protocol.retry_after_ms = Some 50.0)
  | Ok _ -> Alcotest.fail "error envelope opened as ok"

(* -- Admission ------------------------------------------------------ *)

let adm_config =
  {
    Admission.capacity = 4;
    cheap_watermark = 1;
    cache_watermark = 2;
    retry_after_ms = 25.0;
  }

let test_admission_watermarks () =
  let q = Admission.create adm_config in
  (* queue depth at each submission decides that job's degrade level *)
  (match Admission.submit q 0 with
  | Admission.Admitted Admission.Full -> ()
  | _ -> Alcotest.fail "depth 0 must admit Full");
  (match Admission.submit q 1 with
  | Admission.Admitted Admission.Cheap -> ()
  | _ -> Alcotest.fail "depth 1 >= cheap_watermark must shed to Cheap");
  (match Admission.submit q 2 with
  | Admission.Admitted Admission.Cached_only -> ()
  | _ -> Alcotest.fail "depth 2 >= cache_watermark must shed to Cached_only");
  (match Admission.submit q 3 with
  | Admission.Admitted Admission.Cached_only -> ()
  | _ -> Alcotest.fail "depth 3 still admits Cached_only");
  (match Admission.submit q 4 with
  | Admission.Overloaded hint ->
      checkb "retry-after hint" true (hint = 25.0)
  | _ -> Alcotest.fail "at capacity must reject");
  let s = Admission.stats q in
  checki "depth" 4 s.Admission.depth;
  checki "admitted full" 1 s.Admission.admitted_full;
  checki "shed cheap" 1 s.Admission.shed_cheap;
  checki "shed cached" 2 s.Admission.shed_cached;
  checki "rejected" 1 s.Admission.rejected;
  checks "state" "rejecting" (Admission.state_name q)

let test_admission_close_drains () =
  let q = Admission.create adm_config in
  ignore (Admission.submit q 10);
  ignore (Admission.submit q 11);
  Admission.close q;
  (* already-admitted jobs still drain after close ... *)
  checkb "drains first" true
    (match Admission.pop q with Some (10, _) -> true | _ -> false);
  checkb "drains second" true
    (match Admission.pop q with Some (11, _) -> true | _ -> false);
  (* ... then pop returns None instead of blocking forever *)
  checkb "then None" true (Admission.pop q = None);
  (match Admission.submit q 12 with
  | Admission.Closed -> ()
  | _ -> Alcotest.fail "closed queue must refuse new work");
  checks "state" "closed" (Admission.state_name q)

let test_admission_pop_blocks_until_submit () =
  let q = Admission.create adm_config in
  let got = ref None in
  let t = Thread.create (fun () -> got := Admission.pop q) () in
  Thread.delay 0.05;
  ignore (Admission.submit q 99);
  Thread.join t;
  checkb "woken with the job" true
    (match !got with Some (99, _) -> true | _ -> false)

(* -- Engine: coalescing, shedding, deadlines ------------------------ *)

let bench_name = "052.alvinn"

let shared_engine =
  (* loading + profiling once for all engine tests; [wrap] adds a small
     per-module delay so concurrent identical queries overlap in flight *)
  lazy
    (let wrap mods =
       List.map
         (fun m ->
           let open Scaf in
           {
             m with
             Module_api.answer =
               (fun mctx q ->
                 Thread.delay 0.002;
                 m.Module_api.answer mctx q);
           })
         mods
     in
     let b =
       match Scaf_suite.Registry.find bench_name with
       | Some b -> b
       | None -> Alcotest.failf "missing benchmark %s" bench_name
     in
     Engine.create ~wrap ~benchmarks:[ b ] ())

let first_query eng =
  let b = Engine.find_bench eng bench_name |> Option.get in
  match
    Engine.queries_json b
    |> Json.mem_or "loops" ~default:Json.Null
  with
  | Json.List (first_loop :: _) -> (
      match
        Json.mem_or "queries" ~default:Json.Null first_loop
      with
      | Json.List (q :: _) -> Protocol.query_of_json q
      | _ -> Alcotest.fail "loop has no queries")
  | _ -> Alcotest.fail "no loops"

let test_engine_coalescing () =
  let eng = Lazy.force shared_engine in
  let b = Engine.find_bench eng bench_name |> Option.get in
  let q = first_query eng in
  let before = Engine.coalesced_count eng in
  let results = Array.make 8 None in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            let w = Engine.worker eng in
            results.(i) <-
              Some (Engine.answer w ~degrade:Admission.Full ~deadline:None b q))
          ())
  in
  Array.iter Thread.join threads;
  let answers =
    Array.to_list results |> List.filter_map Fun.id
  in
  checki "all eight answered" 8 (List.length answers);
  (* identical concurrent queries must agree ... *)
  let r0 = (List.hd answers).Protocol.a_result in
  List.iter
    (fun (a : Protocol.answer) ->
      checks "answers agree" r0 a.Protocol.a_result;
      checkb "none degraded" true (a.Protocol.a_degraded = None))
    answers;
  (* ... and at least one must have ridden another's in-flight
     evaluation: the flight table, not just the cache, absorbed the
     hammering (visible as either a coalesced answer or a cache hit) *)
  let coalesced = Engine.coalesced_count eng - before in
  let cache_hits =
    (Scaf.Qcache.snapshot b.Engine.cache).Scaf.Qcache.Snapshot.hits
  in
  checkb "hammering was absorbed" true (coalesced > 0 || cache_hits > 0)

let test_engine_shed_cached_only () =
  let eng = Lazy.force shared_engine in
  let b = Engine.find_bench eng bench_name |> Option.get in
  let w = Engine.worker eng in
  let q = { (first_query eng) with Protocol.wsrc = 0; wdst = 0 } in
  let a = Engine.answer w ~degrade:Admission.Cached_only ~deadline:None b q in
  (match a.Protocol.a_degraded with
  | Some ("load_shed:cached" | "load_shed:cached-miss") -> ()
  | other ->
      Alcotest.failf "expected a load_shed:cached tag, got %s"
        (Option.value ~default:"<none>" other));
  (* a cached-only miss answers bottom: sound, never fabricated *)
  if a.Protocol.a_degraded = Some "load_shed:cached-miss" then
    checkb "miss answers bottom (no nodep claim)" false a.Protocol.a_nodep

let test_engine_shed_cheap () =
  let eng = Lazy.force shared_engine in
  let b = Engine.find_bench eng bench_name |> Option.get in
  let w = Engine.worker eng in
  let a =
    Engine.answer w ~degrade:Admission.Cheap ~deadline:None b (first_query eng)
  in
  checkb "tagged cheap-modules" true
    (a.Protocol.a_degraded = Some "load_shed:cheap-modules")

let test_engine_deadline_expired () =
  let eng = Lazy.force shared_engine in
  let b = Engine.find_bench eng bench_name |> Option.get in
  let w = Engine.worker eng in
  let q = { (first_query eng) with Protocol.wcross = false } in
  let expired = Unix.gettimeofday () -. 1.0 in
  let a = Engine.answer w ~degrade:Admission.Full ~deadline:(Some expired) b q in
  checkb "tagged deadline" true (a.Protocol.a_degraded = Some "deadline")

(* -- Allocation on the warm path ------------------------------------- *)

(* Minor words allocated by [f ()], net of the measurement's own cost.
   Allocation counts are deterministic, so these bounds cannot flake. *)
let minor_words_of (f : unit -> unit) : float =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let overhead = w1 -. w0 in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. overhead

let workload_queries (b : Engine.bench) : Protocol.wire_query list =
  match Json.mem_or "loops" ~default:Json.Null (Engine.queries_json b) with
  | Json.List loops ->
      List.concat_map
        (fun l ->
          match Json.mem_or "queries" ~default:Json.Null l with
          | Json.List qs -> List.map Protocol.query_of_json qs
          | _ -> [])
        loops
  | _ -> []

let test_warm_answer_allocation () =
  let eng = Engine.create ~benchmarks:(Scaf_suite.Registry.all ()) () in
  let w = Engine.worker eng in
  let work =
    List.filter_map
      (fun name ->
        Option.map
          (fun b -> (b, workload_queries b))
          (Engine.find_bench eng name))
      (Engine.bench_names eng)
  in
  let pass () =
    List.iter
      (fun (b, qs) ->
        List.iter
          (fun q ->
            ignore
              (Engine.answer w ~degrade:Admission.Full ~deadline:None b q
                : Protocol.answer))
          qs)
      work
  in
  pass () (* fill the caches *);
  let n = List.fold_left (fun acc (_, qs) -> acc + List.length qs) 0 work in
  let per_answer = minor_words_of pass /. float_of_int n in
  checkb
    (Printf.sprintf "warm answer allocates %.0f words (bound 400) over %d"
       per_answer n)
    true
    (n > 0 && per_answer <= 400.0)

let test_collector_depth0_hit_allocation () =
  let c = Scaf_incremental.Collector.create ~funcs_of:(fun _ -> []) in
  let ev =
    Scaf.Depsink.Hit
      {
        depth = 0;
        q =
          Scaf.Query.modref_instrs ~loop:"main:L" ~tr:Scaf.Query.Before 1 2;
      }
  in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          Scaf_incremental.Collector.on_event c ev
        done)
  in
  checkb (Printf.sprintf "depth-0 hit allocates %.0f words" words) true
    (words = 0.0)

(* -- Daemon e2e ----------------------------------------------------- *)

let scratch_sock () =
  Filename.temp_file "scaf-test" ".sock" |> fun p ->
  Sys.remove p;
  p

let test_daemon_end_to_end () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let cfg =
    { (Daemon.default_config ~socket_path:sock ()) with
      Daemon.benchmarks = [ b ] }
  in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let c, benches = Client.connect ~name:"test" sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          checkb "hello lists the benchmark" true (benches = [ bench_name ]);
          Client.ping c;
          let qs = Client.queries c ~bench:bench_name in
          checkb "has hot loops" true (qs <> []);
          let loop, _, wqs = List.hd qs in
          let a = Client.ask c ~bench:bench_name
              { (List.hd wqs) with Protocol.wloop = loop } in
          checkb "answered undegraded" true (a.Protocol.a_degraded = None);
          (* stats must expose the daemon health counters *)
          let st = Client.stats c in
          let requests =
            Json.mem_or "metrics" ~default:Json.Null st
            |> Json.mem_or "counters" ~default:Json.Null
            |> Json.int_member "server.requests"
          in
          checkb "metrics count requests" true (requests > 0);
          checks "admission state" "accepting"
            (Json.mem_or "admission" ~default:Json.Null st
            |> Json.string_member "state")))

(* The incremental wire path: a client commits an edit to the daemon's
   resident program; the daemon invalidates, bumps the epoch, and keeps
   answering — no restart, no reload. *)
let test_daemon_edit_roundtrip () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let cfg =
    { (Daemon.default_config ~socket_path:sock ()) with
      Daemon.benchmarks = [ b ] }
  in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let c, _ = Client.connect ~name:"edit-test" sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ask_all () =
            List.concat_map
              (fun (loop, _, wqs) ->
                List.map
                  (fun wq ->
                    Client.ask c ~bench:bench_name
                      { wq with Protocol.wloop = loop })
                  wqs)
              (Client.queries c ~bench:bench_name)
          in
          let before = ask_all () in
          checkb "workload answered" true (before <> []);
          let r = Client.edit c ~bench:bench_name [ Protocol.WAuto ] in
          checki "edit bumps the epoch" 1 r.Protocol.e_epoch;
          checkb "edit names a touched function" true
            (r.Protocol.e_touched_funcs <> []);
          checkb "invalidation retained entries" true (r.Protocol.e_retained > 0);
          checkb "invalidation evicted entries" true (r.Protocol.e_evicted > 0);
          let after = ask_all () in
          checki "same workload shape after edit" (List.length before)
            (List.length after);
          List.iter
            (fun (a : Protocol.answer) ->
              checkb "post-edit answers undegraded" true
                (a.Protocol.a_degraded = None))
            after;
          (* a second edit round-trips against the already-edited program *)
          let r2 = Client.edit c ~bench:bench_name [ Protocol.WAuto ] in
          checki "second edit reaches epoch 2" 2 r2.Protocol.e_epoch))

(* -- Journal: crash-durable submissions ----------------------------- *)

let scratch_dir () =
  let p = Filename.temp_file "scaf-journal" ".d" in
  Sys.remove p;
  p

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let sample_program () =
  let p = Scaf_suite.Registry.find "164.gzip" |> Option.get in
  {
    Protocol.wp_id = "user.gzip";
    wp_source = Scaf_suite.Program.source p;
    wp_train = Some (Scaf_suite.Program.train_inputs p);
    wp_ref = Some (Scaf_suite.Program.ref_input p);
  }

let test_journal_roundtrip () =
  let dir = scratch_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j, entries, rec0 = Journal.open_and_replay ~dir in
      checkb "fresh journal is empty" true (entries = []);
      checki "nothing replayed" 0 rec0.Journal.replayed;
      let sub = Journal.Submit (sample_program ()) in
      let ed =
        Journal.Edit { bench = "user.gzip"; edits = [ Protocol.WAuto ] }
      in
      Journal.append j sub;
      Journal.append j ed;
      checki "two entries live" 2 (Journal.entries j);
      Journal.close j;
      (* reopen: both entries come back, in order, structurally equal *)
      let j2, entries2, rec2 = Journal.open_and_replay ~dir in
      checki "recovered both" 2 rec2.Journal.replayed;
      checki "no torn tail" 0 rec2.Journal.truncated_bytes;
      checkb "entries survive byte-exactly" true (entries2 = [ sub; ed ]);
      Journal.close j2)

let test_journal_torn_tail () =
  let dir = scratch_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let j, _, _ = Journal.open_and_replay ~dir in
      let sub = Journal.Submit (sample_program ()) in
      Journal.append j sub;
      Journal.close j;
      let path = Filename.concat dir "submits.journal" in
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* a kill -9 mid-append leaves half a record: complete entry plus
         a torn prefix of the next *)
      Out_channel.with_open_gen
        [ Open_wronly; Open_append; Open_binary ]
        0o644 path
        (fun oc -> Out_channel.output_string oc "\x00\x00\x01\x00torn");
      let j2, entries2, rec2 = Journal.open_and_replay ~dir in
      checki "whole entry recovered" 1 rec2.Journal.replayed;
      checki "torn tail measured" 8 rec2.Journal.truncated_bytes;
      checkb "entry intact" true (entries2 = [ sub ]);
      (* the open truncated the file back to the last whole record and
         the journal keeps appending from there *)
      Journal.append j2 sub;
      Journal.close j2;
      let healed = In_channel.with_open_bin path In_channel.input_all in
      checki "file = two whole records" (2 * String.length whole)
        (String.length healed);
      (* a corrupted checksum also stops the scan at the damage *)
      Out_channel.with_open_gen
        [ Open_wronly; Open_binary ] 0o644 path
        (fun oc ->
          Out_channel.seek oc (Int64.of_int (String.length whole + 12));
          Out_channel.output_char oc '\xff');
      let j3, entries3, _ = Journal.open_and_replay ~dir in
      checkb "scan stops at the corrupt record" true (entries3 = [ sub ]);
      Journal.close j3)

(* -- Outbox: streaming backpressure --------------------------------- *)

let stub_answer =
  {
    Protocol.a_result = "ModRef";
    a_nodep = false;
    a_cost = 1.0;
    a_options = 1;
    a_unconditional = false;
    a_provenance = [];
    a_degraded = None;
    a_coalesced = false;
  }

let test_outbox_backpressure () =
  let ob = Daemon.outbox_create ~cap:2 ~grace:0.3 in
  (* under capacity: pushes return immediately *)
  (match Daemon.outbox_push ob (0, stub_answer) with
  | `Ok w -> checkb "first push immediate" true (w < 0.05)
  | _ -> Alcotest.fail "first push must succeed");
  (match Daemon.outbox_push ob (1, stub_answer) with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "second push must succeed");
  (* full + no consumer: the producer waits out the grace, then gives
     up — this is the slow-consumer shed-or-disconnect path *)
  let t0 = Unix.gettimeofday () in
  (match Daemon.outbox_push ob (2, stub_answer) with
  | `Overrun -> checkb "waited out the grace" true (Unix.gettimeofday () -. t0 >= 0.25)
  | _ -> Alcotest.fail "push into a dead-full outbox must overrun");
  (* a consumer draining unblocks the producer *)
  (match Daemon.outbox_take ob ~max_wait:0.1 with
  | `Item (0, _) -> ()
  | _ -> Alcotest.fail "take must pop in order");
  (match Daemon.outbox_push ob (2, stub_answer) with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "push after a drain must succeed");
  (* finish: the consumer drains the buffer, then sees Done *)
  Daemon.outbox_finish ob;
  (match Daemon.outbox_take ob ~max_wait:0.1 with
  | `Item (1, _) -> ()
  | _ -> Alcotest.fail "buffered items drain after finish");
  (match Daemon.outbox_take ob ~max_wait:0.1 with
  | `Item (2, _) -> ()
  | _ -> Alcotest.fail "buffered items drain after finish");
  (match Daemon.outbox_take ob ~max_wait:0.1 with
  | `Done -> ()
  | _ -> Alcotest.fail "empty finished outbox must report Done")

let test_outbox_cancel_stops_producer () =
  let ob = Daemon.outbox_create ~cap:1 ~grace:5.0 in
  (match Daemon.outbox_push ob (0, stub_answer) with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "first push must succeed");
  (* client cancels while the outbox is full: the producer must stop
     immediately instead of waiting out the (long) grace *)
  let t =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Daemon.outbox_cancel ob)
      ()
  in
  let t0 = Unix.gettimeofday () in
  (match Daemon.outbox_push ob (1, stub_answer) with
  | `Stopped -> checkb "stopped promptly, not after grace" true
      (Unix.gettimeofday () -. t0 < 1.0)
  | _ -> Alcotest.fail "push after cancel must stop");
  Thread.join t;
  (* an aborted stream surfaces its error to the consumer *)
  let ob2 = Daemon.outbox_create ~cap:1 ~grace:0.1 in
  Daemon.outbox_finish ~err:(Protocol.stream_overrun ~retry_after_ms:50.0) ob2;
  match Daemon.outbox_take ob2 ~max_wait:0.1 with
  | `Err e ->
      checks "overrun code" "stream_overrun" e.Protocol.code;
      checkb "overrun is retryable" true e.Protocol.retryable
  | _ -> Alcotest.fail "aborted outbox must surface the error"

(* Two threads hand 64 items through a cap-8 outbox. Grace and max_wait
   are far beyond the hand-off's milliseconds, so every wait must end by a
   wakeup; a lost one shows as a wait that ended by its timeout (after
   10 s), never as a flaky pass. *)
let test_outbox_handoff_no_timeouts () =
  let ob = Daemon.outbox_create ~cap:8 ~grace:10.0 in
  let pushed = ref 0 in
  let producer =
    Thread.create
      (fun () ->
        for i = 0 to 63 do
          match Daemon.outbox_push ob (i, stub_answer) with
          | `Ok _ -> incr pushed
          | `Overrun | `Stopped -> ()
        done;
        Daemon.outbox_finish ob;
        Daemon.outbox_release ob)
      ()
  in
  let rec consume acc =
    match Daemon.outbox_take ob ~max_wait:10.0 with
    | `Item (i, _) -> consume (i :: acc)
    | `Done -> List.rev acc
    | _ -> Alcotest.fail "take ended without an item or Done"
  in
  let got = consume [] in
  Thread.join producer;
  checki "every push accepted" 64 !pushed;
  Alcotest.(check (list int)) "order kept" (List.init 64 Fun.id) got;
  checki "no wait ended by its timeout" 0 (Daemon.outbox_timeouts ob);
  Daemon.outbox_release ob

(* -- Daemon: TCP transport, streaming, version gate, durability ----- *)

let daemon_cfg ?tcp ?state_dir ?(benchmarks = []) sock =
  let base = Daemon.default_config ~socket_path:sock () in
  { base with Daemon.benchmarks; tcp; state_dir }

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* 200 in-process streams — completed, cancelled after the first item,
   and consumers that vanish after the first item — must leave no fd
   behind once the daemon has stopped: every outbox's wake pipe is closed
   by whichever of its producer and consumer lets go last. *)
let test_outbox_fds_released () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let before = open_fds () in
  let d = Daemon.start (daemon_cfg ~benchmarks:[ b ] sock) in
  let opened =
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
        let c, _ = Client.connect ~name:"fd-test" sock in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let qs =
              List.concat_map
                (fun (loop, _, wqs) ->
                  List.map (fun q -> { q with Protocol.wloop = loop }) wqs)
                (Client.queries c ~bench:bench_name)
              |> List.filteri (fun i _ -> i < 12)
            in
            let vanish () =
              let fd = Addr.connect (Addr.Unix_path sock) in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  let req =
                    Protocol.Ask_many
                      { bench = bench_name; qs; deadline_ms = None; stream = true }
                  in
                  ignore (Wire.write_frame fd (Protocol.request_to_json req));
                  let rec to_first_item () =
                    match Wire.read_frame fd with
                    | Ok j -> (
                        match Protocol.stream_frame_of_json j with
                        | Protocol.Sitem _ -> ()
                        | Protocol.Sheartbeat -> to_first_item ()
                        | _ -> Alcotest.fail "stream ended before an item")
                    | Error e -> Alcotest.fail (Wire.error_to_string e)
                  in
                  to_first_item ())
            in
            for i = 1 to 200 do
              match i mod 5 with
              | 0 -> vanish ()
              | 1 ->
                  let _, summary =
                    Client.ask_stream ~on_item:(fun _ _ -> `Cancel) c
                      ~bench:bench_name qs
                  in
                  ignore summary
              | _ ->
                  let answers, _ = Client.ask_stream c ~bench:bench_name qs in
                  checki "stream complete" (List.length qs) (List.length answers)
            done;
            let transport = Json.mem_or "transport" ~default:Json.Null (Client.stats c) in
            Json.int_member "streams_opened" transport))
  in
  checki "every stream opened" 200 opened;
  checki "open fds back where they started" before (open_fds ())

let test_daemon_tcp_transport () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let cfg = daemon_cfg ~tcp:"127.0.0.1:0" ~benchmarks:[ b ] sock in
  let d = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let tcp_ep =
        match Daemon.tcp_endpoint d with
        | Some ep -> ep
        | None -> Alcotest.fail "daemon did not bind its TCP listener"
      in
      checkb "ephemeral port resolved" true
        (not (String.ends_with ~suffix:":0" tcp_ep));
      (* the same query over both transports must answer byte-identically *)
      let ask_over ep =
        let c, benches = Client.connect ~name:"transport-test" ep in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            checkb "hello lists the benchmark" true (benches = [ bench_name ]);
            let loop, _, wqs = List.hd (Client.queries c ~bench:bench_name) in
            Protocol.render_answer
              (Client.ask c ~bench:bench_name
                 { (List.hd wqs) with Protocol.wloop = loop }))
      in
      checks "tcp answer = unix answer" (ask_over sock) (ask_over tcp_ep))

let test_daemon_stream_identical () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let d = Daemon.start (daemon_cfg ~benchmarks:[ b ] sock) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let c, _ = Client.connect ~name:"stream-test" sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let qs =
            List.concat_map
              (fun (loop, _, wqs) ->
                List.map (fun q -> { q with Protocol.wloop = loop }) wqs)
              (Client.queries c ~bench:bench_name)
          in
          checkb "workload nonempty" true (qs <> []);
          let batch = Client.ask_many c ~bench:bench_name qs in
          let streamed, summary = Client.ask_stream c ~bench:bench_name qs in
          checki "summary counts every answer" (List.length qs)
            summary.Protocol.st_count;
          checkb "not cancelled" false summary.Protocol.st_cancelled;
          List.iter2
            (fun (x : Protocol.answer) (y : Protocol.answer) ->
              checks "streamed = batched, byte for byte"
                (Protocol.render_answer x) (Protocol.render_answer y))
            batch streamed;
          (* the connection survives the stream: plain rpc still works *)
          Client.ping c;
          (* transport counters surface through ask stats *)
          let st = Client.stats c in
          let transport = Json.mem_or "transport" ~default:Json.Null st in
          checkb "stats counts streams" true
            (Json.int_member "streams_opened" transport >= 1);
          checkb "stats counts stream items" true
            (Json.int_member "stream_items" transport >= List.length qs)))

let test_daemon_version_gate () =
  let sock = scratch_sock () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let d = Daemon.start (daemon_cfg ~benchmarks:[ b ] sock) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let fd = Addr.connect (Addr.of_string sock) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let exchange payload =
            (match Wire.write_frame fd (Json.of_string payload) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "write: %s" (Wire.error_to_string e));
            match Wire.read_frame fd with
            | Ok j -> j
            | Error e -> Alcotest.failf "read: %s" (Wire.error_to_string e)
          in
          let expect_mismatch payload =
            match Protocol.open_envelope (exchange payload) with
            | Error e ->
                checks "code" "version_mismatch" e.Protocol.code;
                checkb "non-retryable" false e.Protocol.retryable
            | Ok _ -> Alcotest.failf "daemon accepted %s" payload
          in
          expect_mismatch {|{"v":99,"op":"ping"}|};
          expect_mismatch {|{"op":"ping"}|};
          (* the gate rejects the request, not the connection *)
          match Protocol.open_envelope (exchange {|{"v":2,"op":"ping"}|}) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "well-versioned ping rejected: %s"
              e.Protocol.msg))

let test_daemon_journal_recovery () =
  let sock = scratch_sock () in
  let dir = scratch_dir () in
  let b = Scaf_suite.Registry.find bench_name |> Option.get in
  let cfg = daemon_cfg ~state_dir:dir ~benchmarks:[ b ] sock in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* first life: submit a program, edit it, record its answers *)
      let ask_all c bench =
        List.concat_map
          (fun (loop, _, wqs) ->
            List.map
              (fun q ->
                Protocol.render_answer
                  (Client.ask c ~bench { q with Protocol.wloop = loop }))
              wqs)
          (Client.queries c ~bench)
      in
      let d1 = Daemon.start cfg in
      let before =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d1)
          (fun () ->
            let c, _ = Client.connect ~name:"durability" sock in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let r = Client.submit c (sample_program ()) in
                checks "registered under its id" "user.gzip"
                  r.Protocol.s_id;
                ignore (Client.edit c ~bench:"user.gzip" [ Protocol.WAuto ]);
                ask_all c "user.gzip"))
      in
      checkb "submitted program answered" true (before <> []);
      (* second life: same state dir, no submit — the journal replays
         the submit and the edit through the admission pipeline *)
      let d2 = Daemon.start cfg in
      let after =
        Fun.protect
          ~finally:(fun () -> Daemon.stop d2)
          (fun () ->
            let c, benches = Client.connect ~name:"durability-2" sock in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                checkb "recovered program is listed" true
                  (List.mem "user.gzip" benches);
                ask_all c "user.gzip"))
      in
      checkb "recovered answers byte-identical" true (before = after))

(* -- the full chaos matrix ------------------------------------------ *)

let test_server_chaos_matrix () =
  let outcomes = Scaf_faultinject.Server_chaos.run_server_chaos ~seed:2026 () in
  checkb "at least 20 scenarios" true (List.length outcomes >= 20);
  List.iter
    (fun (o : Scaf_faultinject.Server_chaos.server_outcome) ->
      if not o.Scaf_faultinject.Server_chaos.s_ok then
        Alcotest.failf "server chaos %s: %s"
          o.Scaf_faultinject.Server_chaos.s_scenario
          o.Scaf_faultinject.Server_chaos.s_detail)
    outcomes

(* Both transports through the byte-level chaos proxy: slow-loris,
   truncated frames, RST, duplicated bytes, mid-stream client death,
   version skew. Every scenario must end answered/rejected/expired. *)
let test_net_chaos_matrix () =
  let outcomes = Scaf_faultinject.Net_chaos.run_net_chaos ~seed:2026 () in
  let over prefix =
    List.exists
      (fun (o : Scaf_faultinject.Server_chaos.server_outcome) ->
        String.starts_with ~prefix o.Scaf_faultinject.Server_chaos.s_scenario)
      outcomes
  in
  checkb "matrix covers the unix transport" true (over "net/unix/");
  checkb "matrix covers the tcp transport" true (over "net/tcp/");
  List.iter
    (fun name ->
      checkb (name ^ " present on both transports") true
        (over ("net/unix/" ^ name) && over ("net/tcp/" ^ name)))
    [ "proxied-slow-loris"; "truncate-mid-frame"; "client-vanishes" ];
  List.iter
    (fun (o : Scaf_faultinject.Server_chaos.server_outcome) ->
      if not o.Scaf_faultinject.Server_chaos.s_ok then
        Alcotest.failf "net chaos %s: %s"
          o.Scaf_faultinject.Server_chaos.s_scenario
          o.Scaf_faultinject.Server_chaos.s_detail)
    outcomes

let suite =
  [
    ( "server-json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "float bit-exact" `Quick test_json_float_bit_exact;
        Alcotest.test_case "malformed rejected" `Quick test_json_malformed;
        Alcotest.test_case "error messages" `Quick test_json_error_messages;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
      ] );
    ( "server-wire",
      [
        Alcotest.test_case "frame round-trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "reused buffers round-trip" `Quick
          test_wire_reused_buffers;
        Alcotest.test_case "truncated prefix" `Quick test_wire_truncated_prefix;
        Alcotest.test_case "truncated payload" `Quick
          test_wire_truncated_payload;
        Alcotest.test_case "oversized rejected from prefix" `Quick
          test_wire_oversized;
        Alcotest.test_case "bad json payload" `Quick test_wire_bad_json;
        Alcotest.test_case "closed peer" `Quick test_wire_closed;
      ] );
    ( "server-protocol",
      [
        Alcotest.test_case "request round-trips" `Quick
          test_protocol_request_roundtrip;
        Alcotest.test_case "unknown op rejected" `Quick
          test_protocol_unknown_op;
        Alcotest.test_case "answer round-trips" `Quick
          test_protocol_answer_roundtrip;
        Alcotest.test_case "error envelope" `Quick test_protocol_err_envelope;
        Alcotest.test_case "version envelope + mismatch" `Quick
          test_protocol_version_envelope;
        Alcotest.test_case "stream frames" `Quick test_protocol_stream_frames;
      ] );
    ( "server-journal",
      [
        Alcotest.test_case "append/replay round-trip" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "torn tail truncated, then heals" `Quick
          test_journal_torn_tail;
      ] );
    ( "server-outbox",
      [
        Alcotest.test_case "backpressure: wait, overrun, drain" `Quick
          test_outbox_backpressure;
        Alcotest.test_case "cancel stops the producer" `Quick
          test_outbox_cancel_stops_producer;
        Alcotest.test_case "hand-off wakes, never times out" `Quick
          test_outbox_handoff_no_timeouts;
        Alcotest.test_case "200 streams release every fd" `Quick
          test_outbox_fds_released;
      ] );
    ( "server-admission",
      [
        Alcotest.test_case "watermark state machine" `Quick
          test_admission_watermarks;
        Alcotest.test_case "close drains then refuses" `Quick
          test_admission_close_drains;
        Alcotest.test_case "pop blocks until submit" `Quick
          test_admission_pop_blocks_until_submit;
      ] );
    ( "server-engine",
      [
        Alcotest.test_case "concurrent hammering coalesces" `Quick
          test_engine_coalescing;
        Alcotest.test_case "cached-only shedding" `Quick
          test_engine_shed_cached_only;
        Alcotest.test_case "cheap-modules shedding" `Quick
          test_engine_shed_cheap;
        Alcotest.test_case "expired deadline degrades" `Quick
          test_engine_deadline_expired;
        Alcotest.test_case "warm answer allocation bound" `Quick
          test_warm_answer_allocation;
        Alcotest.test_case "depth-0 collector hit allocates nothing" `Quick
          test_collector_depth0_hit_allocation;
      ] );
    ( "server-daemon",
      [
        Alcotest.test_case "end-to-end round-trip" `Quick
          test_daemon_end_to_end;
        Alcotest.test_case "edit round-trips without restart" `Quick
          test_daemon_edit_roundtrip;
        Alcotest.test_case "tcp transport answers byte-identically" `Quick
          test_daemon_tcp_transport;
        Alcotest.test_case "streamed ask_many = batched ask_many" `Quick
          test_daemon_stream_identical;
        Alcotest.test_case "version gate rejects skewed clients" `Quick
          test_daemon_version_gate;
        Alcotest.test_case "journal recovers submissions on restart" `Slow
          test_daemon_journal_recovery;
        Alcotest.test_case "chaos matrix all green" `Slow
          test_server_chaos_matrix;
        Alcotest.test_case "network chaos matrix all green" `Slow
          test_net_chaos_matrix;
      ] );
  ]
