(** The daemon's wire vocabulary: request and response values and their
    JSON codecs, shared by server and client so both sides round-trip
    through the same code (and so tests can exercise the codec without a
    socket).

    Every response is an object with an ["ok"] boolean. Failures carry a
    structured {!err} whose [retryable] flag tells a client whether backing
    off and retrying can help (admission rejection, shutting down) or
    cannot (unknown benchmark, malformed request). *)

(** Protocol version. Every request envelope carries it as ["v"]; the
    daemon refuses a mismatched (or missing) version with the structured,
    non-retryable [version_mismatch] error instead of a parse failure —
    an old client gets told {e what} is wrong, not just "bad request".

    History: v1 — PR 5's original request/response protocol (no version
    field); v2 — TCP transport, streaming [ask_many] replies, the
    [cancel] op, and the version field itself. *)
let version = 2

(* ------------------------------------------------------------------ *)
(* Queries on the wire                                                 *)
(* ------------------------------------------------------------------ *)

(** A PDG dependence query in wire form — exactly the client workload of
    [Scaf_pdg.Pdg]: may [src] (positioned cross- or intra-iteration) touch
    the footprint of [dst] within hot loop [loop]? *)
type wire_query = { wloop : string; wsrc : int; wdst : int; wcross : bool }

let query_to_json (q : wire_query) : Json.t =
  Json.Obj
    [
      ("loop", Json.String q.wloop);
      ("src", Json.Int q.wsrc);
      ("dst", Json.Int q.wdst);
      ("cross", Json.Bool q.wcross);
    ]

let query_of_json (j : Json.t) : wire_query =
  {
    wloop = Json.string_member "loop" j;
    wsrc = Json.int_member "src" j;
    wdst = Json.int_member "dst" j;
    wcross = Json.to_bool_exn (Json.mem_or "cross" ~default:(Json.Bool false) j);
  }

let to_core_query (q : wire_query) : Scaf.Query.t =
  Scaf_pdg.Pdg.to_query q.wloop
    { Scaf_pdg.Pdg.src = q.wsrc; dst = q.wdst; cross = q.wcross }

(* ------------------------------------------------------------------ *)
(* Diagnostics on the wire                                             *)
(* ------------------------------------------------------------------ *)

(** Lint diagnostics serialize whole — a rejected submission or edit
    carries its full report, so the client can render exactly what
    [scaf_eval lint] would have printed locally. *)
let diagnostic_to_json (d : Scaf_lint.Diagnostic.t) : Json.t =
  let open Scaf_lint.Diagnostic in
  let opt name = function
    | None -> []
    | Some s -> [ (name, Json.String s) ]
  in
  Json.Obj
    ([
       ("severity", Json.String (severity_name d.severity));
       ("code", Json.String d.code);
       ("pass", Json.String d.pass);
     ]
    @ opt "func" d.span.func @ opt "block" d.span.block
    @ opt "loop" d.span.loop
    @ (match d.span.instr with
      | None -> []
      | Some i -> [ ("instr", Json.Int i) ])
    @ [ ("msg", Json.String d.message) ])

let diagnostic_of_json (j : Json.t) : Scaf_lint.Diagnostic.t =
  let open Scaf_lint.Diagnostic in
  let severity =
    match severity_of_name (Json.string_member "severity" j) with
    | s -> s
    | exception Invalid_argument m -> raise (Json.Parse_error m)
  in
  {
    code = Json.string_member "code" j;
    severity;
    pass = Json.string_member "pass" j;
    span =
      {
        func = Json.string_member_opt "func" j;
        block = Json.string_member_opt "block" j;
        loop = Json.string_member_opt "loop" j;
        instr = Option.map Json.to_int_exn (Json.member "instr" j);
      };
    message = Json.string_member "msg" j;
  }

(* ------------------------------------------------------------------ *)
(* Programs on the wire                                                *)
(* ------------------------------------------------------------------ *)

(** A user-submitted program: MIR source plus optional training/reference
    inputs (defaulted server-side like any suite program). Inputs travel
    as decimal strings so int64 values survive the JSON float funnel. *)
type wire_program = {
  wp_id : string;  (** session-unique name the program registers under *)
  wp_source : string;  (** MIR text, [Scaf_ir.Parser] syntax *)
  wp_train : int64 array list option;
  wp_ref : int64 array option;
}

let int64s_to_json (a : int64 array) : Json.t =
  Json.List
    (List.map (fun v -> Json.String (Int64.to_string v)) (Array.to_list a))

let int64s_of_json (j : Json.t) : int64 array =
  Array.of_list
    (List.map
       (fun x ->
         match Int64.of_string_opt (Json.to_string_exn x) with
         | Some v -> v
         | None -> raise (Json.Parse_error "input: expected an int64 string"))
       (Json.to_list_exn j))

let program_to_json (p : wire_program) : Json.t =
  Json.Obj
    ([ ("id", Json.String p.wp_id); ("source", Json.String p.wp_source) ]
    @ (match p.wp_train with
      | None -> []
      | Some tr -> [ ("train", Json.List (List.map int64s_to_json tr)) ])
    @
    match p.wp_ref with
    | None -> []
    | Some r -> [ ("ref", int64s_to_json r) ])

let program_of_json (j : Json.t) : wire_program =
  {
    wp_id = Json.string_member "id" j;
    wp_source = Json.string_member "source" j;
    wp_train =
      Option.map
        (fun tj -> List.map int64s_of_json (Json.to_list_exn tj))
        (Json.member "train" j);
    wp_ref = Option.map int64s_of_json (Json.member "ref" j);
  }

(** What a successful submission registered: the static lint summary the
    admission decision was based on. *)
type submit_report = {
  s_id : string;
  s_loops : (string * int) list;  (** lid → statically estimated queries *)
  s_est_queries : int;  (** whole-program estimate (admission metric) *)
  s_warnings : int;  (** lint warnings (submission still accepted) *)
}

let submit_report_to_json (r : submit_report) : Json.t =
  Json.Obj
    [
      ("id", Json.String r.s_id);
      ( "loops",
        Json.List
          (List.map
             (fun (lid, est) ->
               Json.Obj [ ("loop", Json.String lid); ("est", Json.Int est) ])
             r.s_loops) );
      ("est_queries", Json.Int r.s_est_queries);
      ("warnings", Json.Int r.s_warnings);
    ]

let submit_report_of_json (j : Json.t) : submit_report =
  {
    s_id = Json.string_member "id" j;
    s_loops =
      List.map
        (fun lj -> (Json.string_member "loop" lj, Json.int_member "est" lj))
        (Json.to_list_exn (Json.mem_or "loops" ~default:(Json.List []) j));
    s_est_queries = Json.int_member "est_queries" j;
    s_warnings = Json.int_member "warnings" j;
  }

(* ------------------------------------------------------------------ *)
(* Edits on the wire                                                   *)
(* ------------------------------------------------------------------ *)

(** A structured program edit in wire form — the
    {!Scaf_suite.Edit.op} vocabulary plus [WAuto], the server-side
    scripted single-loop edit (the differential/CI workload's "small
    change to a big program"). *)
type wire_edit =
  | WInsert of { fname : string; block : string; at : int; text : string }
  | WDelete of { id : int }
  | WReplace of { lid : string; block : string; body : string }
  | WAuto

let edit_to_json (e : wire_edit) : Json.t =
  match e with
  | WInsert { fname; block; at; text } ->
      Json.Obj
        [
          ("kind", Json.String "insert");
          ("fname", Json.String fname);
          ("block", Json.String block);
          ("at", Json.Int at);
          ("text", Json.String text);
        ]
  | WDelete { id } ->
      Json.Obj [ ("kind", Json.String "delete"); ("id", Json.Int id) ]
  | WReplace { lid; block; body } ->
      Json.Obj
        [
          ("kind", Json.String "replace");
          ("lid", Json.String lid);
          ("block", Json.String block);
          ("body", Json.String body);
        ]
  | WAuto -> Json.Obj [ ("kind", Json.String "auto") ]

let edit_of_json (j : Json.t) : wire_edit =
  match Json.string_member "kind" j with
  | "insert" ->
      WInsert
        {
          fname = Json.string_member "fname" j;
          block = Json.string_member "block" j;
          at = Json.int_member "at" j;
          text = Json.string_member "text" j;
        }
  | "delete" -> WDelete { id = Json.int_member "id" j }
  | "replace" ->
      WReplace
        {
          lid = Json.string_member "lid" j;
          block = Json.string_member "block" j;
          body = Json.string_member "body" j;
        }
  | "auto" -> WAuto
  | k -> raise (Json.Parse_error (Printf.sprintf "unknown edit kind %S" k))

(** What an applied edit did: the new program epoch, the edit's reach, and
    the invalidation outcome over the benchmark's warm cache. *)
type edit_report = {
  e_epoch : int;
  e_touched_funcs : string list;
  e_touched_loops : string list;
  e_nodes : int;  (** provenance-graph nodes examined *)
  e_dirty : int;  (** nodes judged dirty *)
  e_evicted : int;  (** cache entries dropped *)
  e_retained : int;  (** cache entries carried to the new epoch *)
}

let edit_report_of (d : Scaf_suite.Edit.diff)
    (s : Scaf_incremental.Invalidate.stats) : edit_report =
  {
    e_epoch = d.Scaf_suite.Edit.epoch;
    e_touched_funcs = d.Scaf_suite.Edit.touched_funcs;
    e_touched_loops = d.Scaf_suite.Edit.touched_loops;
    e_nodes = s.Scaf_incremental.Invalidate.nodes;
    e_dirty = s.Scaf_incremental.Invalidate.dirty;
    e_evicted = s.Scaf_incremental.Invalidate.evicted;
    e_retained = s.Scaf_incremental.Invalidate.retained;
  }

let edit_report_to_json (r : edit_report) : Json.t =
  let strs l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("epoch", Json.Int r.e_epoch);
      ("touched_funcs", strs r.e_touched_funcs);
      ("touched_loops", strs r.e_touched_loops);
      ("nodes", Json.Int r.e_nodes);
      ("dirty", Json.Int r.e_dirty);
      ("evicted", Json.Int r.e_evicted);
      ("retained", Json.Int r.e_retained);
    ]

let edit_report_of_json (j : Json.t) : edit_report =
  let strs name =
    List.map Json.to_string_exn
      (Json.to_list_exn (Json.mem_or name ~default:(Json.List []) j))
  in
  {
    e_epoch = Json.int_member "epoch" j;
    e_touched_funcs = strs "touched_funcs";
    e_touched_loops = strs "touched_loops";
    e_nodes = Json.int_member "nodes" j;
    e_dirty = Json.int_member "dirty" j;
    e_evicted = Json.int_member "evicted" j;
    e_retained = Json.int_member "retained" j;
  }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of { client : string }
  | Ping
  | Ask of { bench : string; q : wire_query; deadline_ms : float option }
  | Ask_many of {
      bench : string;
      qs : wire_query list;
      deadline_ms : float option;
      stream : bool;
          (** [true]: the daemon frames each answer as it completes
              (ordered, index-tagged, closed by a summary frame) instead
              of one batched reply; the client may cancel mid-stream *)
    }
  | Cancel
      (** abandon the connection's in-flight streaming reply; outside a
          stream it is a harmless acknowledged no-op *)
  | Queries of { bench : string }  (** the PDG workload of a benchmark *)
  | Report of { bench : string }  (** the benchmark's Figure 8 row *)
  | Edit of { bench : string; edits : wire_edit list }
      (** commit an edit script to the resident program and invalidate —
          the daemon re-analyzes incrementally, it never restarts *)
  | Submit of { prog : wire_program }
      (** lint-gate and register a user program; on success it is
          queryable under [prog.wp_id] like any suite benchmark *)
  | Stats
  | Shutdown

let request_to_json (r : request) : Json.t =
  (* every request envelope leads with the protocol version *)
  let obj op rest =
    Json.Obj (("v", Json.Int version) :: ("op", Json.String op) :: rest)
  in
  let deadline = function
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.float ms) ]
  in
  match r with
  | Hello { client } -> obj "hello" [ ("client", Json.String client) ]
  | Ping -> obj "ping" []
  | Cancel -> obj "cancel" []
  | Ask { bench; q; deadline_ms } ->
      obj "ask"
        ([ ("bench", Json.String bench); ("query", query_to_json q) ]
        @ deadline deadline_ms)
  | Ask_many { bench; qs; deadline_ms; stream } ->
      obj "ask_many"
        ([
           ("bench", Json.String bench);
           ("queries", Json.List (List.map query_to_json qs));
         ]
        @ (if stream then [ ("stream", Json.Bool true) ] else [])
        @ deadline deadline_ms)
  | Queries { bench } -> obj "queries" [ ("bench", Json.String bench) ]
  | Report { bench } -> obj "report" [ ("bench", Json.String bench) ]
  | Edit { bench; edits } ->
      obj "edit"
        [
          ("bench", Json.String bench);
          ("edits", Json.List (List.map edit_to_json edits));
        ]
  | Submit { prog } -> obj "submit" [ ("program", program_to_json prog) ]
  | Stats -> obj "stats" []
  | Shutdown -> obj "shutdown" []

(** Raises [Json.Parse_error] on anything that is not a well-formed
    request — the daemon turns that into a non-retryable [bad_request]. *)
let request_of_json (j : Json.t) : request =
  let deadline_ms = Json.float_member_opt "deadline_ms" j in
  match Json.string_member "op" j with
  | "hello" ->
      Hello
        {
          client =
            Json.to_string_exn
              (Json.mem_or "client" ~default:(Json.String "?") j);
        }
  | "ping" -> Ping
  | "cancel" -> Cancel
  | "ask" ->
      let q =
        match Json.member "query" j with
        | Some qj -> query_of_json qj
        | None -> raise (Json.Parse_error "ask: missing field \"query\"")
      in
      Ask { bench = Json.string_member "bench" j; q; deadline_ms }
  | "ask_many" ->
      let qs =
        match Json.member "queries" j with
        | Some qj -> List.map query_of_json (Json.to_list_exn qj)
        | None -> raise (Json.Parse_error "ask_many: missing field \"queries\"")
      in
      Ask_many
        {
          bench = Json.string_member "bench" j;
          qs;
          deadline_ms;
          stream =
            Json.to_bool_exn
              (Json.mem_or "stream" ~default:(Json.Bool false) j);
        }
  | "queries" -> Queries { bench = Json.string_member "bench" j }
  | "report" -> Report { bench = Json.string_member "bench" j }
  | "edit" ->
      let edits =
        match Json.member "edits" j with
        | Some ej -> List.map edit_of_json (Json.to_list_exn ej)
        | None -> raise (Json.Parse_error "edit: missing field \"edits\"")
      in
      Edit { bench = Json.string_member "bench" j; edits }
  | "submit" -> (
      match Json.member "program" j with
      | Some pj -> Submit { prog = program_of_json pj }
      | None -> raise (Json.Parse_error "submit: missing field \"program\""))
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | op -> raise (Json.Parse_error (Printf.sprintf "unknown op %S" op))

(** The protocol version a raw request envelope declares; [None] when the
    field is absent (a pre-v2 client) or not an integer. Checked by the
    daemon {e before} the op is parsed, so a vocabulary drift between
    versions surfaces as [version_mismatch], never as a confusing parse
    error. *)
let request_version (j : Json.t) : int option =
  match Json.member "v" j with Some (Json.Int n) -> Some n | _ -> None

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

(** One resolved dependence query. [a_degraded] is the load-shedding /
    deadline tag when the answer is {e not} the full-collaboration one
    ([None] means full fidelity — byte-identical to batch evaluation);
    degraded answers are always sound, merely conservative. *)
type answer = {
  a_result : string;  (** the analysis result, e.g. ["NoModRef"] *)
  a_nodep : bool;  (** dependence disproven at an affordable cost *)
  a_cost : float;  (** validation cost of the cheapest option *)
  a_options : int;  (** size of the assertion-option disjunction *)
  a_unconditional : bool;  (** some option is literally assertion-free *)
  a_provenance : string list;  (** contributing modules *)
  a_degraded : string option;
  a_coalesced : bool;  (** shared an in-flight evaluation with a peer *)
}

let answer_of_response ?(degraded : string option) ?(coalesced = false)
    (resp : Scaf.Response.t) : answer =
  let opts = resp.Scaf.Response.options in
  {
    a_result = Scaf.Aresult.name resp.Scaf.Response.result;
    a_nodep = Scaf_pdg.Pdg.affordable_nodep resp;
    a_cost = Scaf.Response.Options.cheapest_cost opts;
    a_options = Scaf.Response.Options.count opts;
    a_unconditional = Scaf.Response.Options.has_unconditional opts;
    a_provenance =
      Scaf.Response.Sset.elements resp.Scaf.Response.provenance;
    a_degraded = degraded;
    a_coalesced = coalesced;
  }

let answer_to_json (a : answer) : Json.t =
  Json.Obj
    [
      ("result", Json.String a.a_result);
      ("nodep", Json.Bool a.a_nodep);
      ("cost", Json.float a.a_cost);
      ("options", Json.Int a.a_options);
      ("unconditional", Json.Bool a.a_unconditional);
      ("provenance", Json.List (List.map (fun s -> Json.String s) a.a_provenance));
      ( "degraded",
        match a.a_degraded with None -> Json.Null | Some s -> Json.String s );
      ("coalesced", Json.Bool a.a_coalesced);
    ]

let answer_of_json (j : Json.t) : answer =
  {
    a_result = Json.string_member "result" j;
    a_nodep = Json.to_bool_exn (Json.mem_or "nodep" ~default:(Json.Bool false) j);
    a_cost =
      Json.to_float_exn (Json.mem_or "cost" ~default:(Json.Float infinity) j);
    a_options = Json.int_member "options" j;
    a_unconditional =
      Json.to_bool_exn
        (Json.mem_or "unconditional" ~default:(Json.Bool false) j);
    a_provenance =
      List.map Json.to_string_exn
        (Json.to_list_exn (Json.mem_or "provenance" ~default:(Json.List []) j));
    a_degraded = Json.string_member_opt "degraded" j;
    a_coalesced =
      Json.to_bool_exn (Json.mem_or "coalesced" ~default:(Json.Bool false) j);
  }

(** The canonical one-line rendering of an answer's {e analysis} content —
    result, nodep verdict, cheapest cost ([%.17g], bit-exact across the
    wire), option count, unconditionality. Transport annotations
    (provenance, degradation, coalescing) are deliberately excluded, so a
    full-fidelity replayed answer renders byte-identically to the same
    query evaluated in-process. *)
let render_answer (a : answer) : string =
  (* costs pass through [Json.float]'s nan/inf clamping before printing,
     so the rendering of a local answer matches one that crossed the wire *)
  let cost =
    match Json.float a.a_cost with
    | Json.Float f -> Printf.sprintf "%.17g" f
    | _ -> "nan"
  in
  Printf.sprintf "%s nodep=%b cost=%s options=%d unconditional=%b" a.a_result
    a.a_nodep cost a.a_options a.a_unconditional

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type err = {
  code : string;
  msg : string;
  retryable : bool;
  retry_after_ms : float option;
      (** server-suggested backoff, on admission rejection *)
  diags : Scaf_lint.Diagnostic.t list;
      (** full lint report, on a rejected submission or edit *)
}

let err_to_json (e : err) : Json.t =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          ([
             ("code", Json.String e.code);
             ("msg", Json.String e.msg);
             ("retryable", Json.Bool e.retryable);
           ]
          @ (match e.retry_after_ms with
            | None -> []
            | Some ms -> [ ("retry_after_ms", Json.float ms) ])
          @
          match e.diags with
          | [] -> []
          | ds ->
              [ ("diagnostics", Json.List (List.map diagnostic_to_json ds)) ])
      );
    ]

let bad_request msg =
  {
    code = "bad_request";
    msg;
    retryable = false;
    retry_after_ms = None;
    diags = [];
  }

let unknown_bench bench =
  {
    code = "unknown_bench";
    msg = Printf.sprintf "no benchmark named %S" bench;
    retryable = false;
    retry_after_ms = None;
    diags = [];
  }

let overloaded ~retry_after_ms =
  {
    code = "overloaded";
    msg = "admission queue full";
    retryable = true;
    retry_after_ms = Some retry_after_ms;
    diags = [];
  }

let shutting_down =
  {
    code = "shutting_down";
    msg = "server is shutting down";
    retryable = true;
    retry_after_ms = Some 1000.0;
    diags = [];
  }

let internal msg =
  {
    code = "internal";
    msg;
    retryable = false;
    retry_after_ms = None;
    diags = [];
  }

(** A client speaking the wrong protocol version: non-retryable (retrying
    the same bytes cannot help) with a message naming both versions and
    the fix. *)
let version_mismatch ~(got : int option) =
  {
    code = "version_mismatch";
    msg =
      Printf.sprintf
        "client speaks protocol %s but this daemon speaks %d; rebuild the \
         client and daemon from the same checkout (scaf_eval and the \
         daemon must match)"
        (match got with None -> "v1 (no version field)" | Some v -> string_of_int v)
        version;
    retryable = false;
    retry_after_ms = None;
    diags = [];
  }

(** The stream's terminal summary frame was never seen: the per-connection
    outbox overflowed its grace period with the consumer stuck, and the
    daemon chose disconnection over an unbounded buffer. *)
let stream_overrun ~retry_after_ms =
  {
    code = "stream_overrun";
    msg =
      "stream consumer too slow: per-connection outbox exhausted its \
       backpressure grace; reconnect and retry";
    retryable = true;
    retry_after_ms = Some retry_after_ms;
    diags = [];
  }

(** A submission that failed the lint gate; not retryable as-is (fix the
    program), and the whole report rides along. *)
let lint_rejected (diags : Scaf_lint.Diagnostic.t list) =
  {
    code = "lint_rejected";
    msg =
      Printf.sprintf "program rejected: %d lint error(s)"
        (List.length (Scaf_lint.Diagnostic.errors diags));
    retryable = false;
    retry_after_ms = None;
    diags;
  }

(** An edit script the resident program rejected (bad target, parse error
    in spliced text, or the edited program no longer lints clean); the
    program stays at its prior epoch. *)
let edit_rejected (diags : Scaf_lint.Diagnostic.t list) =
  {
    code = "edit_rejected";
    msg =
      Printf.sprintf "edit rejected: %d error(s); program unchanged"
        (List.length (Scaf_lint.Diagnostic.errors diags));
    retryable = false;
    retry_after_ms = None;
    diags;
  }

(* ------------------------------------------------------------------ *)
(* Response envelopes                                                  *)
(* ------------------------------------------------------------------ *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

(** Parse a response envelope into [Ok payload] / [Error err]. Raises
    [Json.Parse_error] when it is not an envelope at all. *)
let open_envelope (j : Json.t) : (Json.t, err) result =
  match Json.member "ok" j with
  | Some (Json.Bool true) -> Ok j
  | Some (Json.Bool false) ->
      let e = Json.mem_or "error" ~default:(Json.Obj []) j in
      Error
        {
          code =
            Json.to_string_exn
              (Json.mem_or "code" ~default:(Json.String "unknown") e);
          msg = Json.to_string_exn (Json.mem_or "msg" ~default:(Json.String "") e);
          retryable =
            Json.to_bool_exn
              (Json.mem_or "retryable" ~default:(Json.Bool false) e);
          retry_after_ms = Json.float_member_opt "retry_after_ms" e;
          diags =
            List.map diagnostic_of_json
              (Json.to_list_exn
                 (Json.mem_or "diagnostics" ~default:(Json.List []) e));
        }
  | _ -> raise (Json.Parse_error "response has no \"ok\" field")

(* ------------------------------------------------------------------ *)
(* Streaming reply frames                                              *)
(* ------------------------------------------------------------------ *)

(** A streaming [ask_many] reply is a sequence of frames, each a normal
    [ok] envelope distinguished by its ["stream"] tag:

    - {e item}: one resolved query, tagged with its index in the request's
      query list (items always arrive in index order);
    - {e hb}: a keepalive heartbeat — emitted while the next answer is
      still cooking and on otherwise-idle connections, carrying no data;
    - {e end}: the terminal summary (total items, backpressure sheds,
      whether the stream was cancelled). A stream that ends in an error
      envelope instead was aborted.

    A non-streaming client never sees these: the tag only appears on
    frames of a reply the client explicitly requested as a stream, plus
    idle heartbeats (which every client skips). *)

type stream_summary = {
  st_count : int;  (** items framed before the stream closed *)
  st_shed : int;  (** answers degraded by outbox backpressure *)
  st_cancelled : bool;  (** closed early by a client [cancel] *)
}

let stream_item_to_json (i : int) (a : answer) : Json.t =
  ok
    [
      ("stream", Json.String "item");
      ("i", Json.Int i);
      ("answer", answer_to_json a);
    ]

let stream_heartbeat_json : Json.t = ok [ ("stream", Json.String "hb") ]

let stream_end_to_json (s : stream_summary) : Json.t =
  ok
    [
      ("stream", Json.String "end");
      ("count", Json.Int s.st_count);
      ("shed", Json.Int s.st_shed);
      ("cancelled", Json.Bool s.st_cancelled);
    ]

type stream_frame =
  | Sitem of int * answer
  | Sheartbeat
  | Send of stream_summary
  | Snot_stream  (** an ordinary (non-stream-tagged) reply frame *)

(** Classify one frame of a streaming reply. Raises [Json.Parse_error] on
    a malformed stream-tagged frame. *)
let stream_frame_of_json (j : Json.t) : stream_frame =
  match Json.member "stream" j with
  | None -> Snot_stream
  | Some (Json.String "hb") -> Sheartbeat
  | Some (Json.String "item") -> (
      match Json.member "answer" j with
      | Some a -> Sitem (Json.int_member "i" j, answer_of_json a)
      | None -> raise (Json.Parse_error "stream item without \"answer\""))
  | Some (Json.String "end") ->
      Send
        {
          st_count = Json.int_member "count" j;
          st_shed = Json.int_member "shed" j;
          st_cancelled =
            Json.to_bool_exn
              (Json.mem_or "cancelled" ~default:(Json.Bool false) j);
        }
  | Some t ->
      raise
        (Json.Parse_error
           (Printf.sprintf "unknown stream frame tag %s" (Json.to_string t)))

(** Whether a reply frame is the idle-connection heartbeat every client
    read path must skip transparently. *)
let is_heartbeat (j : Json.t) : bool =
  match Json.member "stream" j with
  | Some (Json.String "hb") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Figure 8 rows on the wire                                           *)
(* ------------------------------------------------------------------ *)

(** The raw numbers behind one Figure 8 row (see
    [Scaf_report.Experiments.fig8_row]): weighted %NoDep per scheme, as
    binary64. [Json.float] prints them with [%.17g], so a row survives the
    wire bit-exactly and the client-side rendering of a replayed Figure 8
    is byte-identical to the batch one. *)
let fig8_row_to_json (r : Scaf_report.Experiments.fig8_row) : Json.t =
  Json.Obj
    [
      ("bench", Json.String r.Scaf_report.Experiments.row_bench);
      ("caf", Json.float r.Scaf_report.Experiments.row_caf);
      ("confluence", Json.float r.Scaf_report.Experiments.row_confluence);
      ("scaf", Json.float r.Scaf_report.Experiments.row_scaf);
      ("memspec", Json.float r.Scaf_report.Experiments.row_memspec);
      ("observed", Json.float r.Scaf_report.Experiments.row_observed);
    ]

let fig8_row_of_json (j : Json.t) : Scaf_report.Experiments.fig8_row =
  let f name =
    match Json.float_member_opt name j with
    | Some v -> v
    | None -> raise (Json.Parse_error ("fig8 row: missing field " ^ name))
  in
  {
    Scaf_report.Experiments.row_bench = Json.string_member "bench" j;
    row_caf = f "caf";
    row_confluence = f "confluence";
    row_scaf = f "scaf";
    row_memspec = f "memspec";
    row_observed = f "observed";
  }
