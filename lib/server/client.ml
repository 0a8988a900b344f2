(** Blocking client for the SCAF query daemon.

    Connection management is deliberately boring: one socket, one
    outstanding request (the protocol is strictly request/response per
    connection — the one exception is a streaming [ask_many], whose reply
    is a frame sequence), and a retry layer with exponential backoff +
    jitter that re-resolves both transport failures (connect refused,
    connection reset mid-call) and the server's explicit retryable
    rejections — honoring a [retry_after_ms] hint when the server provides
    one. Non-retryable server errors surface immediately as
    {!Server_error}.

    The endpoint string accepts both transports ({!Addr}): a plain path is
    a Unix-domain socket, ["tcp:HOST:PORT"] a TCP endpoint. Every read
    path transparently skips the daemon's keepalive heartbeat frames. *)

exception Server_error of Protocol.err
(** a structured failure the server deliberately sent *)

exception Transport_error of string
(** the conversation itself broke and retries were exhausted *)

type retry = {
  attempts : int;  (** total tries, the first included *)
  base_ms : float;  (** first backoff step *)
  cap_ms : float;  (** backoff ceiling *)
}

let default_retry = { attempts = 5; base_ms = 25.0; cap_ms = 1000.0 }
let no_retry = { attempts = 1; base_ms = 0.0; cap_ms = 0.0 }

type t = {
  path : string;
  name : string;
  retry : retry;
  rng : Random.State.t;
  mutable fd : Unix.file_descr option;  (** [None] between reconnects *)
  mutable closed : bool;
  bufs : Wire.buffers;  (** reused by every frame on this client *)
}

(* Full jitter: a uniform draw from [0, min(cap, base * 2^attempt)] — the
   fleet of retrying clients decorrelates instead of thundering back in
   lockstep. A server hint overrides the exponential base. *)
let backoff_s (c : t) ~(attempt : int) ~(hint_ms : float option) : float =
  let ceiling =
    match hint_ms with
    | Some ms -> Float.min c.retry.cap_ms (Float.max ms c.retry.base_ms)
    | None ->
        Float.min c.retry.cap_ms
          (c.retry.base_ms *. Float.pow 2.0 (float_of_int attempt))
  in
  Random.State.float c.rng (Float.max ceiling 0.001) /. 1000.0

let connect_fd (c : t) : Unix.file_descr =
  let addr =
    try Addr.of_string c.path
    with Invalid_argument msg -> raise (Transport_error msg)
  in
  Addr.connect addr

let disconnect (c : t) : unit =
  match c.fd with
  | Some fd ->
      c.fd <- None;
      (try Unix.close fd with _ -> ())
  | None -> ()

(* One request/response exchange over the current socket; raises
   [Transport_error] (after dropping the socket) when the conversation
   breaks — the retry layer above decides whether to reconnect. *)
let exchange (c : t) (req : Protocol.request) : (Json.t, Protocol.err) result
    =
  let fd =
    match c.fd with
    | Some fd -> fd
    | None ->
        let fd =
          match connect_fd c with
          | fd -> fd
          | exception Unix.Unix_error (e, _, _) ->
              raise (Transport_error (Unix.error_message e))
          | exception Failure msg -> raise (Transport_error msg)
        in
        c.fd <- Some fd;
        fd
  in
  let fail msg =
    disconnect c;
    raise (Transport_error msg)
  in
  match Wire.write_frame ~buf:c.bufs fd (Protocol.request_to_json req) with
  | Error e -> fail (Wire.error_to_string e)
  | Ok () -> (
      (* skip idle-keepalive heartbeats: they carry no data and may
         arrive ahead of any reply *)
      let rec read () =
        match Wire.read_frame ~buf:c.bufs fd with
        | Error e -> fail (Wire.error_to_string e)
        | Ok j when Protocol.is_heartbeat j -> read ()
        | Ok j -> (
            match Protocol.open_envelope j with
            | r -> r
            | exception Json.Parse_error msg -> fail msg)
      in
      read ())

(** Send one request, retrying transport failures and retryable server
    rejections with backoff. Raises {!Server_error} on a non-retryable
    rejection, {!Transport_error} once retries are exhausted. *)
let rpc (c : t) (req : Protocol.request) : Json.t =
  if c.closed then raise (Transport_error "client closed");
  let rec go attempt =
    let retry_or ~hint_ms (fail : unit -> 'a) : Json.t =
      if attempt + 1 >= c.retry.attempts then fail ()
      else begin
        Thread.delay (backoff_s c ~attempt ~hint_ms);
        go (attempt + 1)
      end
    in
    match exchange c req with
    | Ok j -> j
    | Error e when e.Protocol.retryable ->
        retry_or ~hint_ms:e.Protocol.retry_after_ms (fun () ->
            raise (Server_error e))
    | Error e -> raise (Server_error e)
    | exception Transport_error msg ->
        retry_or ~hint_ms:None (fun () -> raise (Transport_error msg))
  in
  go 0

(** [connect path] — connect and handshake. [retry] also governs the
    initial connection (a client racing a still-starting daemon backs off
    instead of failing). Returns the daemon's benchmark list. *)
let connect ?(name = "client") ?(retry = default_retry) ?(seed = 7)
    (path : string) : t * string list =
  let c =
    {
      path;
      name;
      retry;
      rng = Random.State.make [| seed; Hashtbl.hash path |];
      fd = None;
      closed = false;
      bufs = Wire.buffers ();
    }
  in
  let hello = rpc c (Protocol.Hello { client = name }) in
  let benchmarks =
    List.map Json.to_string_exn
      (Json.to_list_exn (Json.mem_or "benchmarks" ~default:(Json.List []) hello))
  in
  (c, benchmarks)

let close (c : t) : unit =
  c.closed <- true;
  disconnect c

let ping (c : t) : unit = ignore (rpc c Protocol.Ping)

(** Ask one dependence query. *)
let ask ?deadline_ms (c : t) ~(bench : string) (q : Protocol.wire_query) :
    Protocol.answer =
  let j = rpc c (Protocol.Ask { bench; q; deadline_ms }) in
  match Json.member "answer" j with
  | Some a -> Protocol.answer_of_json a
  | None -> raise (Transport_error "response missing \"answer\"")

(* One streaming ask_many over the current socket: send the request, then
   reassemble the frame sequence (items in index order, heartbeats
   skipped) until the terminal summary. An error envelope before any item
   is an ordinary rejection (connection intact); one mid-stream means the
   server abandoned the stream — the socket is dropped either way the
   framing is uncertain. *)
let stream_exchange (c : t) ~(bench : string)
    ~(qs : Protocol.wire_query list) ~(deadline_ms : float option)
    ~(on_item : (int -> Protocol.answer -> [ `Continue | `Cancel ]) option) :
    (Protocol.answer list * Protocol.stream_summary, Protocol.err) result =
  let fd =
    match c.fd with
    | Some fd -> fd
    | None ->
        let fd =
          match connect_fd c with
          | fd -> fd
          | exception Unix.Unix_error (e, _, _) ->
              raise (Transport_error (Unix.error_message e))
          | exception Failure msg -> raise (Transport_error msg)
        in
        c.fd <- Some fd;
        fd
  in
  let fail msg =
    disconnect c;
    raise (Transport_error msg)
  in
  match
    Wire.write_frame ~buf:c.bufs fd
      (Protocol.request_to_json
         (Protocol.Ask_many { bench; qs; deadline_ms; stream = true }))
  with
  | Error e -> fail (Wire.error_to_string e)
  | Ok () ->
      let items = ref [] in
      let cancel_sent = ref false in
      let rec read () =
        match Wire.read_frame ~buf:c.bufs fd with
        | Error e -> fail (Wire.error_to_string e)
        | Ok j -> (
            match Protocol.open_envelope j with
            | Error e ->
                (* a mid-stream abort loses framing; a pre-stream
                   rejection leaves the connection usable *)
                if !items <> [] then disconnect c;
                Error e
            | Ok j -> (
                match Protocol.stream_frame_of_json j with
                | Protocol.Sheartbeat -> read ()
                | Protocol.Sitem (i, a) ->
                    items := (i, a) :: !items;
                    (match on_item with
                    | Some f when not !cancel_sent -> (
                        match f i a with
                        | `Cancel ->
                            cancel_sent := true;
                            ignore
                              (Wire.write_frame ~buf:c.bufs fd
                                 (Protocol.request_to_json Protocol.Cancel))
                        | `Continue -> ())
                    | _ -> ());
                    read ()
                | Protocol.Send s ->
                    (* a cancel that landed after the stream ended is
                       answered as a request of its own: read that reply,
                       or the next exchange would take it for its own *)
                    if !cancel_sent && not s.Protocol.st_cancelled then (
                      match Wire.read_frame ~buf:c.bufs fd with
                      | Ok _ -> ()
                      | Error _ -> disconnect c);
                    let answers =
                      List.sort
                        (fun (i, _) (k, _) -> Int.compare i k)
                        (List.rev !items)
                      |> List.map snd
                    in
                    Ok (answers, s)
                | Protocol.Snot_stream ->
                    fail "expected a stream frame in the reply"
                | exception Json.Parse_error msg -> fail msg))
        | exception Json.Parse_error msg -> fail msg
      in
      read ()

(** Ask a batch as a {e stream}: the daemon frames each answer as it
    resolves, and this call reassembles them in query order. [on_item]
    observes each item as it arrives and may return [`Cancel] to stop the
    stream mid-flight (the summary then has [st_cancelled] set and the
    answer list holds only what arrived). Admission rejections and
    retryable aborts (e.g. [stream_overrun]) are retried like {!rpc};
    answers already received are discarded on retry, so the result is
    always one coherent stream. *)
let ask_stream ?deadline_ms ?on_item (c : t) ~(bench : string)
    (qs : Protocol.wire_query list) :
    Protocol.answer list * Protocol.stream_summary =
  if c.closed then raise (Transport_error "client closed");
  let rec go attempt =
    let retry_or ~hint_ms (fail : unit -> 'a) =
      if attempt + 1 >= c.retry.attempts then fail ()
      else begin
        Thread.delay (backoff_s c ~attempt ~hint_ms);
        go (attempt + 1)
      end
    in
    match stream_exchange c ~bench ~qs ~deadline_ms ~on_item with
    | Ok r -> r
    | Error e when e.Protocol.retryable ->
        retry_or ~hint_ms:e.Protocol.retry_after_ms (fun () ->
            raise (Server_error e))
    | Error e -> raise (Server_error e)
    | exception Transport_error msg ->
        retry_or ~hint_ms:None (fun () -> raise (Transport_error msg))
  in
  go 0

(** Ask a batch; the i-th answer matches the i-th query. With
    [~stream:true] the reply arrives incrementally and is reassembled —
    byte-identical answers, lower time-to-first-answer. *)
let ask_many ?deadline_ms ?(stream = false) (c : t) ~(bench : string)
    (qs : Protocol.wire_query list) : Protocol.answer list =
  if stream then fst (ask_stream ?deadline_ms c ~bench qs)
  else
    let j =
      rpc c (Protocol.Ask_many { bench; qs; deadline_ms; stream = false })
    in
    match Json.member "answers" j with
    | Some (Json.List l) -> List.map Protocol.answer_of_json l
    | _ -> raise (Transport_error "response missing \"answers\"")

(** The benchmark's PDG workload: (loop, weight, queries) per hot loop. *)
let queries (c : t) ~(bench : string) :
    (string * float * Protocol.wire_query list) list =
  let j = rpc c (Protocol.Queries { bench }) in
  let w = Json.mem_or "workload" ~default:(Json.Obj []) j in
  List.map
    (fun lj ->
      ( Json.string_member "loop" lj,
        Json.to_float_exn (Json.mem_or "weight" ~default:(Json.Float 0.0) lj),
        List.map Protocol.query_of_json
          (Json.to_list_exn (Json.mem_or "queries" ~default:(Json.List []) lj))
      ))
    (Json.to_list_exn (Json.mem_or "loops" ~default:(Json.List []) w))

(** Commit an edit script to the daemon's resident program; the daemon
    invalidates affected cache entries and re-analyzes incrementally
    without restarting. Returns the invalidation report. *)
let edit (c : t) ~(bench : string) (edits : Protocol.wire_edit list) :
    Protocol.edit_report =
  let j = rpc c (Protocol.Edit { bench; edits }) in
  match Json.member "edit" j with
  | Some r -> Protocol.edit_report_of_json r
  | None -> raise (Transport_error "response missing \"edit\"")

(** Submit a user program for lint-gated registration. On success the
    program is queryable under its id like any suite benchmark; a lint
    rejection surfaces as {!Server_error} whose [err.diags] carry the
    full diagnostic report. *)
let submit (c : t) (prog : Protocol.wire_program) : Protocol.submit_report =
  let j = rpc c (Protocol.Submit { prog }) in
  match Json.member "submitted" j with
  | Some r -> Protocol.submit_report_of_json r
  | None -> raise (Transport_error "response missing \"submitted\"")

(** The benchmark's Figure 8 row, evaluated server-side. *)
let report (c : t) ~(bench : string) : Scaf_report.Experiments.fig8_row =
  let j = rpc c (Protocol.Report { bench }) in
  match Json.member "row" j with
  | Some r -> Protocol.fig8_row_of_json r
  | None -> raise (Transport_error "response missing \"row\"")

(** The daemon's health snapshot, as raw JSON. *)
let stats (c : t) : Json.t = rpc c Protocol.Stats

(** Ask the daemon to shut down (acknowledged before teardown). *)
let shutdown (c : t) : unit = ignore (rpc c Protocol.Shutdown)
