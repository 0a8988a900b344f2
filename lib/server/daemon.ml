(** The SCAF query daemon: analysis as a long-lived service.

    One process loads every configured benchmark once (parse, verify,
    profile — the dominant cost of a batch run), keeps the shared
    canonicalizing caches warm, and answers dependence queries over a
    length-prefixed JSON protocol ({!Wire}) on a Unix-domain socket and,
    optionally, a TCP listener ({!Addr}) — both speak the same framing,
    share the same admission queue, and count against the same session
    table.

    Thread layout:

    - the {e accept} thread multiplexes every listening socket through
      [select] and, once asked to stop, performs the final teardown (join
      everything, close listeners, unlink the Unix socket). Transient
      accept failures (EMFILE, ECONNABORTED, ...) back off exponentially
      instead of spinning hot, and are counted;
    - one thread {e per connection} reads frames, runs cheap ops inline,
      and submits analysis work to the admission queue, so a stalled
      client stalls only its own connection. Quiet connections receive
      keepalive heartbeat frames — a dead peer turns the heartbeat write
      into an error long before TCP gives up on retransmits;
    - a pool of {e worker} threads drains the admission queue, each with
      its private orchestrators over the shared caches. A streaming job
      hands each answer to a {e bounded} per-connection outbox the
      connection thread drains; a consumer that stops draining first
      degrades the remaining answers (backpressure shed) and is then
      disconnected with a retryable [stream_overrun];
    - a {e reaper} thread shuts down sessions idle past [idle_timeout]
      ([Unix.shutdown], not [close] — shutdown reliably wakes a reader
      blocked in [read], and the connection thread still owns the fd's
      lifetime, so no double-close races).

    Durability: with [state_dir] set, every {e accepted} [submit]/[edit]
    is appended (fsync'd, checksummed) to a {!Journal} before the success
    reply leaves the socket, and replayed through the same lint/admission
    pipeline on the next start — [kill -9] no longer loses registered
    programs.

    Every accepted request is answered, cleanly rejected, or
    deadline-expired — never silently dropped, never left hanging: frames
    are written whole ({!Wire.write_frame}, bounded by [write_budget]),
    admitted jobs survive shutdown (the queue drains before workers
    exit), and a crashed worker converts its job into an [internal] error
    response. *)

open Scaf_trace

type config = {
  socket_path : string;
  tcp : string option;
      (** optional second listener, ["HOST:PORT"] (port 0 = ephemeral) *)
  state_dir : string option;
      (** journal accepted submit/edit ops here and replay them on start *)
  benchmarks : Scaf_suite.Program.t list;
  workers : int;
  admission : Admission.config;
  idle_timeout : float;  (** reap sessions idle this many seconds *)
  frame_budget : float;  (** slow-loris bound: max seconds per frame *)
  write_budget : float;
      (** per-frame write deadline once the peer stops draining *)
  heartbeat_interval : float;
      (** seconds of write-silence before a keepalive heartbeat frame *)
  outbox_cap : int;  (** streaming: buffered answers per connection *)
  stream_grace : float;
      (** streaming: seconds a worker may wait on a full outbox; sheds to
          degraded answers at a quarter of this, disconnects past it *)
  max_frame : int;  (** max payload bytes per frame *)
  default_deadline_ms : float option;
      (** deadline applied to requests that do not carry one *)
  max_submit_queries : int;
      (** admission ceiling for submitted programs: reject a submission
          whose statically estimated query count exceeds this *)
  static_nodep : bool;
      (** answer provably-disjoint queries from the lint layer's static
          pass before consulting the orchestrator (off by default: a
          short-circuited answer is not byte-identical to batch) *)
  jobs : int;
      (** worker domains in the engine's work-stealing pool, used by the
          parallel figure evaluations (default 1: no extra domains) *)
  metrics : Metrics.t;
  wrap : Scaf.Module_api.t list -> Scaf.Module_api.t list;
      (** ensemble hook for the chaos harness; [Fun.id] in production *)
}

let default_config ?(socket_path = Filename.concat (Filename.get_temp_dir_name ()) "scaf-eval.sock")
    ?benchmarks () : config =
  let benchmarks =
    match benchmarks with Some bs -> bs | None -> Scaf_suite.Registry.all ()
  in
  {
    socket_path;
    tcp = None;
    state_dir = None;
    benchmarks;
    workers = 2;
    admission = Admission.default_config;
    idle_timeout = 30.0;
    frame_budget = 5.0;
    write_budget = 5.0;
    heartbeat_interval = 5.0;
    outbox_cap = 8;
    stream_grace = 2.0;
    max_frame = Wire.default_max_len;
    default_deadline_ms = None;
    max_submit_queries = 200_000;
    static_nodep = false;
    jobs = 1;
    metrics = Metrics.create ();
    wrap = Fun.id;
  }

(* ------------------------------------------------------------------ *)
(* Jobs, outboxes, and sessions                                        *)
(* ------------------------------------------------------------------ *)

type job = {
  j_bench : Engine.bench;
  j_queries : Protocol.wire_query list;
  j_deadline : float option;  (** absolute, [Unix.gettimeofday] units *)
  j_sink : sink;
}

and sink =
  | Batch of mail  (** one reply frame carrying every answer *)
  | Stream of outbox  (** one frame per answer, through the outbox *)

and mail = {
  mm : Mutex.t;
  mc : Condition.t;
  mutable result : (Protocol.answer list, Protocol.err) result option;
}

(** The bounded per-connection outbox between a streaming job's worker
    (producer) and its connection thread (consumer). Capacity is the
    backpressure: a full outbox makes the worker wait, a wait past
    [grace/4] sheds the remaining answers to degraded, a wait past
    [grace] abandons the stream entirely.

    Waits are woken directly, never polled (DESIGN.md §14). The outbox
    owns a socketpair: the producer waits on one end, the consumer on the
    other (and on its client socket), each in [Unix.select] with its
    remaining time budget as the timeout. A side flags itself asleep under
    [om] before it waits; every state change the other side could be
    waiting for (an item, a freed slot, finish, cancel, close) writes one
    byte towards it if the flag is up. The sleeper clears its flag and
    drains its end under [om] before it re-checks the state, so no byte
    outlives the wait it was meant for, and neither side can swallow the
    other's wakeup. The pair is closed when both producer and consumer
    have released the outbox ([o_refs]): a worker may still push after
    its consumer vanished, and a closed fd number can at once belong to
    another connection. *)
and outbox = {
  om : Mutex.t;
  obuf : (int * Protocol.answer) Queue.t;
  ocap : int;
  ograce : float;
  prod_fd : Unix.file_descr;  (** producer's end of the wake pair *)
  cons_fd : Unix.file_descr;  (** consumer's end *)
  wake_scratch : Bytes.t;  (** drain buffer *)
  mutable prod_asleep : bool;
  mutable cons_asleep : bool;
  mutable o_refs : int;  (** producer + consumer; the pair closes at 0 *)
  mutable o_timeouts : int;  (** waits that ended by their timeout *)
  mutable o_unpolled : int;  (** items taken since the socket was polled *)
  mutable o_closed : bool;  (** consumer gone; producer must stop *)
  mutable o_cancel : bool;  (** client sent [cancel] *)
  mutable o_done : bool;  (** producer finished (or gave up) *)
  mutable o_err : Protocol.err option;  (** abort reason, if any *)
  mutable o_shed : int;  (** answers degraded by backpressure *)
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  peer : string;  (** client-announced name, for the stats view *)
  mutable last_active : float;
  mutable reaped : bool;
}

type t = {
  cfg : config;
  engine : Engine.t;
  listeners : (Unix.file_descr * Addr.t) list;
      (** every listening socket, with the address it actually bound *)
  journal : Journal.t option;
  queue : job Admission.t;
  sessions : (int, session) Hashtbl.t;
  sm : Mutex.t;
  mutable next_sid : int;
  mutable stopping : bool;
  started_at : float;
  mutable accept_thread : Thread.t option;
  (* resolved metric handles (satellite: daemon health via the PR 4
     registry) *)
  m_requests : Metrics.counter;
  m_answered : Metrics.counter;
  m_rejected : Metrics.counter;
  m_shed : Metrics.counter;
  m_deadline_miss : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_sessions_opened : Metrics.counter;
  m_sessions_open : Metrics.counter;  (** gauge: [add +1 / -1] *)
  m_sessions_reaped : Metrics.counter;
  m_bad_frames : Metrics.counter;
  m_queue_depth : Metrics.counter;  (** gauge *)
  m_request_latency : Metrics.histogram;
  (* transport counters (this PR) *)
  m_accept_errors : Metrics.counter;
  m_heartbeats : Metrics.counter;
  m_streams_opened : Metrics.counter;
  m_streams_cancelled : Metrics.counter;
  m_streams_aborted : Metrics.counter;
  m_stream_items : Metrics.counter;
  m_bp_sheds : Metrics.counter;
  m_version_mismatch : Metrics.counter;
  m_journal_appended : Metrics.counter;
  m_journal_append_failed : Metrics.counter;
  m_journal_replayed : Metrics.counter;
  m_journal_replay_failed : Metrics.counter;
  m_journal_truncated : Metrics.counter;
}

let now () = Unix.gettimeofday ()

let with_sessions (t : t) (f : unit -> 'a) : 'a =
  Mutex.lock t.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sm) f

(* ------------------------------------------------------------------ *)
(* Outbox                                                              *)
(* ------------------------------------------------------------------ *)

(** A fresh outbox, held twice: once by its producer and once by its
    consumer, each of which calls {!outbox_release} when done with it.
    Raises [Unix.Unix_error] when no socketpair can be opened (EMFILE). *)
let outbox_create ~(cap : int) ~(grace : float) : outbox =
  let prod_fd, cons_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock prod_fd;
  Unix.set_nonblock cons_fd;
  {
    om = Mutex.create ();
    obuf = Queue.create ();
    ocap = max 1 cap;
    ograce = grace;
    prod_fd;
    cons_fd;
    wake_scratch = Bytes.create 16;
    prod_asleep = false;
    cons_asleep = false;
    o_refs = 2;
    o_timeouts = 0;
    o_unpolled = 0;
    o_closed = false;
    o_cancel = false;
    o_done = false;
    o_err = None;
    o_shed = 0;
  }

let with_outbox (ob : outbox) (f : unit -> 'a) : 'a =
  Mutex.lock ob.om;
  Fun.protect ~finally:(fun () -> Mutex.unlock ob.om) f

type side = Producer | Consumer

(* Under [om]: one byte written at [fd] arrives at the other end. A full
   socket buffer already holds a wakeup, so EAGAIN is success. *)
let send_wake (fd : Unix.file_descr) : unit =
  try ignore (Unix.single_write_substring fd "!" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Under [om]: wake [side] if it sleeps. *)
let poke (ob : outbox) (side : side) : unit =
  match side with
  | Producer -> if ob.prod_asleep then send_wake ob.cons_fd
  | Consumer -> if ob.cons_asleep then send_wake ob.prod_fd

(* The end states (finish, close, cancel) concern both sides. *)
let poke_both (ob : outbox) : unit =
  poke ob Producer;
  poke ob Consumer

let rec drain (ob : outbox) (fd : Unix.file_descr) : unit =
  match Unix.read fd ob.wake_scratch 0 (Bytes.length ob.wake_scratch) with
  | 0 -> ()
  | _ -> drain ob fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ob fd

(* Entered and left with [om] held: [side] sleeps until poked, [sock] (if
   any) turns readable, or [timeout] seconds pass. Returns whether [sock]
   is readable. *)
let sleep (ob : outbox) (side : side) ?(sock : Unix.file_descr option)
    (timeout : float) : bool =
  let own = match side with Producer -> ob.prod_fd | Consumer -> ob.cons_fd in
  let set_asleep b =
    match side with
    | Producer -> ob.prod_asleep <- b
    | Consumer -> ob.cons_asleep <- b
  in
  set_asleep true;
  Mutex.unlock ob.om;
  let fds = match sock with Some s -> [ own; s ] | None -> [ own ] in
  let ready =
    match Unix.select fds [] [] timeout with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> [ own ]
  in
  Mutex.lock ob.om;
  set_asleep false;
  if ready = [] then ob.o_timeouts <- ob.o_timeouts + 1;
  drain ob own;
  match sock with Some s -> List.memq s ready | None -> false

(* Producer side: push one answer, waiting while the outbox is full. The
   wait is timed by the grace clock, so it ends even if the consumer
   never takes another item. *)
let outbox_push (ob : outbox) (item : int * Protocol.answer) :
    [ `Ok of float | `Overrun | `Stopped ] =
  let t0 = now () in
  Mutex.lock ob.om;
  let rec go () =
    if ob.o_closed || ob.o_cancel then `Stopped
    else if Queue.length ob.obuf < ob.ocap then begin
      Queue.add item ob.obuf;
      poke ob Consumer;
      `Ok (now () -. t0)
    end
    else
      let left = ob.ograce -. (now () -. t0) in
      if left < 0.0 then `Overrun
      else begin
        ignore (sleep ob Producer left : bool);
        go ()
      end
  in
  let r = go () in
  Mutex.unlock ob.om;
  r

let sock_readable (sock : Unix.file_descr) : bool =
  match Unix.select [ sock ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Consumer side: take the next item, waiting at most [max_wait] so the
   connection thread keeps its own heartbeat cadence. With [sock], the
   wait also ends when the client socket turns readable ([`Readable]: a
   [cancel], or the peer gone), and a consumer that never has to wait
   still polls the socket once every [ocap] items. *)
let outbox_take ?(sock : Unix.file_descr option) (ob : outbox)
    ~(max_wait : float) :
    [ `Item of int * Protocol.answer
    | `Err of Protocol.err
    | `Done
    | `Timeout
    | `Readable ] =
  let t0 = now () in
  Mutex.lock ob.om;
  let pop () =
    let it = Queue.pop ob.obuf in
    ob.o_unpolled <- ob.o_unpolled + 1;
    poke ob Producer;
    `Item it
  in
  let rec go () =
    if not (Queue.is_empty ob.obuf) then
      match sock with
      | Some s when ob.o_unpolled >= ob.ocap ->
          ob.o_unpolled <- 0;
          if sock_readable s then `Readable else pop ()
      | _ -> pop ()
    else
      match ob.o_err with
      | Some e -> `Err e
      | None ->
          if ob.o_done then `Done
          else
            let left = max_wait -. (now () -. t0) in
            if left <= 0.0 then `Timeout
            else if sleep ob Consumer ?sock left then begin
              ob.o_unpolled <- 0;
              `Readable
            end
            else go ()
  in
  let r = go () in
  Mutex.unlock ob.om;
  r

let outbox_finish ?err (ob : outbox) : unit =
  with_outbox ob (fun () ->
      (match err with Some e when ob.o_err = None -> ob.o_err <- Some e | _ -> ());
      ob.o_done <- true;
      poke_both ob)

let outbox_close (ob : outbox) : unit =
  with_outbox ob (fun () ->
      ob.o_closed <- true;
      poke_both ob)

let outbox_cancel (ob : outbox) : unit =
  with_outbox ob (fun () ->
      ob.o_cancel <- true;
      poke_both ob)

(** Drop one side's hold on the outbox; the last release closes the wake
    pair. The caller must not touch the outbox afterwards. *)
let outbox_release (ob : outbox) : unit =
  let last =
    with_outbox ob (fun () ->
        ob.o_refs <- ob.o_refs - 1;
        ob.o_refs = 0)
  in
  if last then begin
    (try Unix.close ob.prod_fd with Unix.Unix_error _ -> ());
    try Unix.close ob.cons_fd with Unix.Unix_error _ -> ()
  end

(** How many waits on this outbox ended by their timeout rather than by a
    wakeup: a lost wakeup shows up here. *)
let outbox_timeouts (ob : outbox) : int = with_outbox ob (fun () -> ob.o_timeouts)

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let deliver (mail : mail) (r : (Protocol.answer list, Protocol.err) result) :
    unit =
  Mutex.lock mail.mm;
  mail.result <- Some r;
  Condition.signal mail.mc;
  Mutex.unlock mail.mm

let collect (mail : mail) : (Protocol.answer list, Protocol.err) result =
  Mutex.lock mail.mm;
  let rec wait () =
    match mail.result with
    | Some r ->
        Mutex.unlock mail.mm;
        r
    | None ->
        Condition.wait mail.mc mail.mm;
        wait ()
  in
  wait ()

let answer_one (w : Engine.worker) (job : job)
    (degrade : Admission.degrade) (wq : Protocol.wire_query) : Protocol.answer
    =
  (* a query that waited out its whole deadline in the queue is not
     evaluated at all: the sound bottom, tagged, immediately *)
  match job.j_deadline with
  | Some d when now () > d ->
      Protocol.answer_of_response ~degraded:"deadline"
        (Scaf.Response.bottom_for (Protocol.to_core_query wq))
  | _ -> Engine.answer w ~degrade ~deadline:job.j_deadline job.j_bench wq

let count_answer (t : t) (a : Protocol.answer) : unit =
  if a.Protocol.a_degraded = Some "deadline" then
    Metrics.incr t.m_deadline_miss;
  if a.Protocol.a_coalesced then Metrics.incr t.m_coalesced

let run_batch_job (t : t) (w : Engine.worker) (job : job) (mail : mail)
    (degrade : Admission.degrade) : unit =
  let res =
    match List.map (answer_one w job degrade) job.j_queries with
    | answers -> Ok answers
    | exception e ->
        Error (Protocol.internal ("worker: " ^ Printexc.to_string e))
  in
  (match res with
  | Ok answers -> List.iter (count_answer t) answers
  | Error _ -> ());
  deliver mail res

(* A streaming job pushes each answer into the bounded outbox as it
   resolves. Backpressure policy: a push that had to wait more than a
   quarter of the grace period flips the job to shed mode (remaining
   queries evaluated cache-only and tagged), and a push that exhausts the
   grace abandons the stream with a retryable [stream_overrun]. *)
let run_stream_job (t : t) (w : Engine.worker) (job : job) (ob : outbox)
    (degrade : Admission.degrade) : unit =
  let shed = ref false in
  Fun.protect ~finally:(fun () -> outbox_release ob) @@ fun () ->
  match
    List.iteri
      (fun i wq ->
        if with_outbox ob (fun () -> ob.o_closed || ob.o_cancel) then
          raise Exit;
        let degrade' = if !shed then Admission.Cached_only else degrade in
        let a = answer_one w job degrade' wq in
        let a =
          if !shed && a.Protocol.a_degraded = None then begin
            with_outbox ob (fun () -> ob.o_shed <- ob.o_shed + 1);
            Metrics.incr t.m_bp_sheds;
            { a with Protocol.a_degraded = Some "backpressure" }
          end
          else a
        in
        count_answer t a;
        match outbox_push ob (i, a) with
        | `Ok waited ->
            if (not !shed) && waited > ob.ograce /. 4.0 then shed := true
        | `Stopped -> raise Exit
        | `Overrun ->
            outbox_finish
              ~err:(Protocol.stream_overrun ~retry_after_ms:1000.0) ob;
            raise Exit)
      job.j_queries
  with
  | () -> outbox_finish ob
  | exception Exit -> outbox_finish ob
  | exception e ->
      outbox_finish ~err:(Protocol.internal ("worker: " ^ Printexc.to_string e))
        ob

let run_job (t : t) (w : Engine.worker) (job : job)
    (degrade : Admission.degrade) : unit =
  Metrics.add t.m_queue_depth (-1);
  if degrade <> Admission.Full then Metrics.incr t.m_shed;
  match job.j_sink with
  | Batch mail -> run_batch_job t w job mail degrade
  | Stream ob -> run_stream_job t w job ob degrade

let worker_loop (t : t) () : unit =
  let w = Engine.worker t.engine in
  let rec loop () =
    match Admission.pop t.queue with
    | None -> ()  (* closed and drained *)
    | Some (job, degrade) ->
        run_job t w job degrade;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let stats_json (t : t) : Json.t =
  let a = Admission.stats t.queue in
  let sessions_open = with_sessions t (fun () -> Hashtbl.length t.sessions) in
  let v c = Json.Int (Metrics.counter_value c) in
  Protocol.ok
    [
      ( "server",
        Json.Obj
          [
            ("version", Json.Int Protocol.version);
            ("uptime_s", Json.float (now () -. t.started_at));
            ("stopping", Json.Bool t.stopping);
            ("sessions_open", Json.Int sessions_open);
            ( "benchmarks",
              Json.List
                (List.map
                   (fun n -> Json.String n)
                   (Engine.bench_names t.engine)) );
          ] );
      ( "transport",
        Json.Obj
          [
            ( "listeners",
              Json.List
                (List.map
                   (fun (_, a) -> Json.String (Addr.to_string a))
                   t.listeners) );
            ("accept_errors", v t.m_accept_errors);
            ("heartbeats", v t.m_heartbeats);
            ("streams_opened", v t.m_streams_opened);
            ("streams_cancelled", v t.m_streams_cancelled);
            ("streams_aborted", v t.m_streams_aborted);
            ("stream_items", v t.m_stream_items);
            ("backpressure_sheds", v t.m_bp_sheds);
            ("version_mismatches", v t.m_version_mismatch);
            ( "journal",
              match t.journal with
              | None -> Json.Null
              | Some j ->
                  Json.Obj
                    [
                      ("entries", Json.Int (Journal.entries j));
                      ("appended", v t.m_journal_appended);
                      ("replayed", v t.m_journal_replayed);
                      ("replay_failed", v t.m_journal_replay_failed);
                      ("truncated_bytes", v t.m_journal_truncated);
                    ] );
          ] );
      ( "admission",
        Json.Obj
          [
            ("state", Json.String (Admission.state_name t.queue));
            ("depth", Json.Int a.Admission.depth);
            ("capacity", Json.Int a.Admission.capacity);
            ("admitted_full", Json.Int a.Admission.admitted_full);
            ("shed_cheap", Json.Int a.Admission.shed_cheap);
            ("shed_cached", Json.Int a.Admission.shed_cached);
            ("rejected", Json.Int a.Admission.rejected);
          ] );
      ( "engine",
        Json.Obj
          [
            ("coalesced", Json.Int (Engine.coalesced_count t.engine));
            ("caches", Engine.cache_stats_json t.engine);
          ] );
      ("metrics", Json.of_string (Metrics.to_json t.cfg.metrics));
    ]

let wake_accept (t : t) : unit =
  (* a throwaway self-connection unblocks the accept thread's [select] so
     it can observe [stopping]; every failure mode here means accept is
     already awake *)
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
       with _ -> ());
      (try Unix.close fd with _ -> ())

let request_stop (t : t) : unit =
  if not t.stopping then begin
    t.stopping <- true;
    Admission.close t.queue;
    (* unblock readers stuck on dead clients *)
    with_sessions t (fun () ->
        Hashtbl.iter
          (fun _ s -> try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with _ -> ())
          t.sessions);
    wake_accept t
  end

(* Deadline of a request: explicit [deadline_ms], else the configured
   default, as an absolute clock value. *)
let deadline_of (t : t) (deadline_ms : float option) : float option =
  match
    (match deadline_ms with Some _ -> deadline_ms | None -> t.cfg.default_deadline_ms)
  with
  | Some ms -> Some (now () +. (ms /. 1000.0))
  | None -> None

let submit_ask (t : t) ~(bench : string)
    ~(qs : Protocol.wire_query list) ~(deadline_ms : float option) :
    (Protocol.answer list, Protocol.err) result =
  match Engine.find_bench t.engine bench with
  | None -> Error (Protocol.unknown_bench bench)
  | Some b -> (
      let mail =
        { mm = Mutex.create (); mc = Condition.create (); result = None }
      in
      let job =
        {
          j_bench = b;
          j_queries = qs;
          j_deadline = deadline_of t deadline_ms;
          j_sink = Batch mail;
        }
      in
      match Admission.submit t.queue job with
      | Admission.Admitted _ ->
          Metrics.add t.m_queue_depth 1;
          collect mail
      | Admission.Overloaded retry_after_ms ->
          Metrics.incr t.m_rejected;
          Error (Protocol.overloaded ~retry_after_ms)
      | Admission.Closed ->
          Metrics.incr t.m_rejected;
          Error Protocol.shutting_down)

(* Journal an accepted mutation. The op already succeeded in memory; an
   append failure (disk full, journal closed) degrades durability but
   must not un-accept the op — it is counted and the reply still stands. *)
let journal_append (t : t) (e : Journal.entry) : unit =
  match t.journal with
  | None -> ()
  | Some j -> (
      match Journal.append j e with
      | () -> Metrics.incr t.m_journal_appended
      | exception _ -> Metrics.incr t.m_journal_append_failed)

let handle_request (t : t) (req : Protocol.request) : Json.t =
  match req with
  | Protocol.Hello { client = _ } ->
      Protocol.ok
        [
          ("server", Json.String "scaf-eval");
          ("version", Json.Int Protocol.version);
          ( "benchmarks",
            Json.List
              (List.map (fun n -> Json.String n) (Engine.bench_names t.engine))
          );
        ]
  | Protocol.Ping -> Protocol.ok []
  | Protocol.Stats -> stats_json t
  | Protocol.Cancel ->
      (* a cancel outside a live stream is a harmless no-op *)
      Protocol.ok [ ("cancelled", Json.Bool false) ]
  | Protocol.Queries { bench } -> (
      match Engine.find_bench t.engine bench with
      | Some b -> Protocol.ok [ ("workload", Engine.queries_json b) ]
      | None -> Protocol.err_to_json (Protocol.unknown_bench bench))
  | Protocol.Report { bench } -> (
      match Engine.find_bench t.engine bench with
      | Some b ->
          Protocol.ok
            [ ("row", Protocol.fig8_row_to_json (Engine.report_row t.engine b)) ]
      | None -> Protocol.err_to_json (Protocol.unknown_bench bench))
  | Protocol.Edit { bench; edits } -> (
      (* inline, like Report: edits are rare, administrative, and must be
         serialized per benchmark anyway (the engine's bench mutex) *)
      match Engine.find_bench t.engine bench with
      | None -> Protocol.err_to_json (Protocol.unknown_bench bench)
      | Some b -> (
          match Engine.apply_edit t.engine b edits with
          | Ok (diff, stats) ->
              journal_append t (Journal.Edit { bench; edits });
              Protocol.ok
                [
                  ( "edit",
                    Protocol.edit_report_to_json
                      (Protocol.edit_report_of diff stats) );
                ]
          | Error diags ->
              Protocol.err_to_json (Protocol.edit_rejected diags)))
  | Protocol.Submit { prog } -> (
      (* inline, like Edit: a submission is rare and administrative; the
         lint gate runs before the expensive profiling, so a malformed
         program is rejected without burning worker time *)
      match
        Engine.submit t.engine ~max_est_queries:t.cfg.max_submit_queries prog
      with
      | Ok (report, _b) ->
          Metrics.incr (Metrics.counter t.cfg.metrics "lint.submit.accepted");
          journal_append t (Journal.Submit prog);
          Protocol.ok
            [ ("submitted", Protocol.submit_report_to_json report) ]
      | Error e ->
          Metrics.incr (Metrics.counter t.cfg.metrics "lint.submit.rejected");
          Protocol.err_to_json e)
  | Protocol.Ask { bench; q; deadline_ms } -> (
      match submit_ask t ~bench ~qs:[ q ] ~deadline_ms with
      | Ok [ a ] -> Protocol.ok [ ("answer", Protocol.answer_to_json a) ]
      | Ok _ -> Protocol.err_to_json (Protocol.internal "answer count mismatch")
      | Error e -> Protocol.err_to_json e)
  | Protocol.Ask_many { bench; qs; deadline_ms; stream = _ } -> (
      (* [stream = true] never reaches here (the connection thread owns
         the streaming path); treat a stray one as the batch fallback *)
      match submit_ask t ~bench ~qs ~deadline_ms with
      | Ok answers ->
          Protocol.ok
            [ ("answers", Json.List (List.map Protocol.answer_to_json answers)) ]
      | Error e -> Protocol.err_to_json e)
  | Protocol.Shutdown ->
      (* reply first; the teardown happens after the frame is on the wire *)
      Protocol.ok [ ("stopping", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* Streaming replies                                                   *)
(* ------------------------------------------------------------------ *)

(* Drain a streaming job's outbox onto the wire. Runs on the connection
   thread. Returns [`Keep] when the connection can keep serving requests
   and [`Drop] when the stream died in a way that loses framing (slow
   consumer, vanished peer). The outbox wait also watches the client
   socket, so a [cancel] frame is read as soon as it lands; any other
   pipelined request mid-stream is ignored by protocol contract. *)
let pump_stream (t : t) (s : session) (buf : Wire.buffers) (ob : outbox) :
    [ `Keep | `Drop ] =
  let items = ref 0 in
  let last_write = ref (now ()) in
  let write j =
    match Wire.write_frame ~write_budget:t.cfg.write_budget ~buf s.fd j with
    | Ok () ->
        last_write := now ();
        true
    | Error _ -> false
  in
  (* false when the consumer is gone: EOF or broken framing mid-stream *)
  let read_control () =
    match
      Wire.read_frame ~max_len:t.cfg.max_frame ~frame_budget:t.cfg.frame_budget
        ~buf s.fd
    with
    | Ok j ->
        (match Protocol.request_of_json j with
        | Protocol.Cancel -> outbox_cancel ob
        | _ -> ()
        | exception _ -> ());
        true
    | Error Wire.Idle -> true
    | Error _ -> false
  in
  let abort () =
    outbox_close ob;
    Metrics.incr t.m_streams_aborted;
    `Drop
  in
  (* note: [t.stopping] is deliberately not checked here — an admitted
     streaming job drains through the worker pool on shutdown, and this
     pump keeps running so its answers are not silently dropped *)
  let rec pump () =
    match outbox_take ~sock:s.fd ob ~max_wait:0.2 with
    | exception Unix.Unix_error _ -> abort ()
    | `Readable -> if read_control () then pump () else abort ()
    | `Item (i, a) ->
        if write (Protocol.stream_item_to_json i a) then begin
          incr items;
          Metrics.incr t.m_stream_items;
          pump ()
        end
        else abort ()
    | `Err e ->
        (* stream aborted server-side (overrun / worker crash): report
           and hang up — mid-stream framing cannot be resumed *)
        Metrics.incr t.m_streams_aborted;
        ignore (write (Protocol.err_to_json e));
        `Drop
    | `Done ->
        let cancelled = with_outbox ob (fun () -> ob.o_cancel) in
        if cancelled then Metrics.incr t.m_streams_cancelled;
        let summary =
          {
            Protocol.st_count = !items;
            st_shed = with_outbox ob (fun () -> ob.o_shed);
            st_cancelled = cancelled;
          }
        in
        if write (Protocol.stream_end_to_json summary) then `Keep else `Drop
    | `Timeout ->
        (* the next answer is still cooking: heartbeat so the client
           (and any NAT in between) knows the stream is alive *)
        if
          t.cfg.heartbeat_interval > 0.0
          && now () -. !last_write > t.cfg.heartbeat_interval
        then
          if write Protocol.stream_heartbeat_json then begin
            Metrics.incr t.m_heartbeats;
            pump ()
          end
          else abort ()
        else pump ()
  in
  Metrics.incr t.m_streams_opened;
  pump ()

(* Admit and serve one streaming [ask_many]. Admission errors are ordinary
   reply frames (the stream never opened). *)
let handle_stream (t : t) (s : session) (buf : Wire.buffers) ~(bench : string)
    ~(qs : Protocol.wire_query list) ~(deadline_ms : float option) :
    [ `Keep | `Drop ] =
  let reply_err e =
    match
      Wire.write_frame ~write_budget:t.cfg.write_budget ~buf s.fd
        (Protocol.err_to_json e)
    with
    | Ok () -> `Keep
    | Error _ -> `Drop
  in
  match Engine.find_bench t.engine bench with
  | None -> reply_err (Protocol.unknown_bench bench)
  | Some b -> (
      match outbox_create ~cap:t.cfg.outbox_cap ~grace:t.cfg.stream_grace with
      | exception Unix.Unix_error _ ->
          (* out of fds for the wake pair: a transient overload *)
          Metrics.incr t.m_rejected;
          reply_err (Protocol.overloaded ~retry_after_ms:100.0)
      | ob -> (
          let job =
            {
              j_bench = b;
              j_queries = qs;
              j_deadline = deadline_of t deadline_ms;
              j_sink = Stream ob;
            }
          in
          match Admission.submit t.queue job with
          | Admission.Admitted _ ->
              Metrics.add t.m_queue_depth 1;
              Fun.protect
                ~finally:(fun () -> outbox_release ob)
                (fun () -> pump_stream t s buf ob)
          | Admission.Overloaded retry_after_ms ->
              (* no producer will run: release both holds *)
              outbox_release ob;
              outbox_release ob;
              Metrics.incr t.m_rejected;
              reply_err (Protocol.overloaded ~retry_after_ms)
          | Admission.Closed ->
              outbox_release ob;
              outbox_release ob;
              Metrics.incr t.m_rejected;
              reply_err Protocol.shutting_down))

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)
(* ------------------------------------------------------------------ *)

let close_session (t : t) (s : session) : unit =
  let removed =
    with_sessions t (fun () ->
        if Hashtbl.mem t.sessions s.sid then begin
          Hashtbl.remove t.sessions s.sid;
          true
        end
        else false)
  in
  if removed then Metrics.add t.m_sessions_open (-1);
  (try Unix.close s.fd with _ -> ())

let serve_connection (t : t) (s : session) : unit =
  Fun.protect
    ~finally:(fun () -> close_session t s)
    (fun () ->
      (* the receive timeout turns a quiet socket into periodic [Idle]
         results, giving this thread a heartbeat to notice stop/reap;
         the send timeout turns a wedged peer into EAGAIN ticks that the
         write budget converts into a failed write *)
      (try Unix.setsockopt_float s.fd Unix.SO_RCVTIMEO 0.2 with _ -> ());
      (try Unix.setsockopt_float s.fd Unix.SO_SNDTIMEO 0.2 with _ -> ());
      let buf = Wire.buffers () in
      let last_write = ref (now ()) in
      let write j =
        match Wire.write_frame ~write_budget:t.cfg.write_budget ~buf s.fd j with
        | Ok () ->
            last_write := now ();
            true
        | Error _ -> false
      in
      let rec loop () =
        if t.stopping || s.reaped then ()
        else
          match
            Wire.read_frame ~max_len:t.cfg.max_frame
              ~frame_budget:t.cfg.frame_budget ~buf s.fd
          with
          | Error Wire.Idle ->
              (* keepalive: a quiet-but-alive connection gets a heartbeat
                 frame; a dead peer fails the write and we hang up *)
              if
                t.cfg.heartbeat_interval > 0.0
                && now () -. !last_write > t.cfg.heartbeat_interval
              then begin
                if write Protocol.stream_heartbeat_json then begin
                  Metrics.incr t.m_heartbeats;
                  loop ()
                end
              end
              else loop ()
          | Error Wire.Closed -> ()
          | Error (Wire.Truncated _ as e) | Error (Wire.Oversized _ as e) ->
              (* framing is lost — answer if possible, then hang up *)
              Metrics.incr t.m_bad_frames;
              ignore
                (write
                   (Protocol.err_to_json
                      (Protocol.bad_request (Wire.error_to_string e))))
          | Error (Wire.Bad_json msg) ->
              (* the frame was well-delimited: report and keep serving *)
              Metrics.incr t.m_bad_frames;
              if write
                   (Protocol.err_to_json
                      (Protocol.bad_request ("bad json: " ^ msg)))
              then loop ()
          | Ok j -> (
              s.last_active <- now ();
              Metrics.incr t.m_requests;
              (* the version gate runs before the op parser so vocabulary
                 drift between releases surfaces as [version_mismatch],
                 never as a confusing parse failure *)
              match Protocol.request_version j with
              | got when got <> Some Protocol.version ->
                  Metrics.incr t.m_version_mismatch;
                  if write
                       (Protocol.err_to_json (Protocol.version_mismatch ~got))
                  then loop ()
              | _ -> (
                  let t0 = now () in
                  match Protocol.request_of_json j with
                  | Protocol.Ask_many { bench; qs; deadline_ms; stream = true }
                    -> (
                      match handle_stream t s buf ~bench ~qs ~deadline_ms with
                      | `Keep ->
                          last_write := now ();
                          Metrics.incr t.m_answered;
                          Metrics.observe t.m_request_latency (now () -. t0);
                          loop ()
                      | `Drop -> ())
                  | req ->
                      let reply, is_shutdown =
                        match req with
                        | Protocol.Shutdown -> (handle_request t req, true)
                        | _ -> (handle_request t req, false)
                      in
                      (match Json.member "ok" reply with
                      | Some (Json.Bool true) -> Metrics.incr t.m_answered
                      | _ -> ());
                      Metrics.observe t.m_request_latency (now () -. t0);
                      if write reply then
                        if is_shutdown then request_stop t else loop ()
                  | exception Json.Parse_error msg ->
                      if write
                           (Protocol.err_to_json (Protocol.bad_request msg))
                      then loop ()
                  | exception e ->
                      if write
                           (Protocol.err_to_json
                              (Protocol.internal (Printexc.to_string e)))
                      then loop ()))
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Reaper                                                              *)
(* ------------------------------------------------------------------ *)

let reaper_loop (t : t) () : unit =
  while not t.stopping do
    Thread.delay (Float.min 0.5 (t.cfg.idle_timeout /. 2.0));
    let stale =
      with_sessions t (fun () ->
          Hashtbl.fold
            (fun _ s acc ->
              if
                (not s.reaped)
                && now () -. s.last_active > t.cfg.idle_timeout
              then begin
                s.reaped <- true;
                s :: acc
              end
              else acc)
            t.sessions [])
    in
    List.iter
      (fun s ->
        Metrics.incr t.m_sessions_reaped;
        (* wake the connection thread's blocked read; it closes the fd *)
        try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with _ -> ())
      stale
  done

(* ------------------------------------------------------------------ *)
(* Listening socket lifecycle                                          *)
(* ------------------------------------------------------------------ *)

(** A socket file with no listener behind it (e.g. after [kill -9]) is
    stale and silently removed; a live listener is a hard error. *)
let prepare_socket_path (path : string) : unit =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception _ -> false
    in
    (try Unix.close probe with _ -> ());
    if live then
      failwith (Printf.sprintf "daemon already listening on %s" path)
    else Unix.unlink path
  end

let spawn_session (t : t) (addr : Addr.t) (fd : Unix.file_descr)
    (conn_threads : Thread.t list ref) : unit =
  Addr.tune_accepted addr fd;
  let s =
    with_sessions t (fun () ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let s = { sid; fd; peer = ""; last_active = now (); reaped = false } in
        Hashtbl.add t.sessions sid s;
        s)
  in
  Metrics.incr t.m_sessions_opened;
  Metrics.add t.m_sessions_open 1;
  conn_threads :=
    Thread.create (fun () -> serve_connection t s) () :: !conn_threads

let accept_loop (t : t) (workers : Thread.t list) (reaper : Thread.t) () :
    unit =
  let conn_threads = ref [] in
  let lfds = List.map fst t.listeners in
  (* transient-failure backoff (EMFILE and friends): exponential from
     10 ms, capped at 1 s, reset by the next successful accept *)
  let backoff = ref 0.01 in
  (try
     while not t.stopping do
       match Unix.select lfds [] [] 0.5 with
       | ready, _, _ ->
           List.iter
             (fun lfd ->
               let addr = List.assq lfd t.listeners in
               match Unix.accept lfd with
               | fd, _ ->
                   backoff := 0.01;
                   if t.stopping then (try Unix.close fd with _ -> ())
                   else spawn_session t addr fd conn_threads
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | exception
                   Unix.Unix_error
                     ( ( Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED
                       | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS
                       | Unix.ECONNRESET ),
                       _,
                       _ ) ->
                   (* transient: count, back off boundedly, keep serving *)
                   Metrics.incr t.m_accept_errors;
                   Thread.delay !backoff;
                   backoff := Float.min 1.0 (!backoff *. 2.0)
               | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _)
                 ->
                   (* listening fd torn down under us: only valid during
                      stop *)
                   if not t.stopping then raise Exit)
             ready
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
           if not t.stopping then raise Exit
     done
   with Exit -> ());
  (* teardown: the accept thread owns the final cleanup *)
  request_stop t;
  List.iter Thread.join !conn_threads;
  List.iter Thread.join workers;
  Thread.join reaper;
  Engine.shutdown t.engine;
  List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
  (match t.journal with Some j -> Journal.close j | None -> ());
  try Unix.unlink t.cfg.socket_path with _ -> ()

(* Replay journaled mutations through the same pipeline live requests
   take. A replay failure (e.g. the lint rules tightened since the entry
   was accepted) degrades to a counter, not a crash: the daemon serves
   what it can recover. *)
let replay_journal (t : t) (entries : Journal.entry list) : unit =
  List.iter
    (fun e ->
      let ok =
        match e with
        | Journal.Submit prog -> (
            match
              Engine.submit t.engine
                ~max_est_queries:t.cfg.max_submit_queries prog
            with
            | Ok _ -> true
            | Error _ -> false
            | exception _ -> false)
        | Journal.Edit { bench; edits } -> (
            match Engine.find_bench t.engine bench with
            | None -> false
            | Some b -> (
                match Engine.apply_edit t.engine b edits with
                | Ok _ -> true
                | Error _ -> false
                | exception _ -> false))
      in
      Metrics.incr
        (if ok then t.m_journal_replayed else t.m_journal_replay_failed))
    entries

(** [start cfg] — load the benchmarks (the slow part), bind and listen,
    replay the journal if [state_dir] is set, spawn the service threads,
    return the running daemon. Every listener accepts connections by the
    time this returns. *)
let start (cfg : config) : t =
  (* a dead peer must error the writer, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let engine =
    Engine.create ~wrap:cfg.wrap ~static_nodep:cfg.static_nodep
      ~metrics:cfg.metrics ~jobs:cfg.jobs ~benchmarks:cfg.benchmarks ()
  in
  prepare_socket_path cfg.socket_path;
  let unix_addr = Addr.Unix_path cfg.socket_path in
  let unix_fd = Addr.listen unix_addr in
  let tcp_listener =
    match cfg.tcp with
    | None -> []
    | Some spec -> (
        let a = Addr.of_string ("tcp:" ^ spec) in
        match Addr.listen a with
        | fd -> [ (fd, Addr.bound fd a) ]
        | exception e ->
            (try Unix.close unix_fd with _ -> ());
            (try Unix.unlink cfg.socket_path with _ -> ());
            raise e)
  in
  let journal, journal_entries, recovery =
    match cfg.state_dir with
    | None -> (None, [], None)
    | Some dir ->
        let j, entries, r = Journal.open_and_replay ~dir in
        (Some j, entries, Some r)
  in
  let m = cfg.metrics in
  let t =
    {
      cfg;
      engine;
      listeners = (unix_fd, unix_addr) :: tcp_listener;
      journal;
      queue = Admission.create cfg.admission;
      sessions = Hashtbl.create 16;
      sm = Mutex.create ();
      next_sid = 1;
      stopping = false;
      started_at = now ();
      accept_thread = None;
      m_requests = Metrics.counter m "server.requests";
      m_answered = Metrics.counter m "server.answered";
      m_rejected = Metrics.counter m "server.rejected";
      m_shed = Metrics.counter m "server.shed";
      m_deadline_miss = Metrics.counter m "server.deadline_miss";
      m_coalesced = Metrics.counter m "server.coalesced";
      m_sessions_opened = Metrics.counter m "server.sessions.opened";
      m_sessions_open = Metrics.counter m "server.sessions.open";
      m_sessions_reaped = Metrics.counter m "server.sessions.reaped";
      m_bad_frames = Metrics.counter m "server.bad_frames";
      m_queue_depth = Metrics.counter m "server.queue_depth";
      m_request_latency = Metrics.histogram m "server.request_latency_s";
      m_accept_errors = Metrics.counter m "server.accept_errors";
      m_heartbeats = Metrics.counter m "server.heartbeats";
      m_streams_opened = Metrics.counter m "server.streams.opened";
      m_streams_cancelled = Metrics.counter m "server.streams.cancelled";
      m_streams_aborted = Metrics.counter m "server.streams.aborted";
      m_stream_items = Metrics.counter m "server.streams.items";
      m_bp_sheds = Metrics.counter m "server.backpressure.sheds";
      m_version_mismatch = Metrics.counter m "server.version_mismatch";
      m_journal_appended = Metrics.counter m "server.journal.appended";
      m_journal_append_failed =
        Metrics.counter m "server.journal.append_failed";
      m_journal_replayed = Metrics.counter m "server.journal.replayed";
      m_journal_replay_failed =
        Metrics.counter m "server.journal.replay_failed";
      m_journal_truncated =
        Metrics.counter m "server.journal.truncated_bytes";
    }
  in
  (match recovery with
  | Some r ->
      Metrics.add t.m_journal_truncated r.Journal.truncated_bytes;
      replay_journal t journal_entries
  | None -> ());
  let workers =
    List.init (max 1 cfg.workers) (fun _ -> Thread.create (worker_loop t) ())
  in
  let reaper = Thread.create (reaper_loop t) () in
  t.accept_thread <- Some (Thread.create (accept_loop t workers reaper) ());
  t

(** The endpoint strings this daemon is actually serving on — the TCP one
    has any requested port 0 resolved to the kernel-assigned port, so a
    test can start on an ephemeral port and learn where to connect. *)
let endpoints (t : t) : string list =
  List.map (fun (_, a) -> Addr.to_string a) t.listeners

(** The TCP endpoint (["tcp:HOST:PORT"]) if one is listening. *)
let tcp_endpoint (t : t) : string option =
  List.find_map
    (function
      | _, (Addr.Tcp _ as a) -> Some (Addr.to_string a) | _ -> None)
    t.listeners

(** Block until the daemon has fully stopped (socket unlinked). *)
let wait (t : t) : unit =
  match t.accept_thread with Some th -> Thread.join th | None -> ()

(** Stop the daemon and wait for the teardown to finish. Idempotent. *)
let stop (t : t) : unit =
  request_stop t;
  wait t

(** [run cfg] — start and serve until a [shutdown] request (or a stop from
    another thread) tears the daemon down. *)
let run (cfg : config) : unit = wait (start cfg)
