(** In-memory span recorder for the traced run.

    The benchmark wraps each call it makes into a SCAF layer in
    {!with_}. With tracing off (the default) {!with_} is a plain call, so
    untraced timings carry no recording cost. With tracing on, every span
    records its name, start, end and parent; per-name aggregates (call
    count, total time, self time, per-call self-time samples) are kept
    for every span, and the first {!max_events} spans are also kept as
    events for the Chrome [trace_event] export written at the end.

    A span's self time is its duration minus the time covered by its
    direct children. *)

let on = ref false

type event = {
  ev_name : string;
  ev_id : int;
  ev_parent : int;  (** -1 at the root *)
  ev_t0 : float;  (** seconds, {!Clock.now} *)
  ev_t1 : float;
}

type agg = {
  mutable calls : int;
  mutable total : float;  (** seconds, children included *)
  mutable self : float;  (** seconds, children excluded *)
  mutable child : float;  (** seconds covered by direct children *)
  mutable samples : float list;  (** per-call self time, seconds *)
}

type frame = { f_id : int; mutable f_child : float }

let max_events = 200_000
let events : event list ref = ref []
let n_events = ref 0
let next_id = ref 0
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []

let agg_of name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total = 0.0; self = 0.0; child = 0.0; samples = [] } in
      Hashtbl.replace aggs name a;
      order := name :: !order;
      a

let close name (fr : frame) parent t0 =
  let t1 = Clock.now () in
  let dur = t1 -. t0 in
  stack := List.tl !stack;
  (match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
  let a = agg_of name in
  a.calls <- a.calls + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. fr.f_child);
  a.child <- a.child +. fr.f_child;
  a.samples <- (dur -. fr.f_child) :: a.samples;
  if !n_events < max_events then begin
    incr n_events;
    events :=
      { ev_name = name; ev_id = fr.f_id; ev_parent = parent; ev_t0 = t0; ev_t1 = t1 }
      :: !events
  end

(** [with_ name f] — run [f ()] inside a span called [name]. *)
let with_ (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    let fr = { f_id = !next_id; f_child = 0.0 } in
    incr next_id;
    stack := fr :: !stack;
    let t0 = Clock.now () in
    match f () with
    | v ->
        close name fr parent t0;
        v
    | exception e ->
        close name fr parent t0;
        raise e
  end

(** Record an externally measured duration as a childless span sample
    (e.g. a gap observed between two streamed frames). *)
let sample (name : string) (seconds : float) : unit =
  if !on then begin
    let a = agg_of name in
    a.calls <- a.calls + 1;
    a.total <- a.total +. seconds;
    a.self <- a.self +. seconds;
    a.samples <- seconds :: a.samples
  end

let find (name : string) : agg option = Hashtbl.find_opt aggs name

(** Median per-call self time of span [name], in seconds. *)
let self_median (name : string) : float option =
  match Hashtbl.find_opt aggs name with
  | Some { samples = _ :: _ as s; _ } -> Some (Stats.median s)
  | _ -> None

(** Share of [name]'s total time covered by its direct child spans. *)
let coverage (name : string) : float option =
  match Hashtbl.find_opt aggs name with
  | Some a when a.total > 0.0 -> Some (a.child /. a.total)
  | _ -> None

(** Per-name table, in first-seen order: calls, total and self time. *)
let table () : (string * agg) list =
  List.rev_map (fun n -> (n, Hashtbl.find aggs n)) !order

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write the recorded events as Chrome [trace_event] JSON (complete "X"
    events; microsecond timestamps relative to the first event). *)
let write_chrome (path : string) : unit =
  let evs = List.rev !events in
  let base = match evs with e :: _ -> e.ev_t0 | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_char oc ',';
      let cat =
        match String.index_opt e.ev_name '.' with
        | Some k -> String.sub e.ev_name 0 k
        | None -> e.ev_name
      in
      Printf.fprintf oc
        "\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string e.ev_name) (json_string cat)
        ((e.ev_t0 -. base) *. 1e6)
        ((e.ev_t1 -. e.ev_t0) *. 1e6)
        e.ev_id e.ev_parent)
    evs;
  output_string oc "\n]}\n";
  close_out oc
