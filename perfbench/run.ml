(** What every workload receives and returns. *)

type env = {
  seed : int;
  seconds : float;  (** length of the measured window *)
  traced : bool;
  exe : string;  (** the [scaf_eval] binary the serve workloads spawn *)
  out_dir : string;  (** scratch directory inside the checkout *)
}

(** Operation accounting: every operation the workload issues counts as
    attempted; one that raised, was rejected, shed, degraded, missed a
    deadline or returned a wrong answer counts as failed. *)
type ops = { mutable attempted : int; mutable failed : int; mutable why : string list }

let ops () = { attempted = 0; failed = 0; why = [] }
let ok (o : ops) = o.attempted <- o.attempted + 1

let fail (o : ops) (msg : string) =
  o.attempted <- o.attempted + 1;
  o.failed <- o.failed + 1;
  if List.length o.why < 10 then o.why <- msg :: o.why

type result = {
  ops : ops;
  metrics : (string * float) list;
      (** untraced: the end-to-end metrics; traced: the per-layer ones *)
  report : string list;  (** human-readable lines printed before the result *)
}

let now = Clock.now

(** [timed f] — [(f (), seconds)]. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** [repeat_until deadline step] — run [step] once, then again until
    the clock passes [deadline]: every measured phase has a sample. *)
let repeat_until (deadline : float) (step : unit -> unit) : unit =
  step ();
  while now () < deadline do
    step ()
  done

(** Peak resident set of a live process, in MiB ([VmHWM] from procfs). *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Per-layer self-time table, coverage of the end-to-end spans, in
    printable form. *)
let span_report ~(e2e : string list) : string list =
  let rows =
    List.map
      (fun (name, (a : Span.agg)) ->
        Printf.sprintf "  %-28s %8d calls %10.3f ms total %10.3f ms self"
          name a.Span.calls (a.Span.total *. 1e3) (a.Span.self *. 1e3))
      (Span.table ())
  in
  let cov =
    List.filter_map
      (fun name ->
        Option.map
          (fun c -> Printf.sprintf "  %-28s %5.1f%% of its time is in child spans" name (100.0 *. c))
          (Span.coverage name))
      e2e
  in
  let cov =
    if e2e = [] then
      [ "  n/a: the daemon runs in another process, so its layers are probed in-process below" ]
    else cov
  in
  ("per-layer self time (raw):" :: rows) @ ("span coverage of end-to-end timings:" :: cov)
