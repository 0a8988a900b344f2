(** Machine-speed normalisation.

    The benchmark shares its cores with other tenants, and their load
    changes how fast the same code runs by up to 2x within a minute. So
    the benchmark runs a fixed yardstick — a short slice of
    allocation-heavy OCaml (a balanced map, a sort, a hash table) that is
    no part of SCAF — interleaved with the measured work on the same core,
    and reports each compute-bound time scaled to a reference speed:

    {v normalised = raw * reference / (mean yardstick slice time nearby) v}

    so a value reads as the time the work would have taken on a core
    where one slice takes {!reference} seconds. Samples are grouped into
    blocks (one program's analysis, a run of requests); the slices run
    inside a block, plus the last slice of the block before, scale the
    samples recorded in it, so a block is bracketed by slices. Times
    dominated by sleeping rather than computing are reported raw.

    The slices run in a helper process ([yardstick.exe], next to the
    driver) that inherits the driver's core. In the driver's own heap a
    slice would also pay the minor and major GC work the analysis left
    behind, so a change to the analysis's allocation would move the
    yardstick with it and partly cancel out of the normalised time. *)

(** One slice's median time in the helper on the 2-core Xeon development
    machine the benchmark was tuned on, under light load. *)
let reference = 0.0007

type t = {
  to_helper : out_channel;
  from_helper : in_channel;
  helper : int;
  mutable spent : float;  (** yardstick seconds in the open block *)
  mutable slices : int;
  mutable last : float;  (** the latest slice, carried into the next block *)
  mutable pending : (float -> unit) list;  (** samples awaiting the factor *)
  mutable factors : float list;  (** one per closed block *)
}

(* End of input stops the helper; the driver waits for it at exit. *)
let stop (t : t) : unit =
  (try close_out t.to_helper with Sys_error _ -> ());
  close_in_noerr t.from_helper;
  try ignore (Unix.waitpid [] t.helper) with Unix.Unix_error _ -> ()

let create () : t =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "yardstick.exe" in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let helper = Unix.create_process exe [| exe |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let t =
    {
      to_helper = Unix.out_channel_of_descr in_w;
      from_helper = Unix.in_channel_of_descr out_r;
      helper; spent = 0.0; slices = 0; last = 0.0; pending = []; factors = [];
    }
  in
  at_exit (fun () -> stop t);
  t

(** Run one yardstick slice and charge it to the open block. *)
let tick (t : t) : unit =
  output_char t.to_helper 'y';
  flush t.to_helper;
  t.last <- float_of_string (input_line t.from_helper);
  t.spent <- t.spent +. t.last;
  t.slices <- t.slices + 1

(** [record t cell x] — raw time [x] belongs to the open block; its
    normalised value is pushed onto [cell] when the block closes. *)
let record (t : t) (cell : float list ref) (x : float) : unit =
  t.pending <- (fun f -> cell := (x *. f) :: !cell) :: t.pending

(** Close the open block: scale its samples and return the factor. *)
let close (t : t) : float =
  if t.slices = 0 then tick t;
  let f = reference *. float_of_int t.slices /. t.spent in
  List.iter (fun k -> k f) (List.rev t.pending);
  t.spent <- t.last;
  t.slices <- 1;
  t.pending <- [];
  t.factors <- f :: t.factors;
  f

(** A line describing how fast the machine ran, for the report. *)
let describe (t : t) : string =
  match t.factors with
  | [] -> "machine speed: no blocks measured"
  | fs ->
      Printf.sprintf
        "machine speed: yardstick factor median %.3f (min %.3f, max %.3f over %d blocks); \
         compute times are raw times multiplied by it"
        (Stats.median fs) (List.fold_left Float.min infinity fs)
        (List.fold_left Float.max neg_infinity fs) (List.length fs)

(** Median factor over the closed blocks: the run-level scale applied to
    per-layer times, which are not sampled block by block. *)
let median_factor (t : t) : float =
  match t.factors with [] -> nan | fs -> Stats.median fs
