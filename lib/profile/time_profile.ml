(** Loop-time profiler: attributes executed instructions to the loops
    active at the time (callee work counts toward the caller's loops) and
    counts iterations and invocations. Drives hot-loop selection (§5):
    loops with >= 10% of total execution time and >= 50 iterations per
    invocation on average. *)

type counts = {
  mutable instrs : int;  (** executed while the loop was active *)
  mutable iterations : int;
  mutable invocations : int;
}

type t = {
  loops : (string, counts) Hashtbl.t;
  mutable total : int;
  mutable under : Tracker.active list;
      (** the loops the [pending] instructions ran under *)
  mutable pending : int;  (** instructions not yet added to [loops] *)
}

let create () : t =
  {
    loops = Hashtbl.create 32;
    total = 0;
    under = [];
    pending = 0;
  }

let counts (t : t) (lid : string) : counts =
  match Hashtbl.find_opt t.loops lid with
  | Some c -> c
  | None ->
      let c = { instrs = 0; iterations = 0; invocations = 0 } in
      Hashtbl.replace t.loops lid c;
      c

(** Add the pending instructions to their loops. Call at the end of every
    run, before reading the instruction counts. *)
let flush (t : t) =
  (* A loop can appear once per frame; attribute once per distinct lid. *)
  let rec go seen = function
    | [] -> ()
    | (a : Tracker.active) :: tl ->
        if List.mem a.Tracker.lid seen then go seen tl
        else begin
          let c = counts t a.Tracker.lid in
          c.instrs <- c.instrs + t.pending;
          go (a.Tracker.lid :: seen) tl
        end
  in
  if t.pending > 0 then go [] t.under;
  t.under <- [];
  t.pending <- 0

(* The tracker hands out the same active list until the loop state
   changes, so instructions are counted per stretch of unchanged state. *)
let record_instr (t : t) (actives : Tracker.active list) =
  t.total <- t.total + 1;
  if actives != t.under then begin
    flush t;
    t.under <- actives
  end;
  t.pending <- t.pending + 1

let record_iteration (t : t) ~(lid : string) =
  let c = counts t lid in
  c.iterations <- c.iterations + 1

let record_invocation (t : t) ~(lid : string) =
  let c = counts t lid in
  c.invocations <- c.invocations + 1

let get (t : t) (lid : string) (f : counts -> int) : int =
  match Hashtbl.find_opt t.loops lid with Some c -> f c | None -> 0

(** Instructions executed while [lid] was active. *)
let instructions (t : t) ~(lid : string) : int = get t lid (fun c -> c.instrs)

let iterations (t : t) ~(lid : string) : int = get t lid (fun c -> c.iterations)
let invocations (t : t) ~(lid : string) : int = get t lid (fun c -> c.invocations)

let time_fraction (t : t) ~(lid : string) : float =
  if t.total = 0 then 0.0
  else float_of_int (instructions t ~lid) /. float_of_int t.total

let avg_iterations (t : t) ~(lid : string) : float =
  let iters = iterations t ~lid and invs = invocations t ~lid in
  if invs = 0 then 0.0 else float_of_int iters /. float_of_int invs

(** Hot loops per the paper's selection rule. *)
let hot_loops ?(min_fraction = 0.10) ?(min_avg_iters = 50.0) (t : t) :
    string list =
  Hashtbl.fold
    (fun lid c acc ->
      if
        c.instrs > 0
        && time_fraction t ~lid >= min_fraction
        && avg_iterations t ~lid >= min_avg_iters
      then lid :: acc
      else acc)
    t.loops []
  |> List.sort String.compare
