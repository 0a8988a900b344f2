(** Loop-time profiler: attributes executed instructions to the loops
    active at the time (callee work counts toward the caller's loops) and
    counts iterations and invocations. Drives hot-loop selection (§5):
    loops with >= 10% of total execution time and >= 50 iterations per
    invocation on average. *)

type t = {
  per_loop : (string, int) Hashtbl.t;
  iterations : (string, int) Hashtbl.t;
  invocations : (string, int) Hashtbl.t;
  mutable total : int;
  mutable under : Tracker.active list;
      (** the loops the [pending] instructions ran under *)
  mutable pending : int;  (** instructions not yet added to [per_loop] *)
}

let create () : t =
  {
    per_loop = Hashtbl.create 32;
    iterations = Hashtbl.create 32;
    invocations = Hashtbl.create 32;
    total = 0;
    under = [];
    pending = 0;
  }

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(** Add the pending instructions to their loops. Call at the end of every
    run, before reading [per_loop]. *)
let flush (t : t) =
  (* A loop can appear once per frame; attribute once per distinct lid. *)
  let rec go seen = function
    | [] -> ()
    | (a : Tracker.active) :: tl ->
        if List.mem a.Tracker.lid seen then go seen tl
        else begin
          bump t.per_loop a.Tracker.lid t.pending;
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

let record_iteration (t : t) ~(lid : string) = bump t.iterations lid 1
let record_invocation (t : t) ~(lid : string) = bump t.invocations lid 1

let time_fraction (t : t) ~(lid : string) : float =
  if t.total = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.per_loop lid))
    /. float_of_int t.total

let avg_iterations (t : t) ~(lid : string) : float =
  let iters = Option.value ~default:0 (Hashtbl.find_opt t.iterations lid) in
  let invs = Option.value ~default:0 (Hashtbl.find_opt t.invocations lid) in
  if invs = 0 then 0.0 else float_of_int iters /. float_of_int invs

(** Hot loops per the paper's selection rule. *)
let hot_loops ?(min_fraction = 0.10) ?(min_avg_iters = 50.0) (t : t) :
    string list =
  Hashtbl.fold
    (fun lid _ acc ->
      if
        time_fraction t ~lid >= min_fraction
        && avg_iterations t ~lid >= min_avg_iters
      then lid :: acc
      else acc)
    t.per_loop []
  |> List.sort String.compare
