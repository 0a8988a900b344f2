(** Value-prediction profiler: finds loads that returned the same value on
    every profiled execution (last-value prediction with full confidence,
    after Gabbay & Mendelson). *)

type entry = {
  mutable first : int64;
  mutable stable : bool;  (** value identical on every execution so far *)
  mutable count : int;
}

type t = entry Idtbl.t
(** keyed by load instruction id *)

let create () : t = Idtbl.create ()

let record (t : t) ~(load : int) ~(value : int64) =
  match Idtbl.find_opt t load with
  | None -> Idtbl.replace t load { first = value; stable = true; count = 1 }
  | Some e ->
      e.count <- e.count + 1;
      if not (Int64.equal e.first value) then e.stable <- false

(** [predictable t load] is [Some (value, exec_count)] when every profiled
    execution of [load] produced [value]. *)
let predictable (t : t) (load : int) : (int64 * int) option =
  match Idtbl.find_opt t load with
  | Some e when e.stable && e.count > 0 -> Some (e.first, e.count)
  | _ -> None

let exec_count (t : t) (load : int) : int =
  match Idtbl.find_opt t load with Some e -> e.count | None -> 0
