(** Order statistics over timing samples.

    Quantiles interpolate linearly between order statistics (the
    "type 7" estimator), so a median of an even-sized sample is the mean
    of its two middle values. Every function raises [Invalid_argument] on
    an empty sample: a metric with no samples is a harness bug, never a
    zero. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile_sorted (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile (xs : float list) (q : float) : float =
  quantile_sorted (sorted xs) q

let median (xs : float list) : float = quantile xs 0.5

(** [windowed ~size q xs] — cut [xs] (in arrival order) into consecutive
    windows of [size] samples, take the [q]-quantile of each, and return
    the median of those. A tail latency read this way moves with the
    distribution, not with one unlucky window. A trailing partial window
    counts only when it is the sole window. *)
let windowed ~(size : int) (q : float) (xs : float list) : float =
  let rec chunks acc cur n = function
    | [] -> List.rev (if cur = [] then acc else cur :: acc)
    | x :: tl ->
        if n = size then chunks (cur :: acc) [ x ] 1 tl
        else chunks acc (x :: cur) (n + 1) tl
  in
  let all = chunks [] [] 0 xs in
  let full = List.filter (fun w -> List.length w = size) all in
  match if full = [] then all else full with
  | [] -> invalid_arg "Stats.windowed: empty sample"
  | ws -> median (List.map (fun w -> quantile w q) ws)

let sum (xs : float list) : float = List.fold_left ( +. ) 0.0 xs
