(** Loop-invocation/iteration tracker.

    Listens to interpreter edge and call events and maintains, at every
    moment, the stack of active loop invocations (per call frame) with
    their current iteration numbers. All loop-aware profilers (lifetime,
    memory-dependence, time) are driven by this tracker's listeners and
    snapshots. Instructions executed in callees are attributed to the
    caller's active loops. *)

open Scaf_cfg

type active = {
  lid : string;
  invocation : int;
  mutable iteration : int;  (** 1-based *)
  loop : Loops.loop;
}

type frame = { fname : string; mutable lstack : active list  (** innermost first *) }

type t = {
  loops_of : string -> Loops.t option;
  mutable frames : frame list;  (** innermost first *)
  inv_counter : (string, int) Hashtbl.t;
  mutable cached_actives : active list;  (** all frames, innermost first *)
  mutable cached_snap : (string * int * int) list;
      (** [cached_actives] as an immutable snapshot *)
  mutable on_enter : (active -> unit) list;
  mutable on_iter : (active -> unit) list;  (** fires at every iteration start, including the first *)
  mutable on_exit : (active -> unit) list;
}

let create ~(loops_of : string -> Loops.t option) : t =
  {
    loops_of;
    frames = [];
    inv_counter = Hashtbl.create 32;
    cached_actives = [];
    cached_snap = [];
    on_enter = [];
    on_iter = [];
    on_exit = [];
  }

let add_enter_listener t f = t.on_enter <- t.on_enter @ [ f ]
let add_iter_listener t f = t.on_iter <- t.on_iter @ [ f ]
let add_exit_listener t f = t.on_exit <- t.on_exit @ [ f ]

(* Rebuilt only when a loop is entered, iterated or exited, or a frame is
   pushed or popped, so between those events every caller sees the same
   lists physically. *)
let refresh_cache (t : t) =
  t.cached_actives <- List.concat_map (fun fr -> fr.lstack) t.frames;
  t.cached_snap <-
    List.map (fun a -> (a.lid, a.invocation, a.iteration)) t.cached_actives

(** Active loop invocations, innermost first (across call frames). *)
let actives (t : t) : active list = t.cached_actives

(** Immutable snapshot [(lid, invocation, iteration)] for dependence
    attribution; physically the same list until the loop state changes. *)
let snapshot (t : t) : (string * int * int) list = t.cached_snap

let call_enter (t : t) (fname : string) =
  t.frames <- { fname; lstack = [] } :: t.frames;
  refresh_cache t

let pop_loop (t : t) (fr : frame) =
  match fr.lstack with
  | a :: rest ->
      fr.lstack <- rest;
      List.iter (fun f -> f a) t.on_exit
  | [] -> ()

let call_exit (t : t) =
  (match t.frames with
  | fr :: rest ->
      while fr.lstack <> [] do
        pop_loop t fr
      done;
      t.frames <- rest
  | [] -> ());
  refresh_cache t

(** Unwind everything (end of run or abnormal exit). *)
let finish (t : t) =
  while t.frames <> [] do
    call_exit t
  done

let edge (t : t) ~(func : string) ~(dst : string) =
  match t.frames with
  | [] -> ()
  | fr :: _ -> (
      if not (String.equal fr.fname func) then ()
      else
        match t.loops_of func with
        | None -> ()
        | Some li ->
            let dst_i = Cfg.index_of li.Loops.cfg dst in
            (* leave loops that do not contain the destination *)
            let rec pops popped =
              match fr.lstack with
              | a :: _ when not (Loops.contains a.loop dst_i) ->
                  pop_loop t fr;
                  pops true
              | _ -> popped
            in
            let popped = pops false in
            (* header? *)
            match
              List.find_opt (fun (l : Loops.loop) -> l.Loops.header = dst_i) li.Loops.loops
            with
            | Some l -> (
                match fr.lstack with
                | a :: _ when String.equal a.lid l.Loops.lid ->
                    (* back edge: next iteration *)
                    a.iteration <- a.iteration + 1;
                    List.iter (fun f -> f a) t.on_iter;
                    refresh_cache t
                | _ ->
                    let inv =
                      1
                      + Option.value ~default:0
                          (Hashtbl.find_opt t.inv_counter l.Loops.lid)
                    in
                    Hashtbl.replace t.inv_counter l.Loops.lid inv;
                    let a =
                      { lid = l.Loops.lid; invocation = inv; iteration = 1; loop = l }
                    in
                    fr.lstack <- a :: fr.lstack;
                    List.iter (fun f -> f a) t.on_enter;
                    List.iter (fun f -> f a) t.on_iter;
                    refresh_cache t)
            | None -> if popped then refresh_cache t)
