(** Loop-invocation/iteration tracker.

    Listens to interpreter edge and call events and maintains, at every
    moment, the stack of active loop invocations (per call frame) with
    their current iteration numbers. All loop-aware profilers (lifetime,
    memory-dependence, time) are driven by this tracker's listeners and
    snapshots. Instructions executed in callees are attributed to the
    caller's active loops. Functions and blocks are known by the indices
    the interpreter's hooks give ({!Scaf_interp.Code}); each function's
    loop nest is resolved against them once per run. *)

open Scaf_cfg
open Scaf_interp

type active = {
  lid : string;
  invocation : int;
  mutable iteration : int;  (** 1-based *)
  loop : Loops.loop;
}

(* A function's loop nest, indexed by the hooks' label indices. *)
type nest = {
  li : Loops.t;
  cfg_of : int array;  (** label index -> CFG block index, -1 if none *)
  header_of : Loops.loop option array;  (** CFG block -> loop it heads *)
}

type frame = { fid : int; nest : nest option; mutable lstack : active list  (** innermost first *) }

type t = {
  loops_of : string -> Loops.t option;
  nests : nest option Idtbl.t;
      (** by function position, once the function has run *)
  mutable frames : frame list;  (** innermost first *)
  inv_counter : (string, int) Hashtbl.t;
  mutable cached_actives : active list;  (** all frames, innermost first *)
  mutable cached_snap : (string * int * int) list;
      (** [cached_actives] as an immutable snapshot *)
  mutable cached_lids : string list;
      (** the loop ids of [cached_actives]; rebuilt only when a loop is
          entered or exited *)
  mutable on_enter : (active -> unit) list;
  mutable on_iter : (active -> unit) list;  (** fires at every iteration start, including the first *)
  mutable on_exit : (active -> unit) list;
}

let create ~(loops_of : string -> Loops.t option) : t =
  {
    loops_of;
    nests = Idtbl.create ();
    frames = [];
    inv_counter = Hashtbl.create 32;
    cached_actives = [];
    cached_snap = [];
    cached_lids = [];
    on_enter = [];
    on_iter = [];
    on_exit = [];
  }

let add_enter_listener t f = t.on_enter <- t.on_enter @ [ f ]
let add_iter_listener t f = t.on_iter <- t.on_iter @ [ f ]
let add_exit_listener t f = t.on_exit <- t.on_exit @ [ f ]

(* Rebuilt only when a loop is entered, iterated or exited, so between
   those events every caller sees the same lists physically. A new
   iteration changes only the snapshot: the active records themselves
   carry the iteration number. *)
let refresh_cache ?(structural = true) (t : t) =
  if structural then begin
    t.cached_actives <- List.concat_map (fun fr -> fr.lstack) t.frames;
    t.cached_lids <- List.map (fun a -> a.lid) t.cached_actives
  end;
  t.cached_snap <-
    List.map (fun a -> (a.lid, a.invocation, a.iteration)) t.cached_actives

(** Active loop invocations, innermost first (across call frames). *)
let actives (t : t) : active list = t.cached_actives

(** Immutable snapshot [(lid, invocation, iteration)] for dependence
    attribution; physically the same list until the loop state changes. *)
let snapshot (t : t) : (string * int * int) list = t.cached_snap

(** The loop ids of the active invocations, innermost first; physically
    the same list while only iteration numbers change. *)
let lids (t : t) : string list = t.cached_lids

let resolve_nest (t : t) (fn : Code.fn) : nest option =
  match t.loops_of (Code.name fn) with
  | None -> None
  | Some li ->
      let cfg = li.Loops.cfg in
      let cfg_of =
        Array.map
          (fun l ->
            match Hashtbl.find_opt cfg.Cfg.index_of_label l with
            | Some i -> i
            | None -> -1)
          fn.Code.labels
      in
      let header_of = Array.make (Cfg.num_blocks cfg) None in
      List.iter
        (fun (l : Loops.loop) ->
          if header_of.(l.Loops.header) = None then
            header_of.(l.Loops.header) <- Some l)
        li.Loops.loops;
      Some { li; cfg_of; header_of }

let nest_of (t : t) (fn : Code.fn) : nest option =
  match Idtbl.find_opt t.nests fn.Code.fid with
  | Some nest -> nest
  | None ->
      let nest = resolve_nest t fn in
      Idtbl.replace t.nests fn.Code.fid nest;
      nest

(* A frame without active loops adds nothing to the cached lists, so
   pushing or popping one leaves them as they are. *)
let call_enter (t : t) (fn : Code.fn) =
  t.frames <- { fid = fn.Code.fid; nest = nest_of t fn; lstack = [] } :: t.frames

let pop_loop (t : t) (fr : frame) =
  match fr.lstack with
  | a :: rest ->
      fr.lstack <- rest;
      List.iter (fun f -> f a) t.on_exit
  | [] -> ()

let call_exit (t : t) =
  match t.frames with
  | fr :: rest ->
      let had_loops = fr.lstack <> [] in
      while fr.lstack <> [] do
        pop_loop t fr
      done;
      t.frames <- rest;
      if had_loops then refresh_cache t
  | [] -> ()

(** Unwind everything (end of run or abnormal exit). *)
let finish (t : t) =
  while t.frames <> [] do
    call_exit t
  done

(** [edge t fn ~dst] follows a control-flow edge of [fn] into label
    index [dst]. *)
let edge (t : t) (fn : Code.fn) ~(dst : int) =
  match t.frames with
  | [] -> ()
  | fr :: _ -> (
      if fr.fid <> fn.Code.fid then ()
      else
        match fr.nest with
        | None -> ()
        | Some nest ->
            let dst_i =
              match nest.cfg_of.(dst) with
              | -1 -> Cfg.index_of nest.li.Loops.cfg fn.Code.labels.(dst)
              | i -> i
            in
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
            match nest.header_of.(dst_i) with
            | Some l -> (
                match fr.lstack with
                | a :: _ when String.equal a.lid l.Loops.lid ->
                    (* back edge: next iteration *)
                    a.iteration <- a.iteration + 1;
                    List.iter (fun f -> f a) t.on_iter;
                    refresh_cache ~structural:popped t
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
