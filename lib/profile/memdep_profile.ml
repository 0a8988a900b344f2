(** Loop-aware memory-dependence profile (after Chen et al.) and the
    dependence recorder that fills it.

    The profile holds which (store -> load), (load -> store) and
    (store -> store) pairs actually manifested during profiling, attributed
    per loop and split into intra-iteration and cross-iteration
    (loop-carried) dependences, each with the number of bytes that carried
    it. Memory speculation — the expensive baseline SCAF competes with —
    asserts the absence of every dependence *not* in this profile; the
    audit's dynamic oracle grades static answers against the same tables.

    The {!recorder} keeps, per byte, the last writer and the most recent
    access of every instruction that read the byte since. It works on whole
    accesses: adjacent bytes whose writer and reader list are physically
    the same form a run, and each dependence of the run is counted once,
    by the run's length — exactly what a byte-at-a-time walk would count. *)

module Itbl = Hashtbl.Make (Int)

(* (src instr, dst instr, cross-iteration?) packed into one int;
   instruction ids are dense from 0, far below 2^30 *)
let key ~src ~dst ~cross = (src lsl 32) lor (dst lsl 1) lor Bool.to_int cross
let unkey k = (k lsr 32, (k lsr 1) land 0x7FFF_FFFF, k land 1 = 1)

type t = (string, int ref Itbl.t) Hashtbl.t
(** lid -> packed (src, dst, cross) -> count *)

let create () : t = Hashtbl.create 16

let counts (t : t) lid =
  match Hashtbl.find t lid with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Itbl.create 64 in
      Hashtbl.replace t lid tbl;
      tbl

(** An independent copy: recording into it leaves [t] untouched. *)
let copy (t : t) : t =
  let c = Hashtbl.copy t in
  Hashtbl.filter_map_inplace
    (fun _ tbl ->
      Some (Itbl.of_seq (Seq.map (fun (k, n) -> (k, ref !n)) (Itbl.to_seq tbl))))
    c;
  c

(** [observed t ~lid ~src ~dst ~cross] - did a dependence from [src] to
    [dst] (cross- or intra-iteration) manifest during profiling of loop
    [lid]? *)
let observed (t : t) ~(lid : string) ~(src : int) ~(dst : int) ~(cross : bool)
    : bool =
  match Hashtbl.find_opt t lid with
  | Some tbl -> Itbl.mem tbl (key ~src ~dst ~cross)
  | None -> false

(** [iter f t] calls [f lid (src, dst, cross) count] on every observed
    dependence, in no particular order. *)
let iter (f : string -> int * int * bool -> int -> unit) (t : t) : unit =
  Hashtbl.iter (fun lid tbl -> Itbl.iter (fun k n -> f lid (unkey k) !n) tbl) t

(** All observed dependences of a loop, sorted. *)
let all (t : t) ~(lid : string) : (int * int * bool) list =
  match Hashtbl.find_opt t lid with
  | Some tbl ->
      Itbl.fold (fun k _ acc -> unkey k :: acc) tbl [] |> List.sort compare
  | None -> []

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

(* One active loop scope of an access, with the counts table of its loop
   resolved. [self] is what a dependence between two accesses of this very
   snapshot contributes to this scope: -1 nothing, 0 intra-iteration,
   1 cross-iteration (see {!add_dep}). *)
type scope = {
  lid : string;
  inv : int;
  iter : int;
  tbl : int ref Itbl.t;
  self : int;
}

type access = { instr : int; scopes : scope list }

(* the writer of a byte nothing has written *)
let no_access = { instr = -1; scopes = [] }

(* 16 bytes of shadow: each byte's last writer and its readers since,
   at most one (the latest) access per reading instruction, newest first *)
type page = { writer : access array; readers : access list array }

type recorder = {
  into : t;
  pages : page Itbl.t;  (** address lsr 4 -> page *)
  mutable last_snap : (string * int * int) list;
  mutable last_scopes : scope list;
}

(** A recorder adding into [into]. Its shadow is keyed by address — the
    interpreter reuses addresses between runs, so use one recorder per
    run. *)
let recorder (into : t) : recorder =
  { into; pages = Itbl.create 256; last_snap = []; last_scopes = [] }

let page (r : recorder) (no : int) : page =
  match Itbl.find r.pages no with
  | pg -> pg
  | exception Not_found ->
      let pg = { writer = Array.make 16 no_access; readers = Array.make 16 [] } in
      Itbl.replace r.pages no pg;
      pg

(* The tracker hands out the same snapshot until its loop state changes,
   so resolving the last one again is one physical comparison. *)
let scopes (r : recorder) (snap : (string * int * int) list) : scope list =
  if snap == r.last_snap then r.last_scopes
  else begin
    let self (lid, inv, iter) =
      match List.find (fun (l, _, _) -> String.equal l lid) snap with
      | _, inv_s, iter_s when inv_s = inv -> Bool.to_int (iter <> iter_s)
      | _ -> -1
    in
    let s =
      List.map
        (fun ((lid, inv, iter) as e) ->
          { lid; inv; iter; tbl = counts r.into lid; self = self e })
        snap
    in
    r.last_snap <- snap;
    r.last_scopes <- s;
    s
  end

let bump (tbl : int ref Itbl.t) k n =
  match Itbl.find tbl k with
  | c -> c := !c + n
  | exception Not_found -> Itbl.add tbl k (ref n)

(* Record [n] bytes' worth of dependence from [src] to [dst] in every loop
   invocation both accesses executed in: for each scope of [dst], through
   [src]'s innermost scope of the same loop. *)
let rec add_self src dst n = function
  | [] -> ()
  | d :: tl ->
      if d.self >= 0 then
        bump d.tbl (key ~src:src.instr ~dst:dst.instr ~cross:(d.self = 1)) n;
      add_self src dst n tl

(* through [src]'s innermost scope of [d]'s loop, if it shares [d]'s
   invocation; loop ids come from the loop records, so they are usually
   physically equal *)
let rec through (ss : scope list) (src : access) (dst : access) n (d : scope) =
  match ss with
  | [] -> ()
  | s :: tl ->
      if s.lid == d.lid || String.equal s.lid d.lid then begin
        if s.inv = d.inv then
          bump d.tbl
            (key ~src:src.instr ~dst:dst.instr ~cross:(d.iter <> s.iter))
            n
      end
      else through tl src dst n d

let rec add_through src dst n = function
  | [] -> ()
  | d :: tl ->
      through src.scopes src dst n d;
      add_through src dst n tl

let add_dep (src : access) (dst : access) (n : int) =
  if src.scopes == dst.scopes then add_self src dst n dst.scopes
  else add_through src dst n dst.scopes

let rec add_deps_from readers dst n =
  match readers with
  | [] -> ()
  | rd :: tl ->
      add_dep rd dst n;
      add_deps_from tl dst n

(* [l] without its access of [instr] (at most one), sharing what it can *)
let rec without (instr : int) (l : access list) : access list =
  match l with
  | [] -> l
  | rd :: tl ->
      if rd.instr = instr then tl
      else
        let tl' = without instr tl in
        if tl' == tl then l else rd :: tl'

(* The length of the run of bytes from slot [i] of [pg], below [lim],
   sharing their writer and readers. *)
let run_length (pg : page) (i : int) (lim : int) : int =
  let w = pg.writer.(i) and rs = pg.readers.(i) in
  let j = ref (i + 1) in
  while !j < lim && pg.writer.(!j) == w && pg.readers.(!j) == rs do
    incr j
  done;
  !j - i

(* Both recorders walk the bytes [addr, addr + size) as runs of bytes
   sharing their writer and readers, never crossing a page; each run's
   dependences are counted once, by its length. *)

let record_store (r : recorder) ~(instr : int) ~(addr : int64) ~(size : int)
    ~(snap : (string * int * int) list) =
  let acc = { instr; scopes = scopes r snap } in
  let a = ref (Int64.to_int addr) and stop = Int64.to_int addr + size in
  while !a < stop do
    let pg = page r (!a lsr 4) and i = !a land 15 in
    let n = run_length pg i (min 16 (i + stop - !a)) in
    (* anti dependences: every reader since the last write *)
    add_deps_from pg.readers.(i) acc n;
    (* output dependence: the previous writer *)
    let w = pg.writer.(i) in
    if w != no_access then add_dep w acc n;
    Array.fill pg.writer i n acc;
    Array.fill pg.readers i n [];
    a := !a + n
  done

let record_load (r : recorder) ~(instr : int) ~(addr : int64) ~(size : int)
    ~(snap : (string * int * int) list) =
  let acc = { instr; scopes = scopes r snap } in
  let a = ref (Int64.to_int addr) and stop = Int64.to_int addr + size in
  while !a < stop do
    let pg = page r (!a lsr 4) and i = !a land 15 in
    let n = run_length pg i (min 16 (i + stop - !a)) in
    (* flow dependence from the last writer *)
    let w = pg.writer.(i) in
    if w != no_access then add_dep w acc n;
    (* keep the most recent access per reading instruction (standard
       last-reader practice in dependence profilers) *)
    Array.fill pg.readers i n (acc :: without instr pg.readers.(i));
    a := !a + n
  done
