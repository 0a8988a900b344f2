(** The speculation validation runtime (§4.2.5 and Figure 7).

    Clients that act on SCAF responses insert validation code; this module
    implements the semantics of those checks inside the interpreter, and is
    also what the Figure 7 microbenchmarks measure:

    - cheap checks: pointer-residue bit tests, points-to heap-tag tests,
      value-prediction equality tests, control-speculation "misspec beacons"
      on speculatively dead paths, short-lived liveness balance checks;
    - the expensive check: shadow-memory memory-speculation validation
      ([ms_read]/[ms_write]), which does metadata lookups and updates on
      every access. *)

exception Misspec of { tag : int64 }

let misspec ~(tag : int64) = raise (Misspec { tag })

(** One active checkpoint: the memory undo-log mark plus snapshots of the
    speculative runtime state (shadow memory, heap-tag balances). *)
type checkpoint = {
  ck_id : int;
  ck_loop : int;  (** static loop ordinal the instrumentation assigned *)
  ck_mem : Memory.mark;
  ck_shadow : (int64, int64) Hashtbl.t;
  ck_tag_live : (int * int) list;
}

type t = {
  mem : Memory.t;
  shadow : (int64, int64) Hashtbl.t;
      (** shadow memory: byte address -> last writer group *)
  tag_live : (int, int ref) Hashtbl.t;
      (** per-heap-tag count of live separated objects *)
  ms_forbidden : (int64 * int64, unit) Hashtbl.t;
      (** (writer group, reader group) pairs asserted dependence-free *)
  disabled : (int64, unit) Hashtbl.t;
      (** assertion tags squashed by a rollback: their checks are skipped
          for the rest of the run (the speculation was wrong; the replayed
          code is semantically the original, so skipping is sound) *)
  mutable stack : checkpoint list;  (** active checkpoints, innermost first *)
  mutable next_ck_id : int;
  mutable cheap_checks : int;
  mutable expensive_checks : int;
  mutable checkpoints_taken : int;
  mutable commits : int;
  mutable rollbacks : int;
}

let create (mem : Memory.t) : t =
  {
    mem;
    shadow = Hashtbl.create 1024;
    tag_live = Hashtbl.create 8;
    ms_forbidden = Hashtbl.create 16;
    disabled = Hashtbl.create 8;
    stack = [];
    next_ck_id = 0;
    cheap_checks = 0;
    expensive_checks = 0;
    checkpoints_taken = 0;
    commits = 0;
    rollbacks = 0;
  }

let tag_disabled (t : t) (tag : int64) : bool = Hashtbl.mem t.disabled tag

(** [disable_tag t tag] squashes the assertion behind [tag]; invoked when a
    rollback attributes a misspeculation to it. *)
let disable_tag (t : t) (tag : int64) : unit = Hashtbl.replace t.disabled tag ()

let disabled_tags (t : t) : int64 list =
  Hashtbl.fold (fun tag () acc -> tag :: acc) t.disabled []

(* ---- checkpoint / commit / rollback (§4.2.5 recovery) ---- *)

(** [checkpoint t ~loop_ord] opens a loop-invocation checkpoint and returns
    its id. Memory journaling stays on while any checkpoint is active. *)
let checkpoint (t : t) ~(loop_ord : int) : int =
  if t.stack = [] then Memory.set_journaling t.mem true;
  let id = t.next_ck_id in
  t.next_ck_id <- id + 1;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  t.stack <-
    {
      ck_id = id;
      ck_loop = loop_ord;
      ck_mem = Memory.mark t.mem;
      ck_shadow = Hashtbl.copy t.shadow;
      ck_tag_live =
        Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.tag_live [];
    }
    :: t.stack;
  id

(** [commit t ~loop_ord] retires the innermost checkpoint, provided it was
    opened for the same loop — commits reached without the matching
    checkpoint (e.g. an exit block with an extra-loop predecessor) are
    no-ops. *)
let commit (t : t) ~(loop_ord : int) : unit =
  match t.stack with
  | ck :: rest when ck.ck_loop = loop_ord ->
      t.stack <- rest;
      t.commits <- t.commits + 1;
      if rest = [] then Memory.set_journaling t.mem false
  | _ -> ()

let is_active (t : t) (id : int) : bool =
  List.exists (fun ck -> ck.ck_id = id) t.stack

(** [rollback_to t id] unwinds memory and speculative runtime state to
    checkpoint [id], discarding any inner checkpoints interrupted by the
    misspeculation. The checkpoint stays active for the replay. *)
let rollback_to (t : t) (id : int) : unit =
  let rec pop = function
    | ck :: rest when ck.ck_id <> id -> pop rest
    | stack -> stack
  in
  (match pop t.stack with
  | [] -> invalid_arg "Runtime.rollback_to: unknown checkpoint"
  | ck :: _ as stack ->
      t.stack <- stack;
      Memory.undo_to t.mem ck.ck_mem;
      Hashtbl.reset t.shadow;
      Hashtbl.iter (fun a g -> Hashtbl.replace t.shadow a g) ck.ck_shadow;
      Hashtbl.reset t.tag_live;
      List.iter
        (fun (k, c) -> Hashtbl.replace t.tag_live k (ref c))
        ck.ck_tag_live);
  t.rollbacks <- t.rollbacks + 1

(** Declare that no dependence from group [src] to group [dst] may
    manifest (memory-speculation setup, inserted at program entry). *)
let ms_forbid (t : t) ~(src : int64) ~(dst : int64) : unit =
  Hashtbl.replace t.ms_forbidden (src, dst) ()

(* ---- cheap checks ---- *)

(** Control-speculation beacon on a speculatively dead path. *)
let beacon (t : t) ~(tag : int64) : unit =
  t.cheap_checks <- t.cheap_checks + 1;
  if not (tag_disabled t tag) then misspec ~tag

(** Residue check: the pointer's 4 least-significant bits must be a member
    of the profiled residue set [allowed] (a 16-bit set). *)
let check_residue (t : t) ~(addr : int64) ~(allowed : int64) ~(tag : int64) :
    unit =
  t.cheap_checks <- t.cheap_checks + 1;
  let residue = Int64.to_int (Int64.logand addr 15L) in
  if
    Int64.logand (Int64.shift_right_logical allowed residue) 1L = 0L
    && not (tag_disabled t tag)
  then misspec ~tag

(** Heap check: the object holding [addr] must have been separated into
    logical heap [heap_tag] (Figure 7a: [addr & MASK != EXPECTED]). *)
let check_heap (t : t) ~(addr : int64) ~(heap_tag : int) ~(tag : int64) : unit
    =
  t.cheap_checks <- t.cheap_checks + 1;
  match Memory.locate_opt t.mem addr with
  | Some o when o.Memory.heap_tag = heap_tag -> ()
  | _ -> if not (tag_disabled t tag) then misspec ~tag

(** Inverse heap check: misspeculate when the object holding [addr] *is* in
    logical heap [heap_tag] (guards writes against the read-only heap). *)
let check_not_heap (t : t) ~(addr : int64) ~(heap_tag : int) ~(tag : int64) :
    unit =
  t.cheap_checks <- t.cheap_checks + 1;
  match Memory.locate_opt t.mem addr with
  | Some o when o.Memory.heap_tag = heap_tag ->
      if not (tag_disabled t tag) then misspec ~tag
  | _ -> ()

(** Move the object holding [addr] to logical heap [heap_tag] — the runtime
    effect of re-allocating it to a separate heap at its allocation site. *)
let set_heap (t : t) ~(addr : int64) ~(heap_tag : int) : unit =
  match Memory.locate_opt t.mem addr with
  | Some o ->
      Memory.set_heap_tag t.mem o heap_tag;
      let c =
        match Hashtbl.find_opt t.tag_live heap_tag with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.replace t.tag_live heap_tag c;
            c
      in
      incr c
  | None -> ()

(** Called by the interpreter when a separated object dies. *)
let note_free (t : t) (o : Memory.obj) : unit =
  if o.Memory.heap_tag <> 0 then
    match Hashtbl.find_opt t.tag_live o.Memory.heap_tag with
    | Some c -> decr c
    | None -> ()

(** Value-prediction check (Figure: compare loaded value with prediction). *)
let check_value (t : t) ~(value : int64) ~(predicted : int64) ~(tag : int64) :
    unit =
  t.cheap_checks <- t.cheap_checks + 1;
  if not (Int64.equal value predicted) && not (tag_disabled t tag) then
    misspec ~tag

(** Short-lived balance check at iteration end: every object separated into
    [heap_tag] must have been freed within the iteration. *)
let iter_check (t : t) ~(heap_tag : int) ~(tag : int64) : unit =
  t.cheap_checks <- t.cheap_checks + 1;
  match Hashtbl.find_opt t.tag_live heap_tag with
  | Some c when !c <> 0 -> if not (tag_disabled t tag) then misspec ~tag
  | _ -> ()

(* ---- the expensive check: memory speculation via shadow memory ---- *)

(** [ms_write] records the writing group on the written bytes, after
    checking that no forbidden output dependence manifests (Figure 7b:
    load shadow, check metadata, update metadata, store shadow). *)
let ms_write (t : t) ~(addr : int64) ~(size : int) ~(group : int64)
    ~(tag : int64) : unit =
  t.expensive_checks <- t.expensive_checks + 1;
  for k = 0 to size - 1 do
    let a = Int64.add addr (Int64.of_int k) in
    (match Hashtbl.find_opt t.shadow a with
    | Some g when Hashtbl.mem t.ms_forbidden (g, group) ->
        if not (tag_disabled t tag) then misspec ~tag
    | _ -> ());
    Hashtbl.replace t.shadow a group
  done

(** [ms_read] checks that the last writer of the read bytes is allowed to
    feed this reading group. *)
let ms_read (t : t) ~(addr : int64) ~(size : int) ~(group : int64)
    ~(tag : int64) : unit =
  t.expensive_checks <- t.expensive_checks + 1;
  for k = 0 to size - 1 do
    let a = Int64.add addr (Int64.of_int k) in
    match Hashtbl.find_opt t.shadow a with
    | Some g when Hashtbl.mem t.ms_forbidden (g, group) ->
        if not (tag_disabled t tag) then misspec ~tag
    | _ -> ()
  done
