(** Object-granular memory for the MIR interpreter.

    Every allocation (global, alloca, malloc) becomes an object with a
    unique id, a virtual base address and a byte payload. Addresses are
    dense enough for realistic pointer arithmetic *within* an object;
    objects are spaced apart so stray arithmetic traps instead of silently
    corrupting a neighbour. Loads and stores are little-endian. *)

type obj_kind =
  | KGlobal of string
  | KStack of int  (** alloca site: instruction id *)
  | KHeap of int  (** malloc/calloc site: instruction id *)

type obj = {
  oid : int;
  base : int64;
  size : int;
  kind : obj_kind;
  ctx : int list;  (** calling context at allocation (innermost first) *)
  data : Bytes.t;
  mutable live : bool;
  mutable heap_tag : int;
      (** logical heap for speculative separation; 0 = default heap *)
}

module Addr_map = Map.Make (Int64)

(** Undo-log entries for checkpoint/rollback (§4.2.5 recovery). Each entry
    is the inverse of one state change, applied in LIFO order. *)
type journal_entry =
  | JData of { o : obj; old : Bytes.t }
      (** object payload before its first write in the current epoch *)
  | JAlloc of obj  (** object created since the mark; undo removes it *)
  | JLive of { o : obj; was : bool }  (** liveness flip (free / frame kill) *)
  | JTag of { o : obj; was : int }  (** speculative heap-tag change *)

type t = {
  mutable next_base : int64;
  mutable by_base : obj Addr_map.t;
  objects : (int, obj) Hashtbl.t;
  mutable next_oid : int;
  mutable journal : journal_entry list;
  mutable journaling : bool;
      (** record undo entries; enabled while any checkpoint is active *)
  mutable epoch : int;
      (** bumped on every checkpoint and rollback; scopes the first-write
          dedup below *)
  written : (int * int, unit) Hashtbl.t;
      (** (epoch, oid) pairs whose old bytes are already journaled *)
  mutable last : obj;
      (** the object the last resolved address fell in: accesses cluster,
          so it is checked before the address map *)
}

(** A position in the undo log plus the allocation cursors, so rollback
    restores deterministic addresses for replayed allocations. *)
type mark = {
  m_journal : journal_entry list;
  m_next_base : int64;
  m_next_oid : int;
}

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

(* an object no address falls in *)
let no_obj =
  {
    oid = -1;
    base = 0L;
    size = 0;
    kind = KGlobal "";
    ctx = [];
    data = Bytes.empty;
    live = false;
    heap_tag = 0;
  }

let create () =
  {
    next_base = 0x10000L;
    by_base = Addr_map.empty;
    objects = Hashtbl.create 64;
    next_oid = 0;
    journal = [];
    journaling = false;
    epoch = 0;
    written = Hashtbl.create 64;
    last = no_obj;
  }

(* ---- checkpoint journal ---- *)

(** [set_journaling t on] toggles undo recording. Turning it off (no active
    checkpoint remains) discards the accumulated log. *)
let set_journaling (t : t) (on : bool) : unit =
  t.journaling <- on;
  if not on then begin
    t.journal <- [];
    Hashtbl.reset t.written
  end

(** [mark t] opens a new epoch and returns the current undo-log position. *)
let mark (t : t) : mark =
  t.epoch <- t.epoch + 1;
  { m_journal = t.journal; m_next_base = t.next_base; m_next_oid = t.next_oid }

let journal_data (t : t) (o : obj) : unit =
  if t.journaling && not (Hashtbl.mem t.written (t.epoch, o.oid)) then begin
    Hashtbl.replace t.written (t.epoch, o.oid) ();
    t.journal <- JData { o; old = Bytes.copy o.data } :: t.journal
  end

let journal_live (t : t) (o : obj) : unit =
  if t.journaling then t.journal <- JLive { o; was = o.live } :: t.journal

let journal_tag (t : t) (o : obj) : unit =
  if t.journaling then t.journal <- JTag { o; was = o.heap_tag } :: t.journal

(** [undo_to t m] rolls memory back to [m]: restores journaled payloads,
    liveness and heap tags, removes objects allocated since the mark, and
    rewinds the allocation cursors so a replay re-allocates at the same
    addresses. *)
let undo_to (t : t) (m : mark) : unit =
  let rec go = function
    | j when j == m.m_journal -> j
    | [] -> []  (* mark predates the log: nothing left to undo *)
    | entry :: rest ->
        (match entry with
        | JData { o; old } -> Bytes.blit old 0 o.data 0 (Bytes.length old)
        | JAlloc o ->
            t.by_base <- Addr_map.remove o.base t.by_base;
            Hashtbl.remove t.objects o.oid
        | JLive { o; was } -> o.live <- was
        | JTag { o; was } -> o.heap_tag <- was);
        go rest
  in
  t.journal <- go t.journal;
  (* the cached object may be one the rollback removed *)
  t.last <- no_obj;
  t.next_base <- m.m_next_base;
  t.next_oid <- m.m_next_oid;
  t.epoch <- t.epoch + 1

let align16 n = Int64.logand (Int64.add n 15L) (Int64.lognot 15L)

(** [alloc t ~size ~kind ~ctx] creates a live, zero-initialized object. *)
let alloc (t : t) ~(size : int) ~(kind : obj_kind) ~(ctx : int list) : obj =
  if size < 0 then trap "allocation of negative size %d" size;
  let size = max size 1 in
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  let base = t.next_base in
  (* leave a 16-byte guard gap between objects *)
  t.next_base <- align16 (Int64.add base (Int64.of_int (size + 16)));
  let o =
    {
      oid;
      base;
      size;
      kind;
      ctx;
      data = Bytes.make size '\000';
      live = true;
      heap_tag = 0;
    }
  in
  t.by_base <- Addr_map.add base o t.by_base;
  Hashtbl.replace t.objects oid o;
  if t.journaling then t.journal <- JAlloc o :: t.journal;
  o

(** [offset o a] is address [a]'s offset into [o]. *)
let offset (o : obj) (a : int64) : int = Int64.to_int (Int64.sub a o.base)

(* Does [a] fall inside the cached object while it is live? Objects never
   overlap, so then that is also the object with the greatest base at or
   below [a]. *)
let in_cached (t : t) (a : int64) : bool =
  let o = t.last in
  let off = Int64.sub a o.base in
  Int64.compare off 0L >= 0
  && Int64.compare off (Int64.of_int o.size) < 0
  && o.live

let find_in_map (t : t) (a : int64) : obj option =
  match Addr_map.find_last_opt (fun b -> Int64.compare b a <= 0) t.by_base with
  | Some (_, o) -> Some o
  | None -> None

(** [locate t a] is the live object holding address [a]. Traps on wild or
    dangling pointers. *)
let locate (t : t) (a : int64) : obj =
  if in_cached t a then t.last
  else
    match find_in_map t a with
    | None -> trap "wild pointer 0x%Lx" a
    | Some o ->
        if offset o a >= o.size then trap "pointer 0x%Lx past object %d" a o.oid
        else if not o.live then trap "use of freed object %d" o.oid
        else begin
          t.last <- o;
          o
        end

(** [locate_opt t a] is the live object holding [a], if any. *)
let locate_opt (t : t) (a : int64) : obj option =
  if in_cached t a then Some t.last
  else
    match find_in_map t a with
    | Some o ->
        if offset o a < o.size && o.live then begin
          t.last <- o;
          Some o
        end
        else None
    | None -> None

let free (t : t) (a : int64) : obj =
  let o = locate t a in
  if Int64.compare a o.base <> 0 then trap "free of interior pointer 0x%Lx" a;
  (match o.kind with
  | KHeap _ -> ()
  | _ -> trap "free of non-heap object %d" o.oid);
  journal_live t o;
  o.live <- false;
  o

(** [access t op a size] is the object holding the [size] bytes at [a],
    trapping (in the words of [op]) unless they lie in one live object. *)
let access (t : t) (op : string) (a : int64) (size : int) : obj =
  let o = locate t a in
  if offset o a + size > o.size then
    trap "%s of %d bytes at 0x%Lx overruns object %d" op size a o.oid;
  o

(** [read o off size] reads [size] bytes little-endian as a sign-agnostic
    integer (zero-extended). *)
let read (o : obj) (off : int) (size : int) : int64 =
  let v = ref 0L in
  for k = size - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get o.data (off + k))))
  done;
  !v

let write (t : t) (o : obj) (off : int) (size : int) (value : int64) : unit =
  journal_data t o;
  let v = ref value in
  for k = 0 to size - 1 do
    Bytes.set o.data (off + k)
      (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
    v := Int64.shift_right_logical !v 8
  done

let load (t : t) (a : int64) (size : int) : int64 =
  let o = access t "load" a size in
  read o (offset o a) size

let store (t : t) (a : int64) (size : int) (value : int64) : unit =
  let o = access t "store" a size in
  write t o (offset o a) size value

let memcpy (t : t) ~(dst : int64) ~(src : int64) ~(len : int) : unit =
  for k = 0 to len - 1 do
    let b = load t (Int64.add src (Int64.of_int k)) 1 in
    store t (Int64.add dst (Int64.of_int k)) 1 b
  done

let memset (t : t) ~(dst : int64) ~(byte : int64) ~(len : int) : unit =
  for k = 0 to len - 1 do
    store t (Int64.add dst (Int64.of_int k)) 1 byte
  done

(** [kill t o] marks a returning frame's alloca dead. *)
let kill (t : t) (o : obj) : unit =
  journal_live t o;
  o.live <- false

(** [set_heap_tag t o tag] re-tags [o]'s logical heap, journaled so a
    rollback restores the previous separation state. *)
let set_heap_tag (t : t) (o : obj) (tag : int) : unit =
  journal_tag t o;
  o.heap_tag <- tag
