(** Tables keyed by a dense id: instruction ids (the parser and the
    builder number them consecutively from 0), function positions, object
    ids. A table is an array indexed by id, grown on demand. *)

type 'a t = { mutable slots : 'a option array }

let create () : 'a t = { slots = [||] }

let find_opt (t : 'a t) (id : int) : 'a option =
  if id >= 0 && id < Array.length t.slots then Array.unsafe_get t.slots id
  else None

let find (t : 'a t) (id : int) : 'a =
  match find_opt t id with Some v -> v | None -> raise Not_found

let replace (t : 'a t) (id : int) (v : 'a) : unit =
  if id < 0 then invalid_arg (Printf.sprintf "Idtbl.replace: negative id %d" id);
  let n = Array.length t.slots in
  if id >= n then begin
    let slots = Array.make (max (id + 1) (2 * n)) None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  t.slots.(id) <- Some v

(** [iter f t] calls [f id v] on every binding, in increasing id order. *)
let iter (f : int -> 'a -> unit) (t : 'a t) : unit =
  Array.iteri (fun id -> function Some v -> f id v | None -> ()) t.slots

(** The bound ids, increasing. *)
let keys (t : 'a t) : int list =
  let acc = ref [] in
  for id = Array.length t.slots - 1 downto 0 do
    if t.slots.(id) <> None then acc := id :: !acc
  done;
  !acc
