(** Reference model of the memory-dependence recorder: the plain
    byte-at-a-time algorithm, one shadow entry per address, every
    dependence counted once per byte. {!Scaf_profile.Memdep_profile}'s
    recorder must produce exactly the same table, counts included. *)

type access = { instr : int; snap : (string * int * int) list }
type byte_state = {
  mutable writer : access option;
  mutable readers : access list;
}

type t = {
  shadow : (int64, byte_state) Hashtbl.t;
  deps : (string * int * int * bool, int) Hashtbl.t;
      (** (lid, src instr, dst instr, cross-iteration?) -> count *)
}

let create () : t = { shadow = Hashtbl.create 64; deps = Hashtbl.create 64 }

(* a dependence src -> dst holds in every loop invocation both accesses
   executed in, found through src's innermost scope of the same loop *)
let add_dep (t : t) (src : access) (dst : access) =
  List.iter
    (fun (lid, inv_d, iter_d) ->
      match List.find_opt (fun (l, _, _) -> String.equal l lid) src.snap with
      | Some (_, inv_s, iter_s) when inv_s = inv_d ->
          let key = (lid, src.instr, dst.instr, iter_d <> iter_s) in
          Hashtbl.replace t.deps key
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.deps key))
      | _ -> ())
    dst.snap

let byte_state (t : t) a =
  match Hashtbl.find_opt t.shadow a with
  | Some bs -> bs
  | None ->
      let bs = { writer = None; readers = [] } in
      Hashtbl.replace t.shadow a bs;
      bs

let record_store (t : t) ~instr ~addr ~size ~snap =
  let acc = { instr; snap } in
  for k = 0 to size - 1 do
    let bs = byte_state t (Int64.add addr (Int64.of_int k)) in
    List.iter (fun r -> add_dep t r acc) bs.readers;
    (match bs.writer with Some w -> add_dep t w acc | None -> ());
    bs.writer <- Some acc;
    bs.readers <- []
  done

let record_load (t : t) ~instr ~addr ~size ~snap =
  let acc = { instr; snap } in
  for k = 0 to size - 1 do
    let bs = byte_state t (Int64.add addr (Int64.of_int k)) in
    (match bs.writer with Some w -> add_dep t w acc | None -> ());
    bs.readers <- acc :: List.filter (fun r -> r.instr <> instr) bs.readers
  done

(** The whole table as sorted [(lid, src, dst, cross, count)] rows. *)
let rows (t : t) : (string * int * int * bool * int) list =
  Hashtbl.fold (fun (l, s, d, c) n acc -> (l, s, d, c, n) :: acc) t.deps []
  |> List.sort compare
