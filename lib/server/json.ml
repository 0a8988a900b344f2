(** A deliberately small JSON codec for the wire protocol.

    The repo carries no JSON dependency (the trace layer emits JSON by
    hand), so the server speaks through this self-contained value type: a
    recursive-descent parser and a printer whose floats round-trip
    binary64 exactly ([%.17g] out, [float_of_string] back), which is what
    lets the daemon's fig8 replay be byte-identical to the batch
    evaluation. Non-finite floats have no JSON spelling and are clamped by
    {!float} at construction. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion order is preserved *)

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Construction / access helpers                                       *)
(* ------------------------------------------------------------------ *)

(** Total float constructor: JSON has no spelling for nan/inf, so they are
    clamped to null / +-max_float rather than producing unparseable
    output. *)
let float (f : float) : t =
  match Float.classify_float f with
  | Float.FP_nan -> Null
  | Float.FP_infinite -> Float (if f > 0.0 then Float.max_float else -.Float.max_float)
  | _ -> Float f

let member (name : string) (j : t) : t option =
  match j with Obj fields -> List.assoc_opt name fields | _ -> None

let mem_or (name : string) ~(default : t) (j : t) : t =
  Option.value ~default (member name j)

let to_string_exn = function
  | String s -> s
  | j -> parse_error "expected a string, got %s" (match j with
      | Null -> "null" | Bool _ -> "a bool" | Int _ -> "an int"
      | Float _ -> "a float" | List _ -> "a list" | Obj _ -> "an object"
      | String _ -> assert false)

let to_int_exn = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> parse_error "expected an int"

let to_float_exn = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> parse_error "expected a number"

let to_bool_exn = function Bool b -> b | _ -> parse_error "expected a bool"
let to_list_exn = function List l -> l | _ -> parse_error "expected a list"

let string_member name j =
  match member name j with
  | Some v -> to_string_exn v
  | None -> parse_error "missing field %S" name

let int_member name j =
  match member name j with
  | Some v -> to_int_exn v
  | None -> parse_error "missing field %S" name

let float_member_opt name j = Option.map to_float_exn (member name j)

let string_member_opt name j =
  match member name j with
  | Some Null | None -> None
  | Some v -> Some (to_string_exn v)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char b c
  done;
  Buffer.add_char b '"'

let rec emit (b : Buffer.t) (j : t) : unit =
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* %.17g round-trips every binary64; integral values pick up a ".0"
         so they parse back as Float, not Int *)
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string b s;
      if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
        Buffer.add_string b ".0"
  | String s -> escape b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          emit b v)
        fields;
      Buffer.add_char b '}'

let to_string (j : t) : string =
  let b = Buffer.create 256 in
  emit b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The cursor reads [s] up to [lim] only, so a frame can be parsed in
   place from a connection's reusable read buffer. Nothing returned by the
   parser aliases [s]: strings are copied out ([String.sub] / [Buffer]).
   The hot helpers return plain [char]s and [bool]s, never options, so
   scanning allocates nothing; callers test [at_end] before [cur]. *)
type cursor = { s : string; mutable pos : int; lim : int }

let at_end (c : cursor) : bool = c.pos >= c.lim
let cur (c : cursor) : char = String.unsafe_get c.s c.pos
let advance (c : cursor) : unit = c.pos <- c.pos + 1
let looking_at (c : cursor) (ch : char) : bool = c.pos < c.lim && cur c = ch

let skip_ws (c : cursor) : unit =
  while
    c.pos < c.lim
    && match cur c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect (c : cursor) (ch : char) : unit =
  if at_end c then
    parse_error "at %d: expected %C, got end of input" c.pos ch
  else
    let x = cur c in
    if x = ch then advance c
    else parse_error "at %d: expected %C, got %C" c.pos ch x

let parse_hex4 (c : cursor) : int =
  let v = ref 0 in
  for _ = 1 to 4 do
    if at_end c then parse_error "unterminated \\u escape";
    let d =
      match cur c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> parse_error "at %d: bad \\u escape" c.pos
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

let add_utf8 (b : Buffer.t) (code : int) : unit =
  (* good enough for the protocol: BMP code points as UTF-8 *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let unescape (c : cursor) (e : char) : char =
  match e with
  | '"' -> '"'
  | '\\' -> '\\'
  | '/' -> '/'
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | _ -> parse_error "at %d: bad escape" c.pos

(* The body of a string with escapes, from the cursor to the closing
   quote, appended to [b]. *)
let rec string_body (c : cursor) (b : Buffer.t) : unit =
  if at_end c then parse_error "unterminated string";
  match cur c with
  | '"' -> advance c
  | '\\' ->
      advance c;
      if at_end c then parse_error "at %d: bad escape" c.pos;
      (match cur c with
      | 'u' ->
          advance c;
          add_utf8 b (parse_hex4 c)
      | e ->
          Buffer.add_char b (unescape c e);
          advance c);
      string_body c b
  | ch ->
      Buffer.add_char b ch;
      advance c;
      string_body c b

let parse_string (c : cursor) : string =
  expect c '"';
  let start = c.pos in
  let i = ref start in
  while !i < c.lim && match String.unsafe_get c.s !i with '"' | '\\' -> false | _ -> true do
    incr i
  done;
  if !i < c.lim && String.unsafe_get c.s !i = '"' then begin
    (* no escapes: one copy, straight out of the input *)
    c.pos <- !i + 1;
    String.sub c.s start (!i - start)
  end
  else begin
    let b = Buffer.create (!i - start + 16) in
    Buffer.add_substring b c.s start (!i - start);
    c.pos <- !i;
    string_body c b;
    Buffer.contents b
  end

let parse_number (c : cursor) : t =
  let start = c.pos in
  let is_float = ref false in
  while
    c.pos < c.lim
    &&
    match cur c with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_error "at %d: bad number %S" start text
  else
    match int_of_string text with
    | i -> Int i
    | exception Failure _ -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> parse_error "at %d: bad number %S" start text)

(* Is [word] spelled at the cursor? *)
let rec spelled (c : cursor) (word : string) (i : int) : bool =
  i = String.length word
  || c.pos + i < c.lim
     && String.unsafe_get c.s (c.pos + i) = String.unsafe_get word i
     && spelled c word (i + 1)

let literal (c : cursor) (word : string) (v : t) : t =
  if spelled c word 0 then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else parse_error "at %d: bad literal" c.pos

let rec parse_value (c : cursor) : t =
  skip_ws c;
  if at_end c then parse_error "unexpected end of input";
  match cur c with
  | '"' -> String (parse_string c)
  | '{' ->
      advance c;
      skip_ws c;
      if looking_at c '}' then begin
        advance c;
        Obj []
      end
      else Obj (parse_fields c [])
  | '[' ->
      advance c;
      skip_ws c;
      if looking_at c ']' then begin
        advance c;
        List []
      end
      else List (parse_items c [])
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> parse_error "at %d: unexpected %C" c.pos ch

and parse_fields (c : cursor) (acc : (string * t) list) : (string * t) list =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  let acc = (k, v) :: acc in
  skip_ws c;
  if looking_at c ',' then begin
    advance c;
    parse_fields c acc
  end
  else if looking_at c '}' then begin
    advance c;
    List.rev acc
  end
  else parse_error "at %d: expected ',' or '}'" c.pos

and parse_items (c : cursor) (acc : t list) : t list =
  let acc = parse_value c :: acc in
  skip_ws c;
  if looking_at c ',' then begin
    advance c;
    parse_items c acc
  end
  else if looking_at c ']' then begin
    advance c;
    List.rev acc
  end
  else parse_error "at %d: expected ',' or ']'" c.pos

let parse (c : cursor) : t =
  let v = parse_value c in
  skip_ws c;
  if c.pos <> c.lim then
    parse_error "at %d: trailing garbage after value" c.pos;
  v

(** [of_string s] — parse one JSON value; trailing garbage is an error.
    Raises {!Parse_error}. *)
let of_string (s : string) : t = parse { s; pos = 0; lim = String.length s }

(** [of_bytes b len] — {!of_string} on the first [len] bytes of [b],
    parsed in place (no copy of the input). [b] must not change while it
    is parsed; the result shares no memory with it. *)
let of_bytes (b : Bytes.t) (len : int) : t =
  if len < 0 || len > Bytes.length b then invalid_arg "Json.of_bytes";
  parse { s = Bytes.unsafe_to_string b; pos = 0; lim = len }
