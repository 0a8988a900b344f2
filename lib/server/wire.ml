(** Length-prefixed JSON framing over a file descriptor.

    Frame format (DESIGN.md §11): a 4-byte big-endian unsigned payload
    length, then exactly that many bytes of UTF-8 JSON. A reader therefore
    never scans for delimiters and can reject an oversized frame from its
    prefix alone, before buffering a byte of payload.

    Robustness contract:

    - {e no partial writes}: {!write_frame} assembles the whole frame and
      loops until every byte is on the wire (EINTR retried), so a crash
      between two [write]s can never leave a half-frame for the peer;
    - {e no unbounded buffering}: a frame longer than [max_len] is
      rejected as {!Oversized} after reading only the 4-byte prefix;
    - {e slow-loris bound}: [read_frame ~frame_budget] gives the sender a
      wall-clock budget from the frame's first byte to its last — a client
      dribbling one byte per poll interval is cut off as {!Truncated}
      instead of wedging the connection's reader forever;
    - {e idle vs. dead}: a receive timeout {e before} the first byte of a
      frame is {!Idle} (the caller decides whether to keep waiting); after
      the first byte it is part of the frame budget. *)

type error =
  | Closed  (** peer closed (EOF or connection reset) *)
  | Idle  (** receive timeout with no frame started *)
  | Truncated of string  (** EOF / budget exhausted inside a frame *)
  | Oversized of int  (** declared payload length over [max_len] *)
  | Bad_json of string  (** payload is not a single JSON value *)

let error_to_string = function
  | Closed -> "connection closed"
  | Idle -> "idle"
  | Truncated d -> "truncated frame: " ^ d
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes declared" n
  | Bad_json d -> "bad json: " ^ d

(** Default maximum payload length: 4 MiB. *)
let default_max_len = 4 * 1024 * 1024

let now () = Unix.gettimeofday ()

(* Read exactly [n] bytes into [buf]; [deadline] (absolute, from the frame
   budget) bounds the whole fill once a frame has started. *)
let really_read (fd : Unix.file_descr) (buf : Bytes.t) (n : int)
    ~(first_byte_idle : bool) ~(deadline : float option ref)
    ~(frame_budget : float option) : (unit, error) result =
  let got = ref 0 in
  let result = ref None in
  while !got < n && !result = None do
    match !deadline with
    | Some d when now () > d ->
        result := Some (Error (Truncated "frame budget exhausted"))
    | _ -> (
        match Unix.read fd buf !got (n - !got) with
        | 0 ->
            result :=
              Some
                (if !got = 0 && first_byte_idle then Error Closed
                 else Error (Truncated "peer closed mid-frame"))
        | k ->
            (* the frame clock starts at its first byte *)
            if !deadline = None then
              deadline := Option.map (fun b -> now () +. b) frame_budget;
            got := !got + k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            (* a receive-timeout tick: before a frame's first byte it is
               Idle; mid-frame we just wait again — the budget check at
               the loop top is what finally cuts a dribbling sender off *)
            if !got = 0 && !deadline = None && first_byte_idle then
              result := Some (Error Idle)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF
                | Unix.ESHUTDOWN ),
                _,
                _ ) ->
            result := Some (Error Closed))
  done;
  match !result with Some r -> r | None -> Ok ()

(* [deadline] (absolute) bounds the whole frame's write once the peer
   stops draining: a send-timeout tick ([SO_SNDTIMEO] on the fd surfaces
   as EAGAIN) past the deadline fails the write instead of wedging the
   writer behind a consumer that never reads. *)
let rec write_all ?(deadline : float option) (fd : Unix.file_descr)
    (buf : Bytes.t) (off : int) (len : int) : (unit, error) result =
  if len = 0 then Ok ()
  else
    match Unix.write fd buf off len with
    | k -> write_all ?deadline fd buf (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all ?deadline fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match deadline with
        | Some d when now () > d ->
            Error (Truncated "write budget exhausted")
        | _ -> write_all ?deadline fd buf off len)
    | exception
        Unix.Unix_error
          ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ESHUTDOWN), _, _)
      ->
        Error Closed

(** A connection's reusable frame buffers. Frames above 256 words would
    otherwise be allocated straight into the major heap, several times
    each (Buffer growth, [Buffer.contents], the framed copy on write; the
    payload and its string copy on read). With buffers, a steady stream of
    frames allocates no payload memory at all: the writer emits into [out]
    and copies it once into [frame] behind the length prefix, the reader
    fills [inb] and parses it in place ({!Json.of_bytes}). The write half
    ([out], [frame]) and the read half ([prefix], [inb]) are disjoint, so
    one thread may write while another reads; neither half is safe to
    share between two writers or two readers. *)
type buffers = {
  out : Buffer.t;
  mutable frame : Bytes.t;
  prefix : Bytes.t;
  mutable inb : Bytes.t;
}

let buffers () : buffers =
  {
    out = Buffer.create 256;
    frame = Bytes.empty;
    prefix = Bytes.create 4;
    inb = Bytes.empty;
  }

(* A frame bigger than this (a whole workload listing, say) is served from
   a buffer that is dropped afterwards, so one large reply does not pin
   its size for the connection's lifetime. *)
let keep_limit = 64 * 1024

(* [b] if it holds [n] bytes, else a buffer that does: grown by doubling
   up to [keep_limit], exact (and transient) above it. *)
let sized (b : Bytes.t) (n : int) : Bytes.t =
  if Bytes.length b >= n then b
  else if n <= keep_limit then
    Bytes.create (min keep_limit (max n (2 * Bytes.length b)))
  else Bytes.create n

let keep (b : Bytes.t) (previous : Bytes.t) : Bytes.t =
  if Bytes.length b <= keep_limit then b else previous

(** [write_frame fd json] — frame and send one JSON value atomically from
    the caller's point of view: the whole frame is assembled first, then
    written to completion or [Error Closed]. [write_budget] (seconds)
    bounds the wall-clock of the whole write when the fd carries a send
    timeout ([SO_SNDTIMEO]) — the per-connection write deadline that keeps
    a slow consumer from parking the daemon's writer forever. [buf]
    supplies the connection's reusable buffers (fresh ones otherwise). *)
let write_frame ?(write_budget : float option) ?(buf : buffers option)
    (fd : Unix.file_descr) (j : Json.t) : (unit, error) result =
  let bf = match buf with Some b -> b | None -> buffers () in
  Buffer.clear bf.out;
  Json.emit bf.out j;
  let n = Buffer.length bf.out in
  let frame = sized bf.frame (4 + n) in
  Bytes.set frame 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (n land 0xff));
  Buffer.blit bf.out 0 frame 4 n;
  bf.frame <- keep frame bf.frame;
  if n > keep_limit then Buffer.reset bf.out;
  let deadline = Option.map (fun b -> now () +. b) write_budget in
  write_all ?deadline fd frame 0 (4 + n)

(** [read_frame fd] — read one frame. [max_len] bounds the declared
    payload; [frame_budget] (seconds) bounds the wall-clock from a frame's
    first byte to its last. Set a receive timeout ([SO_RCVTIMEO]) on [fd]
    to get [Idle] ticks while no frame has started. [buf] supplies the
    connection's reusable buffers (fresh ones otherwise). *)
let read_frame ?(max_len = default_max_len) ?frame_budget ?(buf : buffers option)
    (fd : Unix.file_descr) : (Json.t, error) result =
  let bf = match buf with Some b -> b | None -> buffers () in
  let deadline = ref None in
  match
    really_read fd bf.prefix 4 ~first_byte_idle:true ~deadline ~frame_budget
  with
  | Error e -> Error e
  | Ok () -> (
      let b i = Char.code (Bytes.get bf.prefix i) in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n > max_len then Error (Oversized n)
      else
        let payload = sized bf.inb n in
        bf.inb <- keep payload bf.inb;
        match
          really_read fd payload n ~first_byte_idle:false ~deadline
            ~frame_budget
        with
        | Error e -> Error e
        | Ok () -> (
            match Json.of_bytes payload n with
            | j -> Ok j
            | exception Json.Parse_error msg -> Error (Bad_json msg)))
