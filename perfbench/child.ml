(** The [scaf_eval serve] child process the serve workloads talk to.

    The daemon runs with its defaults (2 workers, [--jobs 1]) on a Unix
    socket under the benchmark's scratch directory; the benchmark holds one
    client connection to it. {!stop} always asks for a clean shutdown and
    reaps the process, falling back to [SIGKILL] if it does not exit. *)

open Scaf_server

type t = { pid : int; socket : string; client : Client.t }

(** [spawn ~exe ~socket] — start the daemon and return once it has
    answered a [ping], with the seconds that took. *)
let spawn ~(exe : string) ~(socket : string) ~(log : string) : t * float =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] null out out
  in
  Unix.close out;
  Unix.close null;
  let deadline = t0 +. 60.0 in
  let rec connect () =
    match
      Client.connect ~name:"perfbench" ~retry:Client.no_retry socket
    with
    | c, _ -> c
    | exception (Client.Transport_error _ | Client.Server_error _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith (Printf.sprintf "daemon exited during start-up; see %s" log));
        if Clock.now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "daemon did not come up within 60 s"
        end;
        Thread.delay 0.002;
        connect ()
  in
  let client = connect () in
  Client.ping client;
  let up = Clock.now () -. t0 in
  ({ pid; socket; client }, up)

(** Shut the daemon down and wait for it to exit. *)
let stop (d : t) : unit =
  (try Client.shutdown d.client with _ -> ());
  Client.close d.client;
  let deadline = Clock.now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
        Thread.delay 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  try Sys.remove d.socket with Sys_error _ -> ()
