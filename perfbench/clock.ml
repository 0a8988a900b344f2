(** The benchmark's one clock: [CLOCK_MONOTONIC], in seconds, with
    nanosecond resolution (a 30 µs request read at microsecond
    resolution would quantise its own median). *)

let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
