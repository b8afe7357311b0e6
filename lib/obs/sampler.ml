(** Jittered latency sampling for the call sites of an observed
    interface.

    A site counts every call exactly but reads the clock only on the
    calls its sampler picks: the call made when the site's exact call
    count (before counting it) has reached [next] is timed, and
    {!fired} then draws the next threshold a gap further on, uniform in
    [1, 2 * Prof.latency_sample_every - 1] (mean
    [Prof.latency_sample_every]). Hot paths compare the count against
    [next] themselves, so a call that is not timed costs one compare.

    Gaps come from a deterministic generator, so a run samples the same
    calls every time, and the jitter keeps loops whose period divides
    the mean from always sampling the same phase. The first call is
    always timed, so a site that ran has at least one sample. A site's
    total time is estimated as its histogram's mean times its call
    count. *)

type t = {
  mutable next : int;  (** the call count at which the next timed call is made *)
  mutable seed : int;
}

(* [seed] tells sites apart, so sites called in lockstep (the
   entrypoints of one instruction) fire on different calls. *)
let create seed = { next = 0; seed }

let gap_span = (2 * Prof.latency_sample_every) - 1

(** [fired t calls] draws the next threshold after the timed call made
    at count [calls]. The generator is a full-period linear congruential
    one modulo 2^63 (OCaml's int arithmetic); its high bits pick the
    gap. *)
let fired t calls =
  let s = (t.seed * 0x27BB2EE687B0B0FD) + 0x14057B7EF767814F in
  t.seed <- s;
  t.next <- calls + 1 + (((s lsr 31) land 0xFFFF_FFFF) mod gap_span)
