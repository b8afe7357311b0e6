(** Monotonic nanosecond clock for latency attribution.

    Backed by the [clock_gettime(CLOCK_MONOTONIC)] stub that Bechamel
    ships ([@@noalloc], unboxed int64), so a timestamp costs one C call
    and no allocation — cheap enough to wrap individual entrypoint calls
    when an interface is observed. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(** [elapsed_ns t0] — nanoseconds since [t0], clamped to an OCaml int
    (63 bits hold ~292 years of nanoseconds). *)
let elapsed_ns (t0 : int64) : int = Int64.to_int (Int64.sub (now_ns ()) t0)
