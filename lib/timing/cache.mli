(** Set-associative cache model with true-LRU replacement. Only hit/miss
    behaviour and latency are modelled — the functional simulator owns all
    data. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
  miss_penalty : int;
}

(** 16 KiB 2-way / 16 KiB 4-way / 256 KiB 8-way, 64-byte lines. *)
val l1i_default : config

val l1d_default : config
val l2_default : config

type t

(** @raise Invalid_argument unless [ways >= 1], [line_bytes] is a power
    of two of at least 4 and the set count is a power of two. *)
val create : config -> t

val reset : t -> unit

(** [access t addr] is [true] on hit; updates LRU state and statistics. *)
val access : t -> int64 -> bool

(** [latency t addr] combines an access with the configured latencies. *)
val latency : t -> int64 -> int

(** log2 of the line size: address [a] lies in line number
    [Int64.to_int (Int64.shift_right_logical a (line_bits t))]. *)
val line_bits : t -> int

(** [latency_line t line] is {!latency} for an address in line number
    [line]: timing models compute the line from an unboxed word. *)
val latency_line : t -> int -> int

val miss_rate : t -> float

(** [(accesses, misses)] since creation or {!reset}. *)
val stats : t -> int64 * int64
