(** Set-associative cache model with true-LRU replacement.

    Timing simulators attach one per level; only hit/miss behaviour and
    occupancy are modelled (no data — the functional simulator owns data). *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
  miss_penalty : int;
}

let l1i_default =
  { size_bytes = 16 * 1024; ways = 2; line_bytes = 64; hit_latency = 1; miss_penalty = 12 }

let l1d_default =
  { size_bytes = 16 * 1024; ways = 4; line_bytes = 64; hit_latency = 1; miss_penalty = 12 }

let l2_default =
  { size_bytes = 256 * 1024; ways = 8; line_bytes = 64; hit_latency = 6; miss_penalty = 80 }

type t = {
  config : config;
  sets : int;
  line_bits : int;
  tags : int array;  (** sets * ways line numbers; -1 = invalid *)
  lru : int array;  (** age per way; 0 = most recent *)
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create (config : config) =
  if config.ways < 1 then invalid_arg "Cache.create: ways must be at least 1";
  let lb = config.line_bytes in
  (* lines of at least 4 bytes keep every line number below 2^62, so it
     is exact as an [int] tag *)
  if lb < 4 || lb land (lb - 1) <> 0 then
    invalid_arg "Cache.create: line_bytes must be a power of two, at least 4";
  let sets = config.size_bytes / (config.ways * lb) in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a positive power of two";
  {
    config;
    sets;
    line_bits = log2 lb;
    tags = Array.make (sets * config.ways) (-1);
    lru = Array.init (sets * config.ways) (fun i -> i mod config.ways);
    accesses = 0;
    misses = 0;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.iteri (fun i _ -> t.lru.(i) <- i mod t.config.ways) t.lru;
  t.accesses <- 0;
  t.misses <- 0

let line_bits t = t.line_bits

(* Make [way] of the set at [base] the most recent. *)
let touch t base way =
  let age = t.lru.(base + way) in
  for w = 0 to t.config.ways - 1 do
    if t.lru.(base + w) < age then t.lru.(base + w) <- t.lru.(base + w) + 1
  done;
  t.lru.(base + way) <- 0

(** [access_line t line] returns [true] on hit, updating LRU and
    statistics. *)
let access_line t line =
  t.accesses <- t.accesses + 1;
  let base = (line land (t.sets - 1)) * t.config.ways in
  let hit_way = ref (-1) in
  for w = 0 to t.config.ways - 1 do
    if t.tags.(base + w) = line then hit_way := w
  done;
  if !hit_way >= 0 then begin
    touch t base !hit_way;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict the oldest way *)
    let victim = ref 0 in
    for w = 0 to t.config.ways - 1 do
      if t.lru.(base + w) > t.lru.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- line;
    touch t base !victim;
    false
  end

let line_of t (addr : int64) =
  Int64.to_int (Int64.shift_right_logical addr t.line_bits)

let access t addr = access_line t (line_of t addr)

let latency_line t line =
  if access_line t line then t.config.hit_latency
  else t.config.hit_latency + t.config.miss_penalty

(** [latency t addr] combines access with the configured latencies. *)
let latency t addr = latency_line t (line_of t addr)

let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let stats t = (Int64.of_int t.accesses, Int64.of_int t.misses)
