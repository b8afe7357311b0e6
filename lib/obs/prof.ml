(** PC-bucketed execution profiler — the hotness signal behind
    [lisim profile] and the input the adaptive-tiering scheduler will
    consume.

    The profiler divides the address space into fixed power-of-two
    {e regions} ([2^region_bits] bytes, default 64) and attributes
    retired instructions to the region of the pc that executed them.
    Like the rest of {!Obs}, it is {e compiled in} at synthesis time:
    an interface built without a profiler contains no profiling code at
    all, and an interface built with one pays a single cached-region
    compare-and-add per attribution call. Block-semantic interfaces
    attribute whole blocks at once ([note] with the block's entry pc and
    its executed-site count — the translation cache's block extents), so
    the per-instruction cost on the chained fast path is amortized to
    nearly nothing.

    Three signals per region:

    - {b instructions} — exact cumulative attribution (deterministic:
      the same run attributes the same counts);
    - {b nanoseconds} — sampled wall-time attribution: every
      [sample_ns_every] attributed instructions the monotonic clock is
      read once and the elapsed time is charged to the region that was
      current when the sample fired. Statistical, cheap, and unbiased
      for regions hot enough to matter;
    - {b hotness} — an exponentially-decaying window over attributed
      instructions. Hotness decays by half every [half_life]
      instructions of {e total} execution, so a region that stopped
      executing cools off at a rate measured in simulated work, not
      wall time — the property a tier-up/tier-down scheduler needs to
      be deterministic and replayable.

    Decay semantics (exact, unit-tested): attribution is grouped into
    {e visits} — maximal runs of consecutive attributions to the same
    region. When a visit ends (the pc moves to another region, or a
    report is taken), the region's hotness is first decayed to "now"
    ([hot *. 0.5 ** ((total - hot_at) / half_life)]) and then the whole
    visit's instruction count is added, as if it had arrived at the
    visit's end. Region transitions are also counted as edges
    (predecessor region -> successor region), which is what the
    speedscope export renders as a flame view. *)

(* Hotness is kept in 16.16-style fixed point (an int scaled by 2^16)
   rather than a float: a mutable float field in a mixed record is boxed
   in OCaml, so every store would allocate — and the switch path stores
   twice (decay, then visit credit). Fixed point makes the whole
   attribution path allocation-free; 1/65536-instruction granularity is
   far below anything a hotness ranking can distinguish. *)
let hot_fixed_one = 65_536.

type region_rec = {
  mutable i_instrs : int;  (** exact cumulative instructions *)
  mutable i_ns : int;  (** sampled wall-time attribution *)
  mutable i_hot : int;  (** decaying window, fixed-point 2^-16 units,
                            valid as of [i_hot_at] *)
  mutable i_hot_at : int;  (** total instructions at last decay *)
  i_edges : (int, int ref) Hashtbl.t;  (** successor region id -> count *)
  mutable e_dst : int;  (** one-entry edge cache: last successor id *)
  mutable e_cnt : int ref;  (** its counter (aliases an [i_edges] entry) *)
}

type t = {
  region_bits : int;
  half_life : float;  (** instructions for hotness to halve *)
  neg_ln2_over_hl : float;  (** [-ln 2 / half_life], the decay exponent *)
  sample_ns_every : int;
  tbl : (int, region_rec) Hashtbl.t;
  mutable total : int;  (** instructions attributed *)
  mutable total_ns : int;
  mutable cur_id : int;  (** current region id; -1 before the first note *)
  mutable cur : region_rec;
  mutable prev_id : int;  (** previous region id; -1 before two regions *)
  mutable prev : region_rec;  (** ping-pong cache: loops that straddle a
                                  region boundary switch between the same
                                  two regions, so the return switch skips
                                  the hashtable *)
  mutable visit : int;  (** instructions attributed in the current visit *)
  mutable next_sample : int;  (** [total] at which the next ns sample fires
                                  (a threshold compare, not a countdown
                                  store, keeps the attribution fast path
                                  at four stores) *)
  mutable last_ts : int64;
  mutable decay_dt : int;  (** memoized decay: last dt (0 = none) ... *)
  mutable decay_f : float;  (** ... and its factor. Periodic visit patterns
                                close visits at a repeating dt, so the
                                [exp] is computed once per pattern, not
                                once per region switch *)
}

let default_region_bits = 6
let default_half_life = 32_768
let default_sample_ns_every = 1_024

(** Mean gap, in calls, between the timed calls of one call site of an
    observed interface ({!Sampler}): its latency histogram holds a
    jittered 1-in-64 sample of the calls, while its call counter stays
    exact. *)
let latency_sample_every = 64

let dummy_rec () =
  {
    i_instrs = 0;
    i_ns = 0;
    i_hot = 0;
    i_hot_at = 0;
    i_edges = Hashtbl.create 1;
    e_dst = -1;
    e_cnt = ref 0;
  }

let create ?(region_bits = default_region_bits)
    ?(half_life = default_half_life)
    ?(sample_ns_every = default_sample_ns_every) () =
  if region_bits < 0 || region_bits > 62 then
    invalid_arg "Prof.create: region_bits must be within [0, 62]";
  if half_life <= 0 then invalid_arg "Prof.create: half_life must be positive";
  if sample_ns_every <= 0 then
    invalid_arg "Prof.create: sample_ns_every must be positive";
  {
    region_bits;
    half_life = float_of_int half_life;
    neg_ln2_over_hl = -.Float.log 2. /. float_of_int half_life;
    sample_ns_every;
    tbl = Hashtbl.create 64;
    total = 0;
    total_ns = 0;
    cur_id = -1;
    cur = dummy_rec ();
    prev_id = -1;
    prev = dummy_rec ();
    visit = 0;
    next_sample = sample_ns_every;
    last_ts = Clock.now_ns ();
    decay_dt = 0;
    decay_f = 1.;
  }

let region_bits t = t.region_bits
let total_instrs t = t.total
let total_ns t = t.total_ns
let n_regions t = Hashtbl.length t.tbl

(* Untagged-int shift: no Int64 boxing on the attribution fast path.
   Equivalent to a logical shift of the low 63 pc bits — bit 63 of a
   64-bit pc folds into the sign and simulated address spaces never
   reach it. *)
let region_id t pc = Int64.to_int pc lsr t.region_bits
let region_lo t id = Int64.shift_left (Int64.of_int id) t.region_bits
let region_hi t id =
  Int64.add (region_lo t id) (Int64.of_int ((1 lsl t.region_bits) - 1))

let region_name t id = Printf.sprintf "0x%Lx-0x%Lx" (region_lo t id) (region_hi t id)

(* Decay [r]'s hotness window to [t.total] total instructions:
   [hot *= exp (-ln 2 * dt / half_life)]. The factor for the most recent
   dt is memoized — periodic visit patterns (a loop bouncing between two
   regions) repeat the same dt, so the [exp] is rarely recomputed. *)
let decay_to t (r : region_rec) =
  let dt = t.total - r.i_hot_at in
  if dt > 0 then begin
    if r.i_hot > 0 then begin
      let f =
        if dt = t.decay_dt then t.decay_f
        else begin
          let f = Float.exp (t.neg_ln2_over_hl *. float_of_int dt) in
          t.decay_dt <- dt;
          t.decay_f <- f;
          f
        end
      in
      r.i_hot <- int_of_float (float_of_int r.i_hot *. f)
    end;
    r.i_hot_at <- t.total
  end

(* Close the current visit: decay the region to now, then credit the
   visit's instructions to the window. *)
let close_visit t =
  if t.cur_id >= 0 && t.visit > 0 then begin
    decay_to t t.cur;
    t.cur.i_hot <- t.cur.i_hot + (t.visit lsl 16);
    t.visit <- 0
  end

let find_or_create t id =
  match Hashtbl.find_opt t.tbl id with
  | Some r -> r
  | None ->
    let r = dummy_rec () in
    Hashtbl.replace t.tbl id r;
    r

(* Region switch: close the previous visit, record the transition edge,
   swap the cached record. A loop body that straddles a region boundary
   switches on every iteration, so the switch path matters too: the
   ping-pong case (returning to the previous region) and the repeated
   edge both hit one-entry caches instead of the hashtables. *)
let[@inline never] switch t id =
  close_visit t;
  let from = t.cur and from_id = t.cur_id in
  let r = if id = t.prev_id then t.prev else find_or_create t id in
  if from_id >= 0 then begin
    (if from.e_dst = id then incr from.e_cnt
     else begin
       let n =
         match Hashtbl.find_opt from.i_edges id with
         | Some n ->
           incr n;
           n
         | None ->
           let n = ref 1 in
           Hashtbl.replace from.i_edges id n;
           n
       in
       from.e_dst <- id;
       from.e_cnt <- n
     end);
    t.prev_id <- from_id;
    t.prev <- from
  end;
  t.cur_id <- id;
  t.cur <- r

(* Read the clock once and charge the elapsed time to the region that
   was current when the sample countdown expired. *)
let[@inline never] sample_ns t =
  let now = Clock.now_ns () in
  let dt = Int64.to_int (Int64.sub now t.last_ts) in
  if dt > 0 && t.cur_id >= 0 then begin
    t.cur.i_ns <- t.cur.i_ns + dt;
    t.total_ns <- t.total_ns + dt
  end;
  t.last_ts <- now;
  t.next_sample <- t.total + t.sample_ns_every

(** [note t ~pc ~instrs] attributes [instrs] retired instructions to the
    region holding [pc]. Per-instruction interfaces call it with
    [~instrs:1] and the instruction's pc; block interfaces call it once
    per executed block with the block's entry pc and executed-site
    count (block-boundary aggregation: a block that straddles a region
    boundary is charged whole to its entry region). The fast path —
    same region as the previous call — is two compares and three adds. *)
let[@inline] note t ~pc ~instrs =
  let id = region_id t pc in
  if id <> t.cur_id then switch t id;
  t.cur.i_instrs <- t.cur.i_instrs + instrs;
  t.visit <- t.visit + instrs;
  t.total <- t.total + instrs;
  if t.total >= t.next_sample then sample_ns t

(** [merge ~into src] folds [src]'s region table into [into] — the join
    step for per-domain profilers after a parallel campaign. Exact for
    cumulative attribution (per-region instructions, sampled ns, edge
    counts, totals). The decayed-hotness window is combined
    approximately: each profiler's window is first decayed to its own
    present, then summed with the merge instant taken as "now" — fine
    for hot-region ranking, which is all the window feeds. Requires
    matching [region_bits]. [src] is left with its visit closed but its
    attribution intact. *)
let merge ~into src =
  if into.region_bits <> src.region_bits then
    invalid_arg "Prof.merge: region_bits mismatch";
  close_visit into;
  close_visit src;
  Hashtbl.iter (fun _ r -> decay_to into r) into.tbl;
  Hashtbl.iter (fun _ r -> decay_to src r) src.tbl;
  let now = into.total + src.total in
  Hashtbl.iter
    (fun id (r : region_rec) ->
      let d = find_or_create into id in
      d.i_instrs <- d.i_instrs + r.i_instrs;
      d.i_ns <- d.i_ns + r.i_ns;
      d.i_hot <- d.i_hot + r.i_hot;
      Hashtbl.iter
        (fun dst n ->
          match Hashtbl.find_opt d.i_edges dst with
          | Some m -> m := !m + !n
          | None -> Hashtbl.replace d.i_edges dst (ref !n))
        r.i_edges)
    src.tbl;
  into.total <- now;
  into.total_ns <- into.total_ns + src.total_ns;
  Hashtbl.iter (fun _ r -> r.i_hot_at <- now) into.tbl;
  into.next_sample <- into.total + into.sample_ns_every

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type region = {
  rg_id : int;
  rg_lo : int64;  (** inclusive region base address *)
  rg_hi : int64;  (** inclusive region end address *)
  rg_instrs : int;
  rg_ns : int;
  rg_hotness : float;  (** decayed to the report instant *)
  rg_share : float;  (** fraction of all attributed instructions *)
}

(** [report ?top t] — regions ranked by decayed hotness (ties broken by
    cumulative instructions, then address), hottest first, truncated to
    [top] when given. Taking a report closes the current visit (the
    window is brought fully up to date) but loses no attribution. *)
let report ?top t : region list =
  close_visit t;
  let total = float_of_int (max t.total 1) in
  let all =
    Hashtbl.fold
      (fun id r acc ->
        decay_to t r;
        {
          rg_id = id;
          rg_lo = region_lo t id;
          rg_hi = region_hi t id;
          rg_instrs = r.i_instrs;
          rg_ns = r.i_ns;
          rg_hotness = float_of_int r.i_hot /. hot_fixed_one;
          rg_share = float_of_int r.i_instrs /. total;
        }
        :: acc)
      t.tbl []
  in
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare b.rg_hotness a.rg_hotness with
        | 0 -> (
          match compare b.rg_instrs a.rg_instrs with
          | 0 -> compare a.rg_id b.rg_id
          | c -> c)
        | c -> c)
      all
  in
  match top with
  | None -> ranked
  | Some n -> List.filteri (fun i _ -> i < n) ranked

(** Region-transition edges [(src_id, dst_id, count)], heaviest first
    (ties broken by source then destination id). *)
let edges t =
  let all =
    Hashtbl.fold
      (fun src r acc ->
        Hashtbl.fold (fun dst n acc -> (src, dst, !n) :: acc) r.i_edges acc)
      t.tbl []
  in
  List.sort
    (fun (s1, d1, n1) (s2, d2, n2) ->
      match compare n2 n1 with
      | 0 -> ( match compare s1 s2 with 0 -> compare d1 d2 | c -> c)
      | c -> c)
    all

(** [instrs_of t ~pc] — exact instructions attributed to [pc]'s region
    so far (0 when never executed). The brute-force cross-check hook. *)
let instrs_of t ~pc =
  match Hashtbl.find_opt t.tbl (region_id t pc) with
  | Some r -> r.i_instrs
  | None -> 0

(** The [lisim profile] table. *)
let pp_report ?(top = 10) ppf t =
  let rs = report ~top t in
  Format.fprintf ppf "%-24s %12s %7s %12s %12s@\n" "region" "instrs" "share"
    "hotness" "ns(sampled)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s %12d %6.1f%% %12.1f %12d@\n"
        (region_name t r.rg_id) r.rg_instrs
        (100. *. r.rg_share)
        r.rg_hotness r.rg_ns)
    rs;
  Format.fprintf ppf
    "%d region(s) of %d bytes, %d instructions attributed, %d ns sampled@\n"
    (n_regions t) (1 lsl t.region_bits) t.total t.total_ns

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

(** Top-N regions as JSON (the shape embedded in metrics snapshots). *)
let json_top ?(top = 10) t : Export.json =
  Export.Arr
    (List.map
       (fun r ->
         Export.Obj
           [
             ("region", Export.Str (region_name t r.rg_id));
             ("instrs", Export.Int (Int64.of_int r.rg_instrs));
             ("share", Export.Float r.rg_share);
             ("hotness", Export.Float r.rg_hotness);
             ("ns", Export.Int (Int64.of_int r.rg_ns));
           ])
       (report ~top t))

(** Speedscope document (load at https://www.speedscope.app or with
    [speedscope file.json]): one frame per region, and two sampled
    profiles — "hot regions" (single-frame stacks weighted by exact
    attributed instructions) and "region transitions" (two-frame
    [src; dst] stacks weighted by transition counts, the flame view of
    the region call/chain graph). *)
let speedscope ?(name = "lisim profile") t : Export.json =
  let regions =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.tbl [])
  in
  let index = Hashtbl.create (List.length regions) in
  List.iteri (fun i id -> Hashtbl.replace index id i) regions;
  let frames =
    List.map (fun id -> Export.Obj [ ("name", Export.Str (region_name t id)) ]) regions
  in
  let self =
    List.filter_map
      (fun r ->
        if r.rg_instrs = 0 then None
        else Some ([ Hashtbl.find index r.rg_id ], r.rg_instrs))
      (List.sort (fun a b -> compare a.rg_id b.rg_id) (report t))
  in
  let trans =
    List.map
      (fun (src, dst, n) ->
        ([ Hashtbl.find index src; Hashtbl.find index dst ], n))
      (edges t)
  in
  let profile pname samples =
    let total = List.fold_left (fun a (_, w) -> a + w) 0 samples in
    Export.Obj
      [
        ("type", Export.Str "sampled");
        ("name", Export.Str pname);
        ("unit", Export.Str "none");
        ("startValue", Export.Int 0L);
        ("endValue", Export.Int (Int64.of_int total));
        ( "samples",
          Export.Arr
            (List.map
               (fun (stack, _) ->
                 Export.Arr (List.map (fun i -> Export.Int (Int64.of_int i)) stack))
               samples) );
        ( "weights",
          Export.Arr (List.map (fun (_, w) -> Export.Int (Int64.of_int w)) samples)
        );
      ]
  in
  Export.Obj
    [
      ("$schema", Export.Str "https://www.speedscope.app/file-format-schema.json");
      ("name", Export.Str name);
      ("exporter", Export.Str "lisim");
      ("activeProfileIndex", Export.Int 0L);
      ("shared", Export.Obj [ ("frames", Export.Arr frames) ]);
      ( "profiles",
        Export.Arr
          [
            profile (name ^ ": hot regions (instructions)") self;
            profile (name ^ ": region transitions") trans;
          ] );
    ]
