(** Observability layer: ring wrap-around and ordering, histogram bucket
    boundaries and merge, counter/snapshot isolation, exporter round
    trips (JSONL and the Chrome trace-event format), a qcheck property
    tying entrypoint-crossing counts to executed instructions for every
    buildset of the alpha ISA, and the sampled latency histograms of
    fully observed interfaces. *)

(* ---------------- ring buffer ------------------------------------ *)

let ev ?(ts = 0L) ?(dur = 0) ?(args = []) name =
  (ts, dur, name, args)

let record_all ring evs =
  List.iter
    (fun (ts_ns, dur_ns, name, args) ->
      Obs.Ring.record ring ~ts_ns ~dur_ns ~name ~cat:"test" ~args)
    evs

let names ring =
  List.map (fun (e : Obs.Ring.event) -> e.name) (Obs.Ring.to_list ring)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Obs.Ring.capacity r);
  Alcotest.(check int) "empty length" 0 (Obs.Ring.length r);
  Alcotest.(check (list string)) "empty list" [] (names r);
  record_all r [ ev "a"; ev "b"; ev "c" ];
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "total" 3 (Obs.Ring.total_recorded r);
  Alcotest.(check (list string)) "oldest first" [ "a"; "b"; "c" ] (names r)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 10 (fun i -> ev (Printf.sprintf "e%d" i)));
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "total counts everything" 10 (Obs.Ring.total_recorded r);
  Alcotest.(check (list string))
    "most recent, oldest first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (names r)

let test_ring_exact_fill () =
  (* filling to exactly capacity must not drop or rotate anything *)
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 4 (fun i -> ev (Printf.sprintf "e%d" i)));
  Alcotest.(check (list string)) "full, in order" [ "e0"; "e1"; "e2"; "e3" ] (names r);
  record_all r [ ev "e4" ];
  Alcotest.(check (list string))
    "one past capacity evicts the oldest"
    [ "e1"; "e2"; "e3"; "e4" ]
    (names r)

let test_ring_clear () =
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 7 (fun i -> ev (Printf.sprintf "e%d" i)));
  Obs.Ring.clear r;
  Alcotest.(check int) "length" 0 (Obs.Ring.length r);
  Alcotest.(check int) "total" 0 (Obs.Ring.total_recorded r);
  record_all r [ ev "x" ];
  Alcotest.(check (list string)) "usable after clear" [ "x" ] (names r)

let test_ring_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

(* ---------------- histograms ------------------------------------- *)

let test_hist_bucket_boundaries () =
  (* bucket 0 absorbs 0, 1 and negatives; bucket i holds [2^i, 2^(i+1)) *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Obs.Hist.bucket_of v))
    [
      (-5, 0); (0, 0); (1, 0);
      (2, 1); (3, 1);
      (4, 2); (7, 2);
      (8, 3); (15, 3);
      (1023, 9); (1024, 10); (2047, 10); (2048, 11);
    ];
  Alcotest.(check int) "bucket_lo 0" 0 (Obs.Hist.bucket_lo 0);
  Alcotest.(check int) "bucket_hi 0" 1 (Obs.Hist.bucket_hi 0);
  Alcotest.(check int) "bucket_lo 10" 1024 (Obs.Hist.bucket_lo 10);
  Alcotest.(check int) "bucket_hi 10" 2047 (Obs.Hist.bucket_hi 10);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) [ 0; 1; 2; 3; 4; 7; 1024 ];
  Alcotest.(check (list (triple int int int)))
    "nonzero buckets, low to high"
    [ (0, 1, 2); (2, 3, 2); (4, 7, 2); (1024, 2047, 1) ]
    (Obs.Hist.nonzero_buckets h);
  Alcotest.(check int) "count" 7 (Obs.Hist.count h);
  Alcotest.(check int) "sum ignores sign-free zero floor" (0 + 1 + 2 + 3 + 4 + 7 + 1024) (Obs.Hist.sum h);
  Alcotest.(check int) "max" 1024 (Obs.Hist.max_value h)

let test_hist_negative_sample () =
  (* a clock step backwards must round to zero, not corrupt the sum *)
  let h = Obs.Hist.create () in
  Obs.Hist.record h (-100);
  Obs.Hist.record h 6;
  Alcotest.(check int) "count" 2 (Obs.Hist.count h);
  Alcotest.(check int) "sum floors negatives at 0" 6 (Obs.Hist.sum h);
  Alcotest.(check int) "max untouched by negatives" 6 (Obs.Hist.max_value h)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.record a) [ 2; 3; 100 ];
  List.iter (Obs.Hist.record b) [ 2; 5000 ];
  Obs.Hist.merge ~into:a b;
  Alcotest.(check int) "count adds" 5 (Obs.Hist.count a);
  Alcotest.(check int) "sum adds" (2 + 3 + 100 + 2 + 5000) (Obs.Hist.sum a);
  Alcotest.(check int) "max combines" 5000 (Obs.Hist.max_value a);
  Alcotest.(check (list (triple int int int)))
    "bucket counts combine"
    [ (2, 3, 3); (64, 127, 1); (4096, 8191, 1) ]
    (Obs.Hist.nonzero_buckets a);
  (* src is untouched *)
  Alcotest.(check int) "src count unchanged" 2 (Obs.Hist.count b)

let test_hist_percentile () =
  let h = Obs.Hist.create () in
  for _ = 1 to 99 do
    Obs.Hist.record h 10
  done;
  Obs.Hist.record h 100_000;
  (* p50 lands in the [8,15] bucket but is capped by the recorded max *)
  Alcotest.(check int) "p50" 15 (Obs.Hist.percentile h 50.);
  Alcotest.(check int) "p100 is the max" 100_000 (Obs.Hist.percentile h 100.);
  Alcotest.(check int) "empty percentile" 0
    (Obs.Hist.percentile (Obs.Hist.create ()) 50.)

let test_hist_percentile_edges () =
  let empty = Obs.Hist.create () in
  Alcotest.(check (option int)) "empty -> None" None
    (Obs.Hist.percentile_opt empty 50.);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) [ 10; 10; 700 ];
  (* p <= 0: rank clamps to 1, the lowest non-empty bucket's upper bound *)
  Alcotest.(check int) "p0 = lowest bucket hi" 15 (Obs.Hist.percentile h 0.);
  Alcotest.(check int) "negative p clamps too" 15 (Obs.Hist.percentile h (-5.));
  (* ranks round up: p50 of 3 samples is rank 2, still in [8,15] *)
  Alcotest.(check int) "p50 rank ceils" 15 (Obs.Hist.percentile h 50.);
  (* rank 3 lands in [512,1023] but is capped at the recorded max *)
  Alcotest.(check int) "capped at max" 700 (Obs.Hist.percentile h 67.);
  Alcotest.(check int) "p>100 clamps to max" 700 (Obs.Hist.percentile h 150.);
  Alcotest.(check (option int)) "opt agrees when non-empty" (Some 700)
    (Obs.Hist.percentile_opt h 100.)

(* Renderers must not turn "no samples" into a literal 0 percentile. *)
let test_export_empty_hist_percentiles () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.histogram reg "e.h");
  match Obs.Export.json_of_snapshot (Obs.Registry.snapshot reg) with
  | Obs.Export.Obj [ ("e.h", Obs.Export.Obj fields) ] ->
    Alcotest.(check bool) "p50 is null" true
      (List.assoc "p50" fields = Obs.Export.Null);
    Alcotest.(check bool) "p99 is null" true
      (List.assoc "p99" fields = Obs.Export.Null);
    Alcotest.(check bool) "count is 0" true
      (List.assoc "count" fields = Obs.Export.Int 0L)
  | _ -> Alcotest.fail "unexpected snapshot shape"

(* Satellite: every renderer consumes the name-sorted snapshot, so
   output order is deterministic regardless of registration order. *)
let test_export_ordering_stable () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "z.last");
  ignore (Obs.Registry.histogram reg "m.mid");
  ignore (Obs.Registry.counter reg "a.first");
  let snap = Obs.Registry.snapshot reg in
  Alcotest.(check (list string)) "snapshot is name-sorted"
    [ "a.first"; "m.mid"; "z.last" ]
    (List.map fst snap);
  (match Obs.Export.json_of_snapshot snap with
  | Obs.Export.Obj kvs ->
    Alcotest.(check (list string)) "json keys sorted"
      [ "a.first"; "m.mid"; "z.last" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "unexpected snapshot shape");
  let pp = Format.asprintf "%a" Obs.Export.pp_snapshot snap in
  let pos name =
    let rec find i =
      if i + String.length name > String.length pp then -1
      else if String.sub pp i (String.length name) = name then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "pp order a < m" true (pos "a.first" < pos "m.mid");
  Alcotest.(check bool) "pp order m < z" true (pos "m.mid" < pos "z.last")

(* ---------------- registry --------------------------------------- *)

let test_counter_identity () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "x.a" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  (* find-or-create returns the same underlying cell *)
  let c' = Obs.Registry.counter reg "x.a" in
  Alcotest.(check int) "shared cell" 5 (Obs.Registry.get c')

let test_snapshot_isolation () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "x.a" in
  let h = Obs.Registry.histogram reg "x.h" in
  Obs.Registry.add c 5;
  Obs.Hist.record h 4;
  let snap = Obs.Registry.snapshot reg in
  Obs.Registry.add c 100;
  Obs.Hist.record h 4;
  Obs.Hist.record h 4;
  Alcotest.(check (option int)) "counter frozen" (Some 5)
    (Obs.Registry.find_int snap "x.a");
  (match Obs.Registry.find snap "x.h" with
  | Some (Obs.Registry.Histogram hc) ->
    Alcotest.(check int) "histogram deep-copied" 1 (Obs.Hist.count hc)
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (* snapshots also survive reset *)
  Obs.Registry.reset reg;
  Alcotest.(check (option int)) "snapshot survives reset" (Some 5)
    (Obs.Registry.find_int snap "x.a");
  Alcotest.(check (option int)) "live counter reset" (Some 0)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.a")

let test_probe_first_wins () =
  let reg = Obs.Registry.create () in
  Obs.Registry.probe reg "x.gauge" (fun () -> Obs.Registry.Int 1);
  Obs.Registry.probe reg "x.gauge" (fun () -> Obs.Registry.Int 2);
  Alcotest.(check (option int)) "first registration wins" (Some 1)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.gauge");
  (* probes re-sample at snapshot time and survive reset *)
  let n = ref 10 in
  Obs.Registry.probe reg "x.live" (fun () -> Obs.Registry.Int !n);
  n := 11;
  Alcotest.(check (option int)) "probe samples at snapshot" (Some 11)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.live");
  Obs.Registry.reset reg;
  Alcotest.(check (option int)) "probe unaffected by reset" (Some 11)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.live")

(* ---------------- exporters -------------------------------------- *)

let sample_events =
  [
    {
      Obs.Ring.ts_ns = 1_000L;
      dur_ns = 250;
      name = "LDQ \"quoted\"";
      cat = "instr";
      args = [ ("pc", Obs.Ring.I 4096L); ("note", Obs.Ring.S "a\nb\t\\") ];
    };
    {
      Obs.Ring.ts_ns = 2_500L;
      dur_ns = 0;
      name = "block";
      cat = "block";
      args = [ ("frac", Obs.Ring.F 0.5) ];
    };
  ]

let test_json_roundtrip () =
  let open Obs.Export in
  let doc =
    Obj
      [
        ("i", Int 42L);
        ("neg", Int (-7L));
        ("f", Float 1.5);
        ("s", Str "a\"b\\c\nd\te\r \x01");
        ("b", Bool true);
        ("n", Null);
        ("arr", Arr [ Int 1L; Str "x"; Obj [] ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (parse (to_string doc) = doc);
  Alcotest.(check bool) "bad json rejected" true (parse_opt "{\"a\": " = None);
  Alcotest.(check bool) "trailing data rejected" true (parse_opt "1 2" = None)

let test_jsonl_export () =
  let lines =
    String.split_on_char '\n' (Obs.Export.jsonl_of_events sample_events)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Export.parse_opt line with
      | Some (Obs.Export.Obj kvs) ->
        Alcotest.(check bool) "has name" true (List.mem_assoc "name" kvs);
        Alcotest.(check bool) "has ts_ns" true (List.mem_assoc "ts_ns" kvs)
      | _ -> Alcotest.fail "line is not a JSON object")
    lines;
  (match Obs.Export.parse_opt (List.hd lines) with
  | Some j ->
    Alcotest.(check bool) "escaped name survives" true
      (Obs.Export.member "name" j = Some (Obs.Export.Str "LDQ \"quoted\""))
  | None -> Alcotest.fail "unparseable first line")

let test_chrome_export () =
  let open Obs.Export in
  let doc = to_string (chrome_of_events sample_events) in
  let j = parse doc in
  (match member "displayTimeUnit" j with
  | Some (Str "ns") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  match member "traceEvents" j with
  | Some (Arr evs) ->
    Alcotest.(check int) "all events exported" 2 (List.length evs);
    List.iter
      (fun e ->
        (* the fields Perfetto / chrome://tracing require of a complete
           event: name, ph="X", ts (µs), dur, pid, tid *)
        Alcotest.(check bool) "ph is X" true (member "ph" e = Some (Str "X"));
        List.iter
          (fun field ->
            match member field e with
            | Some (Int _ | Float _ | Str _) -> ()
            | _ -> Alcotest.fail (field ^ " missing"))
          [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
      evs;
    (* microsecond conversion: 1000 ns -> 1.0 µs *)
    (match member "ts" (List.hd evs) with
    | Some (Float us) -> Alcotest.(check (float 1e-9)) "ts in µs" 1.0 us
    | _ -> Alcotest.fail "ts not a float")
  | _ -> Alcotest.fail "traceEvents missing"

(* An instrumented run end-to-end: the ring fills with real instruction
   events and the Chrome export of that ring parses and keeps them all —
   the CLI's run --trace-out path without the process spawn. *)
let test_chrome_export_from_run () =
  let o = Obs.create ~ring_capacity:64 () in
  let k = List.hd Vir.Kernels.pathological (* spin *) in
  let l = Workload.load ~obs:o Workload.alpha ~buildset:"one_all" k.program in
  let executed = Specsim.Iface.run_n l.iface 100 in
  Alcotest.(check bool) "ran instructions" true (executed >= 100);
  let events = Obs.events o in
  Alcotest.(check int) "ring capped" 64 (List.length events);
  let j = Obs.Export.parse (Obs.Export.to_string (Obs.Export.chrome_of_events events)) in
  match Obs.Export.member "traceEvents" j with
  | Some (Obs.Export.Arr evs) ->
    Alcotest.(check int) "every ring event exported" 64 (List.length evs)
  | _ -> Alcotest.fail "traceEvents missing"

(* ---------------- crossings property ----------------------------- *)

(* The synthesized instrumentation counts one crossing per entrypoint
   call. Driving N instructions of the never-halting spin kernel must
   give exactly N * n_entrypoints crossings for per-instruction
   interfaces and N for block interfaces (each executed site is one
   crossing of the block entrypoint) — for every buildset of the ISA. *)
let test_crossings_property =
  let spec = Lazy.force Workload.alpha.spec in
  let buildsets = Lis.Spec.buildset_names spec in
  QCheck.Test.make ~count:15 ~name:"entrypoint crossings = instrs * entrypoints"
    QCheck.(int_range 1 200)
    (fun budget ->
      let k = List.hd Vir.Kernels.pathological (* spin: never halts *) in
      List.for_all
        (fun bs ->
          let o = Obs.create () in
          let l = Workload.load ~obs:o Workload.alpha ~buildset:bs k.program in
          let executed = Specsim.Iface.run_n l.iface budget in
          let n_eps =
            if l.iface.bs.bs_block then 1
            else Specsim.Iface.n_entrypoints l.iface
          in
          let snap = Obs.snapshot o in
          match Obs.Registry.find_int snap "synth.entrypoint_calls" with
          | Some crossings -> crossings = executed * n_eps
          | None -> false)
        buildsets)

(* ---------------- sampled latency -------------------------------- *)

(* Full-Obs interfaces count every crossing but time a jittered 1-in-64
   sample of each site's calls. The cases: alpha hash_loop through
   step_all under Timing.Directed (Step calls) and through run_n (whole
   instructions), one_all and block_min through run_n. *)
let sampled_budget = 20_000

let hash_loop =
  List.find (fun (k : Vir.Kernels.sized) -> k.kname = "hash_loop") Vir.Kernels.bench_suite

let sampled_run ?ring_capacity ~bs ~directed () =
  let o = Obs.create ?ring_capacity () in
  let l = Workload.load ~obs:o Workload.alpha ~buildset:bs hash_loop.program in
  if directed then
    ignore (Timing.Directed.run l.iface ~budget:sampled_budget)
  else ignore (Specsim.Iface.run_n l.iface sampled_budget);
  (l, o)

let sampled_cases =
  [ ("step_all", true); ("step_all", false); ("one_all", false); ("block_min", false) ]

let case_name (bs, directed) = bs ^ if directed then " (Directed)" else " (run_n)"

(* The timed sites of a run, as (histogram, its calls): entrypoints on
   per-instruction buildsets, the block on block buildsets. *)
let timed_sites (l : Workload.loaded) snap =
  let calls name = Option.value ~default:0 (Obs.Registry.find_int snap name) in
  let hist name =
    match Obs.Registry.find snap name with
    | Some (Obs.Registry.Histogram h) -> h
    | _ -> Alcotest.failf "%s missing" name
  in
  if l.iface.bs.bs_block then
    [ ("synth.block", hist "synth.block.ns", calls "synth.block.calls") ]
  else
    Array.to_list l.iface.entry_names
    |> List.map (fun ep ->
           let base = "synth.ep." ^ ep in
           (base, hist (base ^ ".ns"), calls (base ^ ".calls")))

let test_sampled_counts () =
  List.iter
    (fun ((bs, directed) as case) ->
      let l, o = sampled_run ~bs ~directed () in
      let snap = Obs.snapshot o in
      let name = case_name case in
      let executed = Int64.to_int l.iface.stats.instrs_executed in
      Alcotest.(check bool) (name ^ ": ran the budget") true (executed >= sampled_budget);
      (* counts stay exact: every crossing of every entrypoint *)
      let ep_calls =
        Array.to_list l.iface.entry_names
        |> List.map (fun ep ->
               Option.get (Obs.Registry.find_int snap ("synth.ep." ^ ep ^ ".calls")))
      in
      Alcotest.(check (option int)) (name ^ ": crossings = sum of entrypoint calls")
        (Some (List.fold_left ( + ) 0 ep_calls))
        (Obs.Registry.find_int snap "synth.entrypoint_calls");
      if l.iface.bs.bs_block then
        Alcotest.(check (list int)) (name ^ ": one crossing per instruction")
          [ executed ] ep_calls
      else if not directed then
        List.iter
          (fun c -> Alcotest.(check int) (name ^ ": one call per instruction") executed c)
          ep_calls;
      (* timing is a sample of every site that ran *)
      let sites = timed_sites l snap in
      List.iter
        (fun (site, h, calls) ->
          let n = Obs.Hist.count h in
          Alcotest.(check bool) (Printf.sprintf "%s: %s was called" name site) true
            (calls > 1000);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s has %d samples of %d calls (want %d..%d)" name site n
               calls (calls / 128) (calls / 32))
            true
            (n >= 1 && n >= calls / 128 && n <= calls / 32))
        sites;
      (* and the sample is deterministic *)
      let l', o' = sampled_run ~bs ~directed () in
      let counts l o =
        List.map (fun (site, h, calls) -> (site, Obs.Hist.count h, calls))
          (timed_sites l (Obs.snapshot o))
      in
      Alcotest.(check (list (triple string int int)))
        (name ^ ": identical runs sample identically")
        (counts l o) (counts l' o'))
    sampled_cases

(* A ring still gets one event per instruction (per block on block
   buildsets), each with its own duration. *)
let test_sampled_ring () =
  List.iter
    (fun bs ->
      let l, o = sampled_run ~ring_capacity:(4 * sampled_budget) ~bs ~directed:false () in
      let events = Obs.events o in
      let snap = Obs.snapshot o in
      let want =
        if l.iface.bs.bs_block then Option.get (Obs.Registry.find_int snap "synth.block.calls")
        else Int64.to_int l.iface.stats.instrs_executed
      in
      Alcotest.(check int) (bs ^ ": one ring event per unit") want (List.length events))
    [ "step_all"; "one_all"; "block_min" ]

(* Without a ring a fully observed interface runs the bare sites, no DI
   records: it must end where an unobserved one does. *)
let test_observed_matches_plain () =
  List.iter
    (fun ((bs, directed) as case) ->
      let observed, _ = sampled_run ~bs ~directed () in
      let plain = Workload.load Workload.alpha ~buildset:bs hash_loop.program in
      if directed then ignore (Timing.Directed.run plain.iface ~budget:sampled_budget)
      else ignore (Specsim.Iface.run_n plain.iface sampled_budget);
      let name = case_name case in
      let a = observed.iface.st and b = plain.iface.st in
      Alcotest.(check bool) (name ^ ": registers") true (Machine.Regfile.equal a.regs b.regs);
      Alcotest.(check int64) (name ^ ": pc") b.pc a.pc;
      Alcotest.(check int64) (name ^ ": count") b.instr_count a.instr_count;
      Alcotest.(check int64) (name ^ ": memory")
        (Machine.Memory.digest b.mem) (Machine.Memory.digest a.mem);
      (* every field but the analysis' wall-clock time *)
      let counts (s : Specsim.Iface.stats) = { s with absint_ns = 0 } in
      Alcotest.(check bool) (name ^ ": Iface.stats") true
        (counts observed.iface.stats = counts plain.iface.stats))
    sampled_cases

let test_twelve_buildsets () =
  (* the property above must quantify over the full paper matrix *)
  let spec = Lazy.force Workload.alpha.spec in
  Alcotest.(check int) "twelve buildsets" 12
    (List.length (Lis.Spec.buildset_names spec))

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
    Alcotest.test_case "ring exact fill" `Quick test_ring_exact_fill;
    Alcotest.test_case "ring clear" `Quick test_ring_clear;
    Alcotest.test_case "ring bad capacity" `Quick test_ring_bad_capacity;
    Alcotest.test_case "hist bucket boundaries" `Quick test_hist_bucket_boundaries;
    Alcotest.test_case "hist negative sample" `Quick test_hist_negative_sample;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "hist percentile" `Quick test_hist_percentile;
    Alcotest.test_case "hist percentile edges" `Quick test_hist_percentile_edges;
    Alcotest.test_case "export empty-hist percentiles" `Quick
      test_export_empty_hist_percentiles;
    Alcotest.test_case "export ordering stable" `Quick
      test_export_ordering_stable;
    Alcotest.test_case "counter identity" `Quick test_counter_identity;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "probe first wins" `Quick test_probe_first_wins;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "chrome export from run" `Quick test_chrome_export_from_run;
    QCheck_alcotest.to_alcotest test_crossings_property;
    Alcotest.test_case "twelve buildsets" `Quick test_twelve_buildsets;
    Alcotest.test_case "sampled latency, exact counts" `Quick test_sampled_counts;
    Alcotest.test_case "sampled latency keeps ring events" `Quick test_sampled_ring;
    Alcotest.test_case "observed run matches plain run" `Quick
      test_observed_matches_plain;
  ]
