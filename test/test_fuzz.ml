(** Tests for the differential conformance fuzzer (lib/fuzz): generator
    validity and determinism, healthy-engine agreement across all
    buildsets, detection + shrinking of every seeded mutation mode,
    reproducer-file round trips, and replay of the checked-in corpus
    under [test/corpus/]. *)

let isas = Fuzz.Driver.all_isas
let spec_of = Fuzz.Driver.spec_of_isa

(* ----------------------------------------------------------------- *)
(* Generator                                                           *)
(* ----------------------------------------------------------------- *)

(* Every generated code word must decode, and the decoded instruction's
   (mask, match) must actually cover the word — the program generator is
   built on the spec's own encoding metadata, so a violation here means
   it drifted from the decoder. *)
let prop_generated_words_decode =
  QCheck.Test.make ~count:40 ~name:"fuzz generator emits decodable programs"
    QCheck.(pair (oneofl Fuzz.Driver.all_isas) small_nat)
    (fun (isa, index) ->
      let spec = spec_of isa in
      let cx = Fuzz.Gen.make_ctx ~isa spec in
      let tc = Fuzz.Gen.generate cx ~seed:7L ~index in
      let d = Specsim.Decoder.make spec in
      Array.for_all
        (fun w ->
          let idx = Specsim.Decoder.decode d w in
          idx >= 0
          &&
          let i = spec.instrs.(idx) in
          Int64.equal (Int64.logand w i.i_mask) i.i_match)
        tc.Fuzz.Gen.tc_code)

let test_generator_deterministic () =
  List.iter
    (fun isa ->
      let spec = spec_of isa in
      let cx = Fuzz.Gen.make_ctx ~isa spec in
      let a = Fuzz.Gen.generate cx ~seed:99L ~index:5 in
      let b = Fuzz.Gen.generate cx ~seed:99L ~index:5 in
      Alcotest.(check bool) (isa ^ ": same (seed, index), same testcase")
        true (a = b);
      let c = Fuzz.Gen.generate cx ~seed:99L ~index:6 in
      Alcotest.(check bool) (isa ^ ": next index differs") false
        (a.Fuzz.Gen.tc_code = c.Fuzz.Gen.tc_code))
    isas

(* ----------------------------------------------------------------- *)
(* Healthy engines: no divergence                                      *)
(* ----------------------------------------------------------------- *)

let test_healthy_no_divergence () =
  List.iter
    (fun isa ->
      let o = Fuzz.Driver.hunt ~isa ~seed:11L ~budget:60 () in
      match o.Fuzz.Driver.o_found with
      | None -> ()
      | Some (_, d) ->
        Alcotest.failf "%s: unexpected divergence — %s" isa
          (Fuzz.Oracle.pp_divergence d))
    isas

(* ----------------------------------------------------------------- *)
(* Mutation testing: every seeded defect is detected and shrunk        *)
(* ----------------------------------------------------------------- *)

(* Only block interfaces host the mutated machinery, so restricting the
   candidate list keeps the kill checks fast without weakening them. *)
let block_only =
  List.filter
    (fun b -> String.length b >= 5 && String.equal (String.sub b 0 5) "block")
    Fuzz.Oracle.default_config.buildsets

let kill ?(seed = 42L) ~isa mutate ~budget =
  let name = Specsim.Synth.mutation_to_string mutate in
  let cfg =
    { Fuzz.Oracle.default_config with
      mutate = Some mutate;
      buildsets = block_only;
    }
  in
  let o = Fuzz.Driver.hunt ~cfg ~isa ~seed ~budget () in
  match o.Fuzz.Driver.o_shrunk with
  | None ->
    Alcotest.failf "%s/%s survived %d oracle executions" isa name budget
  | Some (tc, d) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s shrinks to <= 8 instructions (got %d)" isa name
         (Array.length tc.Fuzz.Gen.tc_code))
      true
      (Array.length tc.Fuzz.Gen.tc_code <= 8);
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s divergence names a block buildset" isa name)
      true
      (List.mem d.Fuzz.Oracle.d_buildset block_only)

let test_kill_skip_invalidate () =
  kill ~isa:"tiny" Specsim.Synth.Skip_invalidate ~budget:200;
  kill ~isa:"alpha" Specsim.Synth.Skip_invalidate ~budget:400;
  kill ~isa:"riscv" ~seed:1L Specsim.Synth.Skip_invalidate ~budget:400

let test_kill_stale_chain () =
  kill ~isa:"tiny" Specsim.Synth.Stale_chain ~budget:200;
  kill ~isa:"riscv" ~seed:1L Specsim.Synth.Stale_chain ~budget:400

let test_kill_stride4 () =
  (* observable only where instrsize <> 4: tiny16 by construction, and
     riscv because RVC parcels make the real stride non-uniform — the
     uniform pc+4i walk the mutation reintroduces is caught immediately *)
  kill ~isa:"tiny" Specsim.Synth.Stride4 ~budget:64;
  kill ~isa:"riscv" Specsim.Synth.Stride4 ~budget:64

(* ----------------------------------------------------------------- *)
(* Reproducer files                                                    *)
(* ----------------------------------------------------------------- *)

let test_repro_roundtrip () =
  let spec = spec_of "tiny" in
  let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
  let tc = Fuzz.Gen.generate cx ~seed:5L ~index:3 in
  let cfg =
    { Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      max_instrs = 512;
    }
  in
  let text = Fuzz.Repro.to_string cfg ~buildset:"block_min" tc in
  let r = Fuzz.Repro.parse text in
  Alcotest.(check bool) "testcase survives the round trip" true
    (r.Fuzz.Repro.r_tc = tc);
  Alcotest.(check (option string)) "buildset recorded" (Some "block_min")
    r.Fuzz.Repro.r_buildset;
  Alcotest.(check bool) "config survives the round trip" true
    (r.Fuzz.Repro.r_cfg = cfg);
  Alcotest.(check string) "re-rendering is byte-identical" text
    (Fuzz.Repro.to_string r.Fuzz.Repro.r_cfg
       ?buildset:r.Fuzz.Repro.r_buildset r.Fuzz.Repro.r_tc)

let test_repro_rejects_garbage () =
  List.iter
    (fun (label, text) ->
      match Fuzz.Repro.parse text with
      | exception Fuzz.Repro.Bad_repro _ -> ()
      | _ -> Alcotest.failf "%s: parse accepted a bad reproducer" label)
    [
      ("empty", "");
      ("bad header", "some-other-format v9\nend\n");
      ("no end", "lisim-fuzz-repro v1\nisa tiny\ncode 0x0\n");
      ("no code", "lisim-fuzz-repro v1\nisa tiny\nend\n");
      ( "bad mutation",
        "lisim-fuzz-repro v1\nisa tiny\nmutate nonsense\ncode 0x0\nend\n" );
      ( "bad max-instrs",
        "lisim-fuzz-repro v1\nisa tiny\nmax-instrs abc\ncode 0x0\nend\n" );
      ("bad seed", "lisim-fuzz-repro v1\nisa tiny\nseed 0xzz\ncode 0x0\nend\n");
      ("bad reg", "lisim-fuzz-repro v1\nisa tiny\nreg 0 x 0x1\ncode 0x0\nend\n");
      ("bad mem", "lisim-fuzz-repro v1\nisa tiny\nmem 0x10 q\ncode 0x0\nend\n");
      ("bad code", "lisim-fuzz-repro v1\nisa tiny\ncode 12ab\nend\n");
      (* not part of the format: the block engine has no cache switches *)
      ("chain off", "lisim-fuzz-repro v1\nisa tiny\nchain off\ncode 0x0\nend\n");
    ]

(* ----------------------------------------------------------------- *)
(* Corpus replay                                                       *)
(* ----------------------------------------------------------------- *)

(* cwd is _build/default/test under `dune runtest`, the project root
   under a bare `dune exec test/main.exe`. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let verdict_strings vs =
  List.map
    (fun (bs, d) ->
      match d with
      | None -> bs ^ ": ok"
      | Some d -> bs ^ ": " ^ Fuzz.Oracle.pp_divergence d)
    vs

(* Every checked-in reproducer must replay to its recorded verdict:
   files carrying a diverging buildset (fuzzer-found mutation kills)
   must still diverge there, files without one must be clean
   everywhere. Replay twice to pin determinism. *)
let test_corpus_replay () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let r = Fuzz.Repro.load ~path:(Filename.concat corpus_dir f) in
      let v1 = Fuzz.Driver.replay r in
      let v2 = Fuzz.Driver.replay r in
      Alcotest.(check (list string))
        (f ^ ": replay is deterministic")
        (verdict_strings v1) (verdict_strings v2);
      match r.Fuzz.Repro.r_buildset with
      | Some bs -> (
        match v1 with
        | (bs0, Some _) :: _ when String.equal bs0 bs -> ()
        | _ -> Alcotest.failf "%s: recorded buildset %s no longer diverges" f bs)
      | None ->
        List.iter
          (fun (bs, d) ->
            match d with
            | None -> ()
            | Some d ->
              Alcotest.failf "%s: %s unexpectedly diverges — %s" f bs
                (Fuzz.Oracle.pp_divergence d))
          v1)
    files

let suite =
  [
    QCheck_alcotest.to_alcotest prop_generated_words_decode;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "healthy engines agree (all ISAs)" `Slow
      test_healthy_no_divergence;
    Alcotest.test_case "mutation kill: skip-invalidate" `Slow
      test_kill_skip_invalidate;
    Alcotest.test_case "mutation kill: stale-chain" `Slow test_kill_stale_chain;
    Alcotest.test_case "mutation kill: stride4 (tiny16 only)" `Quick
      test_kill_stride4;
    Alcotest.test_case "reproducer round trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "reproducer rejects garbage" `Quick
      test_repro_rejects_garbage;
    Alcotest.test_case "corpus replays to recorded verdicts" `Quick
      test_corpus_replay;
  ]
