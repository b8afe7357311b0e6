(** Tests for the supervised execution runtime (lib/super): failure
    taxonomy, durable journal round trips and torn-tail tolerance,
    deterministic supervisor retry/backoff, quarantine persistence, the
    graceful-degradation ladder (healthy, forced-demotion conformance
    property across the real ISAs, seeded-defect demotion to the
    reference level), and campaign resume semantics. *)

let sim_error ~component ?(context = []) what =
  try
    Machine.Sim_error.raisef ~component
      ~context "%s" what
  with Machine.Sim_error.Error _ as e -> e

(* ----------------------------------------------------------------- *)
(* Taxonomy                                                            *)
(* ----------------------------------------------------------------- *)

let sev = function
  | Super.Taxonomy.Transient -> "transient"
  | Super.Taxonomy.Deterministic -> "deterministic"
  | Super.Taxonomy.Fatal -> "fatal"

let check_classify name exn want_sev want_kind =
  let f = Super.Taxonomy.classify exn in
  Alcotest.(check string) (name ^ ": severity") want_sev (sev f.Super.Taxonomy.f_severity);
  Alcotest.(check string) (name ^ ": kind") want_kind f.Super.Taxonomy.f_kind

let test_taxonomy () =
  check_classify "wall-clock deadline"
    (sim_error ~component:"watchdog"
       ~context:[ ("reason", "wall-clock deadline exceeded") ]
       "simulation halted by watchdog")
    "transient" "watchdog.wall_clock";
  check_classify "wall-clock limit"
    (sim_error ~component:"watchdog"
       ~context:[ ("reason", "wall-clock limit exceeded") ]
       "simulation halted by watchdog")
    "transient" "watchdog.wall_clock";
  check_classify "instruction budget"
    (sim_error ~component:"watchdog"
       ~context:[ ("reason", "instruction budget exceeded") ]
       "simulation halted by watchdog")
    "deterministic" "watchdog.budget";
  check_classify "spin loop"
    (sim_error ~component:"watchdog"
       ~context:
         [ ("reason", "no forward progress (architectural state is a fixed point)") ]
       "simulation halted by watchdog")
    "deterministic" "watchdog.no_progress";
  check_classify "engine invariant"
    (sim_error ~component:"engine" "block dispatch invariant violated")
    "deterministic" "engine.invariant";
  check_classify "other sim error"
    (sim_error ~component:"workload" "no abi")
    "deterministic" "sim.workload";
  check_classify "host io" (Sys_error "disk on fire") "transient" "host.io";
  check_classify "unknown is fatal" (Failure "?") "fatal" "exn"

(* ----------------------------------------------------------------- *)
(* Journal                                                             *)
(* ----------------------------------------------------------------- *)

let tmp_path name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lisim-test-super" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir (Printf.sprintf "%s.%d" name (Unix.getpid ()))

let test_journal_roundtrip () =
  let path = tmp_path "journal" in
  if Sys.file_exists path then Sys.remove path;
  let w = Super.Journal.open_ ~path ~meta:[ ("campaign", Obs.Export.Str "t") ] in
  Super.Journal.record w
    (Super.Journal.entry ~attempts:1 ~outcome:Super.Journal.Pass "case/a");
  Super.Journal.record w
    (Super.Journal.entry ~attempts:2 ~digest:0xdeadL ~level:"step_all"
       ~detail:"mem: boom" ~outcome:Super.Journal.Quarantined "case/b");
  Super.Journal.close w;
  (* a second open appends; history survives *)
  let w = Super.Journal.open_ ~path ~meta:[] in
  Super.Journal.record w
    (Super.Journal.entry ~attempts:3 ~outcome:Super.Journal.Gave_up "case/c");
  Super.Journal.close w;
  let v = Super.Journal.load ~path in
  Alcotest.(check int) "entries" 3 (List.length v.Super.Journal.v_entries);
  Alcotest.(check int) "torn" 0 v.Super.Journal.v_torn;
  Alcotest.(check bool) "a complete" true (Super.Journal.is_complete v "case/a");
  Alcotest.(check bool) "b complete" true (Super.Journal.is_complete v "case/b");
  Alcotest.(check bool) "c complete" true (Super.Journal.is_complete v "case/c");
  Alcotest.(check bool) "d not complete" false (Super.Journal.is_complete v "case/d");
  let b = List.nth v.Super.Journal.v_entries 1 in
  Alcotest.(check int) "attempts round-trip" 2 b.Super.Journal.e_attempts;
  Alcotest.(check (option string)) "level round-trip" (Some "step_all")
    b.Super.Journal.e_level;
  Alcotest.(check bool) "digest round-trip" true
    (b.Super.Journal.e_digest = Some 0xdeadL);
  Sys.remove path

let test_journal_torn_tail () =
  let path = tmp_path "journal-torn" in
  if Sys.file_exists path then Sys.remove path;
  let w = Super.Journal.open_ ~path ~meta:[] in
  Super.Journal.record w
    (Super.Journal.entry ~attempts:1 ~outcome:Super.Journal.Pass "case/a");
  Super.Journal.close w;
  (* simulate a SIGKILL mid-write: a torn half line at the tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"v\":1,\"kind\":\"case\",\"case\":\"case/tor";
  close_out oc;
  let v = Super.Journal.load ~path in
  Alcotest.(check int) "surviving entries" 1 (List.length v.Super.Journal.v_entries);
  Alcotest.(check int) "torn counted" 1 v.Super.Journal.v_torn;
  Alcotest.(check bool) "complete prefix usable" true
    (Super.Journal.is_complete v "case/a");
  (* resuming after the kill: the next case line must not be glued onto
     the torn fragment *)
  let w = Super.Journal.open_ ~path ~meta:[] in
  Super.Journal.record w
    (Super.Journal.entry ~attempts:1 ~outcome:Super.Journal.Pass "case/b");
  Super.Journal.close w;
  let v = Super.Journal.load ~path in
  Alcotest.(check bool) "case after a torn tail survives" true
    (Super.Journal.is_complete v "case/b");
  Alcotest.(check int) "only the fragment is torn" 1 v.Super.Journal.v_torn;
  Alcotest.(check bool) "missing file is empty" true
    ((Super.Journal.load ~path:(path ^ ".absent")).Super.Journal.v_torn = 0
    && not (Super.Journal.is_complete (Super.Journal.load ~path:(path ^ ".absent")) "x"));
  Sys.remove path

(* ----------------------------------------------------------------- *)
(* Supervisor                                                          *)
(* ----------------------------------------------------------------- *)

let transient_exn =
  sim_error ~component:"watchdog"
    ~context:[ ("reason", "wall-clock deadline exceeded") ]
    "simulation halted by watchdog"

let test_supervisor_retry_deterministic () =
  let cfg = { Super.Supervisor.default with seed = 7L; max_attempts = 3 } in
  let run () =
    let sleeps = ref [] in
    let calls = ref 0 in
    let out =
      Super.Supervisor.run_case cfg ~index:5L
        ~sleep:(fun d -> sleeps := d :: !sleeps)
        (fun ~deadline:_ ->
          incr calls;
          if !calls < 3 then raise transient_exn else "ok")
    in
    (out, List.rev !sleeps)
  in
  let out1, sleeps1 = run () in
  let out2, sleeps2 = run () in
  (match out1 with
  | Super.Supervisor.Done ("ok", 3) -> ()
  | Super.Supervisor.Done (_, n) -> Alcotest.failf "wrong attempts: %d" n
  | Super.Supervisor.Gave_up _ -> Alcotest.fail "gave up unexpectedly");
  Alcotest.(check int) "two backoffs" 2 (List.length sleeps1);
  Alcotest.(check (list (float 1e-9))) "backoff schedule is deterministic"
    sleeps1 sleeps2;
  Alcotest.(check bool) "outcomes equal" true (out1 = out2);
  List.iter
    (fun d -> Alcotest.(check bool) "backoff positive and capped" true
        (d > 0. && d <= 2. *. 1.5))
    sleeps1

let test_supervisor_deterministic_failure_no_retry () =
  let calls = ref 0 in
  match
    Super.Supervisor.run_case Super.Supervisor.default ~index:0L
      ~sleep:(fun _ -> Alcotest.fail "must not sleep")
      (fun ~deadline:_ ->
        incr calls;
        Machine.Sim_error.raisef ~component:"engine" "invariant violated")
  with
  | Super.Supervisor.Gave_up (f, 1) ->
    Alcotest.(check string) "kind" "engine.invariant" f.Super.Taxonomy.f_kind;
    Alcotest.(check int) "exactly one attempt" 1 !calls
  | _ -> Alcotest.fail "expected immediate give-up"

let test_supervisor_fatal_reraises () =
  Alcotest.check_raises "fatal re-raised" (Failure "boom") (fun () ->
      ignore
        (Super.Supervisor.run_case Super.Supervisor.default ~index:0L
           (fun ~deadline:_ -> failwith "boom")))

let test_watchdog_deadline () =
  let spec = Fuzz.Driver.spec_of_isa "tiny" in
  let st = Lis.Spec.make_machine spec in
  (* no deadline, or a future one: no trip *)
  Inject.Watchdog.check_deadline st;
  Inject.Watchdog.check_deadline ~deadline:(Unix.gettimeofday () +. 3600.) st;
  match Inject.Watchdog.check_deadline ~deadline:(Unix.gettimeofday () -. 1.) st with
  | () -> Alcotest.fail "expired deadline did not trip"
  | exception Machine.Sim_error.Error e ->
    let f = Super.Taxonomy.classify (Machine.Sim_error.Error e) in
    Alcotest.(check string) "classified transient" "transient"
      (sev f.Super.Taxonomy.f_severity);
    Alcotest.(check string) "kind" "watchdog.wall_clock" f.Super.Taxonomy.f_kind

(* ----------------------------------------------------------------- *)
(* Quarantine                                                          *)
(* ----------------------------------------------------------------- *)

let test_quarantine () =
  let dir = tmp_path "quarantine" in
  let q = Super.Quarantine.create ~dir in
  let p1 = Super.Quarantine.put q ~name:"fuzz/tiny/0x1/0/block_min.repro" ~contents:"one" in
  let p2 = Super.Quarantine.put q ~name:"fuzz/tiny/0x1/0/block_min.repro" ~contents:"two" in
  Alcotest.(check bool) "no clobber" true (p1 <> p2);
  Alcotest.(check int) "both artifacts" 2 (Super.Quarantine.count q);
  let read p = In_channel.with_open_text p In_channel.input_all in
  Alcotest.(check string) "first intact" "one" (read p1);
  Alcotest.(check string) "second intact" "two" (read p2);
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Super.Quarantine.list q);
  Unix.rmdir dir

(* ----------------------------------------------------------------- *)
(* Degradation ladder                                                  *)
(* ----------------------------------------------------------------- *)

let degrade_session ?mutate ~isa ~tc_seed ~tc_index ~buildset () =
  let spec = Fuzz.Driver.spec_of_isa isa in
  let cx = Fuzz.Gen.make_ctx ~isa spec in
  let tc = Fuzz.Gen.generate cx ~seed:tc_seed ~index:tc_index in
  ( spec,
    tc,
    Super.Degrade.create ?mutate ~spec ~buildset
      ~load:(Fuzz.Oracle.load_image spec tc)
      () )

(* Uninterrupted reference: a plain step_all machine advanced exactly as
   many instructions as the session's trusted shadow retired. When the
   session ended halted, the reference owes one more execution — the
   halting instruction retires nothing. *)
let reference_digest spec tc ~halted n =
  let iface = Specsim.Synth.make spec "step_all" in
  Fuzz.Oracle.load_image spec tc iface.Specsim.Iface.st;
  let st = iface.Specsim.Iface.st in
  let remaining = ref n in
  while !remaining > 0 && not st.Machine.State.halted do
    let got = iface.Specsim.Iface.run_fast !remaining in
    if got = 0 then remaining := 0 else remaining := !remaining - got
  done;
  if halted && not st.Machine.State.halted then
    ignore (iface.Specsim.Iface.run_fast 1);
  Machine.Checkpoint.digest st

let test_degrade_healthy () =
  let spec, tc, session =
    degrade_session ~isa:"tiny" ~tc_seed:3L ~tc_index:0 ~buildset:"block_min" ()
  in
  let r = Super.Degrade.run ~slice:32 ~budget:400 session in
  Alcotest.(check string) "stays at full detail" "full"
    r.Super.Degrade.r_final_level;
  Alcotest.(check int) "no demotions" 0 r.Super.Degrade.r_demotions;
  Alcotest.(check bool) "made progress" true
    (Int64.compare r.Super.Degrade.r_instructions 0L > 0);
  Alcotest.(check bool) "digest matches uninterrupted step_all" true
    (Int64.equal r.Super.Degrade.r_digest
       (reference_digest spec tc ~halted:r.Super.Degrade.r_halted
          (Int64.to_int r.Super.Degrade.r_instructions)))

(* The tentpole conformance property: forcing a demotion at an arbitrary
   slice boundary must not change the final architectural digest. *)
let prop_forced_demotion_preserves_digest =
  QCheck.Test.make ~count:24
    ~name:"forced demotion at a random boundary preserves the digest"
    QCheck.(
      triple
        (oneofl ~print:Fun.id [ "alpha"; "arm"; "ppc"; "riscv" ])
        small_nat (1 -- 300))
    (fun (isa, tc_index, cut) ->
      let spec, tc, session =
        degrade_session ~isa ~tc_seed:13L ~tc_index ~buildset:"block_min" ()
      in
      let r =
        Super.Degrade.run ~slice:32 ~force_demote_at:cut ~budget:400 session
      in
      Int64.equal r.Super.Degrade.r_digest
        (reference_digest spec tc ~halted:r.Super.Degrade.r_halted
          (Int64.to_int r.Super.Degrade.r_instructions)))

(* Every non-reference buildset demotes straight to the reference; the
   seeded defect stays with the primary rung only. *)
let test_degrade_ladder_shape () =
  let shape ~buildset ~mutate =
    List.map
      (fun (l : Super.Degrade.level) ->
        ( l.lv_name,
          l.lv_buildset,
          Option.map Specsim.Synth.mutation_to_string l.lv_mutate ))
      (Super.Degrade.ladder ~buildset ~mutate ~reference:"step_all")
  in
  let t = Alcotest.(list (triple string string (option string))) in
  List.iter
    (fun bs ->
      Alcotest.check t (bs ^ " ladder")
        [ ("full", bs, Some "stride4"); ("step_all", "step_all", None) ]
        (shape ~buildset:bs ~mutate:(Some Specsim.Synth.Stride4)))
    [ "block_min"; "block_all_spec"; "one_min"; "step_all_spec" ];
  Alcotest.check t "reference ladder"
    [ ("step_all", "step_all", None) ]
    (shape ~buildset:"step_all" ~mutate:None)

let test_degrade_seeded_defect () =
  (* find a testcase the stride4 defect actually diverges on (tiny is
     the only ISA with a non-4-byte stride, hence the only observable
     target), then prove the session survives by demoting to the
     reference level with a correct final state. *)
  let cfg =
    {
      Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      buildsets = [ "block_min" ];
    }
  in
  let o = Fuzz.Driver.hunt ~cfg ~isa:"tiny" ~seed:42L ~budget:60 () in
  match o.Fuzz.Driver.o_found with
  | None -> Alcotest.fail "stride4 defect not found by the oracle"
  | Some (tc, _) ->
    let spec = Fuzz.Driver.spec_of_isa "tiny" in
    let session =
      Super.Degrade.create ~mutate:Specsim.Synth.Stride4 ~spec
        ~buildset:"block_min"
        ~load:(Fuzz.Oracle.load_image spec tc)
        ()
    in
    let r = Super.Degrade.run ~slice:32 ~budget:400 session in
    Alcotest.(check string) "degrades to the reference level" "step_all"
      r.Super.Degrade.r_final_level;
    Alcotest.(check int) "exactly one demotion" 1
      r.Super.Degrade.r_demotions;
    Alcotest.(check bool) "digest matches uninterrupted step_all" true
      (Int64.equal r.Super.Degrade.r_digest
         (reference_digest spec tc ~halted:r.Super.Degrade.r_halted
          (Int64.to_int r.Super.Degrade.r_instructions)))

(* ----------------------------------------------------------------- *)
(* Supervised campaign: journal + resume                               *)
(* ----------------------------------------------------------------- *)

let test_campaign_resume_no_case_twice () =
  let journal = tmp_path "campaign-journal" in
  let quarantine = tmp_path "campaign-quarantine" in
  if Sys.file_exists journal then Sys.remove journal;
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min"; "one_min" ] }
  in
  let p1 =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:5L ~budget:12 ~journal ~quarantine ()
  in
  Alcotest.(check int) "all cases executed" 12 p1.Fuzz.Campaign.p_cases;
  Alcotest.(check int) "none skipped" 0 p1.Fuzz.Campaign.p_skipped;
  (* simulate a kill after the first run wrote some lines, then resume:
     completed cases must not run again *)
  let p2 =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:5L ~budget:12 ~journal ~quarantine
      ~resume:true ()
  in
  Alcotest.(check int) "resume executes nothing" 0 p2.Fuzz.Campaign.p_cases;
  Alcotest.(check int) "resume skips every case" 12 p2.Fuzz.Campaign.p_skipped;
  (* the journal holds each case id at most once per run pair *)
  let v = Super.Journal.load ~path:journal in
  let ids =
    List.map (fun e -> e.Super.Journal.e_case) v.Super.Journal.v_entries
  in
  let uniq = List.sort_uniq String.compare ids in
  Alcotest.(check int) "no case journaled twice" (List.length uniq)
    (List.length ids);
  (* a torn tail does not confuse resume *)
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "{\"half";
  close_out oc;
  let p3 =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:5L ~budget:12 ~journal ~quarantine
      ~resume:true ()
  in
  Alcotest.(check int) "torn tail tolerated" 0 p3.Fuzz.Campaign.p_cases;
  Alcotest.(check bool) "torn line counted" true (p3.Fuzz.Campaign.p_torn >= 1);
  Sys.remove journal

let test_campaign_quarantines_defect () =
  let journal = tmp_path "defect-journal" in
  let quarantine = tmp_path "defect-quarantine" in
  if Sys.file_exists journal then Sys.remove journal;
  let cfg =
    {
      Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      buildsets = [ "block_min" ];
    }
  in
  let p =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:42L ~budget:30 ~journal ~quarantine ()
  in
  Alcotest.(check bool) "campaign completes with quarantines" true
    (p.Fuzz.Campaign.p_quarantined >= 1);
  Alcotest.(check bool) "sessions demoted" true (p.Fuzz.Campaign.p_demotions >= 1);
  let q = Super.Quarantine.create ~dir:quarantine in
  Alcotest.(check bool) "reproducers persisted" true
    (Super.Quarantine.count q >= 1);
  (* every quarantined artifact is a replayable reproducer that still
     shows the divergence *)
  List.iter
    (fun f ->
      let r = Fuzz.Repro.load ~path:(Filename.concat quarantine f) in
      let verdicts = Fuzz.Driver.replay r in
      Alcotest.(check bool) (f ^ " still diverges") true
        (List.exists (fun (_, d) -> d <> None) verdicts))
    (Super.Quarantine.list q);
  (* journal records the quarantine with its final degradation level *)
  let v = Super.Journal.load ~path:journal in
  Alcotest.(check bool) "journal has a quarantined step_all entry" true
    (List.exists
       (fun e ->
         e.Super.Journal.e_outcome = Super.Journal.Quarantined
         && e.Super.Journal.e_level = Some "step_all")
       v.Super.Journal.v_entries);
  List.iter (fun f -> Sys.remove (Filename.concat quarantine f))
    (Super.Quarantine.list q);
  Unix.rmdir quarantine;
  Sys.remove journal

let test_inject_resume_keys_config () =
  (* a resumed injection campaign may only skip cells it would compute
     identically: budget and sites are part of the case id *)
  let journal = tmp_path "inject-journal" in
  let quarantine = tmp_path "inject-quarantine" in
  if Sys.file_exists journal then Sys.remove journal;
  let cfg =
    {
      Inject.Campaign.default_config with
      budget = 20_000;
      sites = [ Inject.Injector.Reg_bitflip ];
    }
  in
  let executed ?(resume = true) cfg =
    Super.Inject_run.run ~isas:[ "alpha" ] ~journal ~quarantine ~resume cfg
    |> List.filter (fun c -> not c.Super.Inject_run.c_skipped)
    |> List.length
  in
  Alcotest.(check int) "first run executes the cell" 1
    (executed ~resume:false cfg);
  Alcotest.(check int) "same configuration resumes" 0 (executed cfg);
  Alcotest.(check int) "other sites execute again" 1
    (executed { cfg with sites = [ Inject.Injector.Mem_byte ] });
  Alcotest.(check int) "other budget executes again" 1
    (executed { cfg with budget = 30_000 });
  Sys.remove journal;
  Unix.rmdir quarantine

let suite =
  [
    Alcotest.test_case "failure taxonomy" `Quick test_taxonomy;
    Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "supervisor deterministic retry" `Quick
      test_supervisor_retry_deterministic;
    Alcotest.test_case "deterministic failure: no retry" `Quick
      test_supervisor_deterministic_failure_no_retry;
    Alcotest.test_case "fatal failures re-raise" `Quick
      test_supervisor_fatal_reraises;
    Alcotest.test_case "watchdog deadline" `Quick test_watchdog_deadline;
    Alcotest.test_case "quarantine persistence" `Quick test_quarantine;
    Alcotest.test_case "degrade: healthy session" `Quick test_degrade_healthy;
    QCheck_alcotest.to_alcotest prop_forced_demotion_preserves_digest;
    Alcotest.test_case "degrade: seeded defect reaches step_all" `Quick
      test_degrade_seeded_defect;
    Alcotest.test_case "degrade: ladder is full then reference" `Quick
      test_degrade_ladder_shape;
    Alcotest.test_case "campaign resume runs no case twice" `Quick
      test_campaign_resume_no_case_twice;
    Alcotest.test_case "campaign quarantines a seeded defect" `Quick
      test_campaign_quarantines_defect;
    Alcotest.test_case "inject resume keys on budget and sites" `Quick
      test_inject_resume_keys_config;
  ]
