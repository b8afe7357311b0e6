(* Domain fleet: deque semantics, pool correctness, and the central
   contract — a parallel campaign is observably identical to the
   sequential one at the same seed. *)

let tmp_path name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lisim-test-fleet" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir (Printf.sprintf "%s.%d" name (Unix.getpid ()))

let rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ----------------------------------------------------------------- *)
(* Deque: owner LIFO, thief FIFO, growth                               *)
(* ----------------------------------------------------------------- *)

let test_deque_lifo () =
  let d = Fleet.Deque.create () in
  for i = 1 to 5 do
    Fleet.Deque.push d i
  done;
  Alcotest.(check int) "size" 5 (Fleet.Deque.size d);
  let popped = List.init 5 (fun _ -> Fleet.Deque.pop d) in
  Alcotest.(check (list (option int)))
    "owner pops newest first"
    [ Some 5; Some 4; Some 3; Some 2; Some 1 ]
    popped;
  Alcotest.(check (option int)) "empty pops None" None (Fleet.Deque.pop d)

let test_deque_steal_fifo () =
  let d = Fleet.Deque.create () in
  for i = 1 to 5 do
    Fleet.Deque.push d i
  done;
  let stolen = List.init 5 (fun _ -> Fleet.Deque.steal d) in
  Alcotest.(check (list (option int)))
    "thief takes oldest first"
    [ Some 1; Some 2; Some 3; Some 4; Some 5 ]
    stolen;
  Alcotest.(check (option int)) "empty steals None" None (Fleet.Deque.steal d)

let test_deque_grow () =
  (* push well past the initial capacity; nothing may be lost *)
  let d = Fleet.Deque.create () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Fleet.Deque.push d i
  done;
  Alcotest.(check int) "size after growth" n (Fleet.Deque.size d);
  (* drain mixing both ends: pop and steal must together see every
     element exactly once *)
  let seen = Array.make n false in
  let dups = ref 0 in
  let record = function
    | None -> ()
    | Some v ->
      if seen.(v) then incr dups;
      seen.(v) <- true
  in
  for i = 0 to n - 1 do
    record (if i mod 2 = 0 then Fleet.Deque.pop d else Fleet.Deque.steal d)
  done;
  Alcotest.(check int) "no duplicates" 0 !dups;
  Alcotest.(check bool) "every element seen" true
    (Array.for_all Fun.id seen)

let test_deque_concurrent_steal () =
  (* owner pops while two thief domains steal: each element is claimed
     exactly once, none is lost *)
  let d = Fleet.Deque.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Fleet.Deque.push d i
  done;
  let claims = Array.init n (fun _ -> Atomic.make 0) in
  let claim = function
    | None -> false
    | Some v ->
      Atomic.incr claims.(v);
      true
  in
  let thief () =
    let continue = ref true in
    while !continue do
      if not (claim (Fleet.Deque.steal d)) then continue := false
    done
  in
  let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
  let continue = ref true in
  while !continue do
    if not (claim (Fleet.Deque.pop d)) then continue := false
  done;
  Domain.join t1;
  Domain.join t2;
  (* stragglers: thieves may have bailed while the owner still held
     elements and vice versa — drain what is left *)
  let continue = ref true in
  while !continue do
    if not (claim (Fleet.Deque.pop d)) then continue := false
  done;
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "element %d claimed %d times" i (Atomic.get c))
    claims

(* ----------------------------------------------------------------- *)
(* Pool: map, worker state, exception propagation                      *)
(* ----------------------------------------------------------------- *)

let test_fleet_map () =
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          Alcotest.(check int) "jobs" jobs (Fleet.jobs fl);
          let workers = Array.make (Fleet.jobs fl) () in
          let out =
            Fleet.map fl ~workers
              ~tasks:(Array.init 100 (fun k () -> k * k))
          in
          Alcotest.(check (array int))
            "results by task index"
            (Array.init 100 (fun k -> k * k))
            out;
          (* second batch on the same pool *)
          let out2 =
            Fleet.map fl ~workers ~tasks:(Array.init 7 (fun k () -> k + 1))
          in
          Alcotest.(check (array int)) "pool is reusable"
            (Array.init 7 (fun k -> k + 1))
            out2))
    [ 1; 4 ];
  (* one job is inline: every task on the caller's domain, completions
     in index order *)
  Fleet.with_pool ~jobs:1 (fun fl ->
      let caller = Domain.self () in
      let order = ref [] in
      Fleet.run fl ~workers:[| () |]
        ~tasks:(Array.init 10 (fun k () -> (k, Domain.self ())))
        ~complete:(fun k (k', dom) ->
          Alcotest.(check int) "completion carries its task" k k';
          Alcotest.(check bool) "task ran on the calling domain" true
            (dom = caller);
          order := k :: !order);
      Alcotest.(check (list int)) "completions in index order"
        (List.init 10 Fun.id) (List.rev !order))

let test_fleet_worker_state () =
  (* every task sees exactly the state of the worker that ran it, and
     per-worker tallies sum to the batch size *)
  Fleet.with_pool ~jobs:3 (fun fl ->
      let workers = Array.init (Fleet.jobs fl) (fun i -> (i, ref 0)) in
      Fleet.run fl ~workers
        ~tasks:
          (Array.init 50 (fun _ (slot, tally) ->
               incr tally;
               slot))
        ~complete:(fun _ slot ->
          Alcotest.(check bool) "slot in range" true
            (slot >= 0 && slot < 3));
      let total =
        Array.fold_left (fun acc (_, t) -> acc + !t) 0 workers
      in
      Alcotest.(check int) "per-worker tallies sum to batch" 50 total)

let test_fleet_exception () =
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let workers = Array.make (Fleet.jobs fl) () in
          let ran = Array.make 10 false in
          let raised =
            try
              Fleet.run fl ~workers
                ~tasks:
                  (Array.init 10 (fun k () ->
                       ran.(k) <- true;
                       if k = 3 || k = 7 then
                         Machine.Sim_error.raisef ~component:"vir" "task %d" k;
                       k))
                ~complete:(fun _ _ -> ());
              None
            with Machine.Sim_error.Error e -> Some e
          in
          (match raised with
          | Some e ->
            Alcotest.(check string) "taxonomy preserved" "vir"
              e.Machine.Sim_error.component;
            Alcotest.(check string) "lowest-index failure wins" "task 3"
              e.Machine.Sim_error.what
          | None -> Alcotest.fail "expected Sim_error to propagate");
          if jobs = 1 then
            Alcotest.(check bool) "one job: the failure stops the batch" true
              (Array.for_all not (Array.sub ran 4 6));
          (* the pool survives a raising batch *)
          let out =
            Fleet.map fl ~workers ~tasks:(Array.init 4 (fun k () -> k))
          in
          Alcotest.(check (array int)) "pool usable after exception"
            [| 0; 1; 2; 3 |] out))
    [ 1; 2 ]

let test_fleet_bad_jobs () =
  match Fleet.create ~jobs:0 () with
  | (_ : Fleet.t) -> Alcotest.fail "jobs 0 must be rejected"
  | exception Machine.Sim_error.Error e ->
    Alcotest.(check string) "fleet component" "fleet"
      e.Machine.Sim_error.component

(* ----------------------------------------------------------------- *)
(* Per-case PRNG derivation: golden pins                               *)
(* ----------------------------------------------------------------- *)

let test_case_seed_golden () =
  (* pinned against splitmix64: derive ~seed ~salt:index. Changing the
     derivation silently re-seeds every campaign — these exact values
     are load-bearing for reproducer stability. *)
  List.iter
    (fun (seed, index, expect) ->
      Alcotest.(check int64)
        (Printf.sprintf "case_seed 0x%Lx %d" seed index)
        expect
        (Fuzz.Gen.case_seed ~seed ~index))
    [
      (0xBEEFL, 0, 0xC3FF1DE7F67D8680L);
      (0xBEEFL, 1, 0x4379E026D56A4E43L);
      (0xBEEFL, 7, 0x0616267B1C200478L);
      (0xDEADL, 0, 0x6D008D989A53CE5EL);
      (0xDEADL, 42, 0x571BF3C179B845B0L);
    ]

let test_case_gen_schedule_independent () =
  (* case k's program is identical whether generated alone or mid-way
     through a campaign sweep — generation is a pure function of
     (seed, index), never of visit order *)
  let spec = Fuzz.Driver.spec_of_isa "tiny" in
  let seed = 0xF00D5L in
  let alone =
    let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
    Fuzz.Gen.generate cx ~seed ~index:5
  in
  let swept =
    let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
    let last = ref None in
    for i = 0 to 5 do
      last := Some (Fuzz.Gen.generate cx ~seed ~index:i)
    done;
    Option.get !last
  in
  Alcotest.(check int64) "same per-case seed" alone.Fuzz.Gen.tc_seed
    swept.Fuzz.Gen.tc_seed;
  Alcotest.(check (array int64)) "same code" alone.Fuzz.Gen.tc_code
    swept.Fuzz.Gen.tc_code;
  Alcotest.(check bool) "same initial registers" true
    (alone.Fuzz.Gen.tc_regs = swept.Fuzz.Gen.tc_regs);
  Alcotest.(check bool) "same initial memory" true
    (alone.Fuzz.Gen.tc_mem = swept.Fuzz.Gen.tc_mem)

(* ----------------------------------------------------------------- *)
(* Campaign determinism: --jobs 4 == --jobs 1                          *)
(* ----------------------------------------------------------------- *)

type totals = {
  t_cases : int;
  t_retries : int;
  t_transient : int;
  t_gave_up : int;
  t_quarantined : int;
  t_demotions : int;
  t_replays : int;
  t_slices : int;
}

let run_campaign ~isa ~cfg ~seed ~budget ~tag ~fleet =
  let journal = tmp_path (tag ^ "-journal") in
  let quarantine = tmp_path (tag ^ "-quarantine") in
  rm_rf journal;
  rm_rf quarantine;
  let obs = Obs.create () in
  let stats = Super.Supervisor.of_registry obs.Obs.reg in
  let p =
    Fuzz.Campaign.run ~cfg ~obs ~stats ?fleet ~isa ~seed ~budget ~journal
      ~quarantine ()
  in
  let files =
    if Sys.file_exists quarantine then
      Array.to_list (Sys.readdir quarantine) |> List.sort String.compare
    else []
  in
  let contents =
    List.map
      (fun f ->
        let ic = open_in_bin (Filename.concat quarantine f) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (f, s))
      files
  in
  let g c = Obs.Registry.get c in
  let totals =
    {
      t_cases = g stats.Super.Supervisor.s_cases;
      t_retries = g stats.Super.Supervisor.s_retries;
      t_transient = g stats.Super.Supervisor.s_transient;
      t_gave_up = g stats.Super.Supervisor.s_gave_up;
      t_quarantined = g stats.Super.Supervisor.s_quarantined;
      t_demotions = g stats.Super.Supervisor.s_demotions;
      t_replays = g stats.Super.Supervisor.s_replays;
      t_slices = g stats.Super.Supervisor.s_slices;
    }
  in
  rm_rf journal;
  rm_rf quarantine;
  (p, contents, totals)

let check_jobs_invariant ~isa ~cfg ~seed ~budget =
  let p1, q1, t1 =
    run_campaign ~isa ~cfg ~seed ~budget
      ~tag:(Printf.sprintf "%s-j1" isa)
      ~fleet:None
  in
  let p4, q4, t4 =
    Fleet.with_pool ~jobs:4 (fun fl ->
        run_campaign ~isa ~cfg ~seed ~budget
          ~tag:(Printf.sprintf "%s-j4" isa)
          ~fleet:(Some fl))
  in
  Alcotest.(check int)
    (isa ^ ": same clean count")
    p1.Fuzz.Campaign.p_clean p4.Fuzz.Campaign.p_clean;
  Alcotest.(check int)
    (isa ^ ": same quarantined count")
    p1.Fuzz.Campaign.p_quarantined p4.Fuzz.Campaign.p_quarantined;
  Alcotest.(check int)
    (isa ^ ": same gave-up count")
    p1.Fuzz.Campaign.p_gave_up p4.Fuzz.Campaign.p_gave_up;
  Alcotest.(check int)
    (isa ^ ": same cases executed")
    p1.Fuzz.Campaign.p_cases p4.Fuzz.Campaign.p_cases;
  Alcotest.(check (list string))
    (isa ^ ": same quarantined-reproducer set")
    (List.map fst q1) (List.map fst q4);
  List.iter2
    (fun (f, a) (_, b) ->
      Alcotest.(check string) (isa ^ ": reproducer bytes " ^ f) a b)
    q1 q4;
  Alcotest.(check bool)
    (isa ^ ": same merged counter totals")
    true (t1 = t4)

let test_campaign_jobs_deterministic_tiny () =
  (* a seeded defect: the parallel campaign must quarantine the exact
     same reproducers the sequential one does *)
  let cfg =
    {
      Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      buildsets = [ "block_min" ];
    }
  in
  check_jobs_invariant ~isa:"tiny" ~cfg ~seed:0xBEEFL ~budget:10

let test_campaign_jobs_deterministic_alpha () =
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
  in
  check_jobs_invariant ~isa:"alpha" ~cfg ~seed:11L ~budget:6

let test_campaign_jobs_deterministic_ppc () =
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
  in
  check_jobs_invariant ~isa:"ppc" ~cfg ~seed:12L ~budget:6

(* ----------------------------------------------------------------- *)
(* Kill-and-resume across a jobs boundary                              *)
(* ----------------------------------------------------------------- *)

let test_campaign_parallel_resume () =
  let journal = tmp_path "resume-journal" in
  let quarantine = tmp_path "resume-quarantine" in
  rm_rf journal;
  rm_rf quarantine;
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min"; "one_min" ] }
  in
  (* a "killed" partial run: the first 6 of 12 budget slots *)
  let p1 =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:5L ~budget:6 ~journal ~quarantine
      ()
  in
  Alcotest.(check int) "partial run executed 6" 6 p1.Fuzz.Campaign.p_cases;
  (* resume the full budget in parallel: completed cases never re-run *)
  let p2 =
    Fleet.with_pool ~jobs:4 (fun fl ->
        Fuzz.Campaign.run ~cfg ~fleet:fl ~isa:"tiny" ~seed:5L ~budget:12
          ~journal ~quarantine ~resume:true ())
  in
  Alcotest.(check int) "resume skips the journaled 6" 6
    p2.Fuzz.Campaign.p_skipped;
  Alcotest.(check int) "resume executes the remaining 6" 6
    p2.Fuzz.Campaign.p_cases;
  let v = Super.Journal.load ~path:journal in
  let ids =
    List.map (fun e -> e.Super.Journal.e_case) v.Super.Journal.v_entries
  in
  let uniq = List.sort_uniq String.compare ids in
  Alcotest.(check int) "no case journaled twice" (List.length uniq)
    (List.length ids);
  Alcotest.(check int) "journal covers the full budget" 12 (List.length ids);
  rm_rf journal;
  rm_rf quarantine

(* ----------------------------------------------------------------- *)
(* One-job goldens: the --jobs 1 output of each campaign, pinned       *)
(* ----------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* every occurrence of [sub] in [s] replaced by [by] *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* journal lines in file order, the quarantine directory stripped *)
let journal_lines ~journal ~quarantine =
  read_file journal |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (replace_all ~sub:quarantine ~by:"<q>")

let quarantine_files quarantine =
  if Sys.file_exists quarantine then
    Array.to_list (Sys.readdir quarantine)
    |> List.sort String.compare
    |> List.map (fun f ->
           f ^ " " ^ Digest.to_hex (Digest.string (read_file (Filename.concat quarantine f))))
  else []

let stride4_block_min =
  {
    Fuzz.Oracle.default_config with
    mutate = Some Specsim.Synth.Stride4;
    buildsets = [ "block_min" ];
  }

let fuzz_golden_run ?fleet () =
  let journal = tmp_path "golden-fuzz-journal" in
  let quarantine = tmp_path "golden-fuzz-quarantine" in
  rm_rf journal;
  rm_rf quarantine;
  let p =
    Fuzz.Campaign.run ~cfg:stride4_block_min ?fleet ~isa:"tiny" ~seed:0xBEEFL
      ~budget:10 ~journal ~quarantine ()
  in
  let report =
    Printf.sprintf
      "%s programs %d execs %d cases %d skipped %d clean %d quarantined %d \
       gave-up %d retries %d demotions %d torn %d"
      p.Fuzz.Campaign.p_isa p.p_programs p.p_execs p.p_cases p.p_skipped
      p.p_clean p.p_quarantined p.p_gave_up p.p_retries p.p_demotions p.p_torn
  in
  let out =
    (report :: journal_lines ~journal ~quarantine) @ quarantine_files quarantine
  in
  rm_rf journal;
  rm_rf quarantine;
  out

let inject_cfg = { Inject.Campaign.default_config with budget = 20_000 }

let inject_run ?fleet ?obs ?stats ~isas () =
  let journal = tmp_path "golden-inject-journal" in
  let quarantine = tmp_path "golden-inject-quarantine" in
  rm_rf journal;
  rm_rf quarantine;
  let cells =
    Super.Inject_run.run ~isas ?obs ?stats ?fleet ~journal ~quarantine inject_cfg
  in
  let out =
    ( journal_lines ~journal ~quarantine,
      String.split_on_char '\n'
        (Format.asprintf "%a" Super.Inject_run.pp_cells cells)
      @ quarantine_files quarantine )
  in
  rm_rf journal;
  rm_rf quarantine;
  out

let stride4_all = { Fuzz.Oracle.default_config with mutate = Some Specsim.Synth.Stride4 }

let hunt_golden_run ?fleet ~cfg ~isa ~seed ~budget () =
  let o = Fuzz.Driver.hunt ~cfg ?fleet ~isa ~seed ~budget () in
  [
    Printf.sprintf "execs %d programs %d shrink-tests %d" o.Fuzz.Driver.o_execs
      o.o_programs o.o_shrink_tests;
  ]
  @
  match o.o_shrunk with
  | None -> [ "no divergence" ]
  | Some (tc, d) ->
    Fuzz.Oracle.pp_divergence d
    :: String.split_on_char '\n'
         (Fuzz.Repro.to_string cfg ~buildset:d.Fuzz.Oracle.d_buildset tc)

let check_lines name expect got =
  Alcotest.(check (list string)) name expect got

let fuzz_golden =
  [
    "tiny programs 10 execs 10 cases 10 skipped 0 clean 0 quarantined 10 gave-up 0 retries 0 demotions 10 torn 0";
    "{\"v\":1,\"kind\":\"meta\",\"campaign\":\"fuzz\",\"isa\":\"tiny\",\"seed\":\"0xbeef\",\"budget\":10}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/0/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x2d1bae156127db79\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 2 instruction(s): fetch pc 0x1008, reference 0x1004 -> <q>/fuzz_tiny_0xbeef_0_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/1/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x3d97f43234996740\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 3 instruction(s): fetch pc 0x100c, reference 0x1006 -> <q>/fuzz_tiny_0xbeef_1_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/2/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x2986ee99a7b4dadd\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 3 instruction(s): fetch pc 0x100c, reference 0x1006 -> <q>/fuzz_tiny_0xbeef_2_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/3/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x16cb3172c69eff15\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 1 instruction(s): fetch pc 0x1004, reference 0x1002 -> <q>/fuzz_tiny_0xbeef_3_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/4/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0xa4c871c39faf39b3\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 6 instruction(s): fetch pc 0x1018, reference 0x100c -> <q>/fuzz_tiny_0xbeef_4_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/5/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0xfdd19fc727f21cab\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 9 instruction(s): fetch pc 0x100a, reference 0xffa -> <q>/fuzz_tiny_0xbeef_5_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/6/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x467b9b207b7099f0\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 4 instruction(s): fetch pc 0x1010, reference 0x1008 -> <q>/fuzz_tiny_0xbeef_6_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/7/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x4816d97d5d541642\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 1 instruction(s): fetch pc 0x1004, reference 0x1002 -> <q>/fuzz_tiny_0xbeef_7_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/8/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x93523724a9b45cda\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 2 instruction(s): fetch pc 0x1012, reference 0x1010 -> <q>/fuzz_tiny_0xbeef_8_block_min.repro\"}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"fuzz/tiny/0xbeef/9/block_min\",\"outcome\":\"quarantined\",\"attempts\":1,\"digest\":\"0x48cf24ec6d64974\",\"level\":\"step_all\",\"detail\":\"block_min: pc after 7 instruction(s): fetch pc 0x100e, reference 0x1002 -> <q>/fuzz_tiny_0xbeef_9_block_min.repro\"}";
    "fuzz_tiny_0xbeef_0_block_min.repro 40f4de56c576c4b6d743aa537c84daea";
    "fuzz_tiny_0xbeef_1_block_min.repro e95537cc94fda25c13c790be3cd2b587";
    "fuzz_tiny_0xbeef_2_block_min.repro 4b3797bbbe08c1d1072c951cf3d2764d";
    "fuzz_tiny_0xbeef_3_block_min.repro 290c9b21f696e80da734bc896016a4fb";
    "fuzz_tiny_0xbeef_4_block_min.repro 86317d63ae171bd70e4ba3ea99aa9d5f";
    "fuzz_tiny_0xbeef_5_block_min.repro bad1de47e7b2e6a41b5e64b4d67b18c7";
    "fuzz_tiny_0xbeef_6_block_min.repro 7ec6bce034622f4f8aaa449e15b3b0b6";
    "fuzz_tiny_0xbeef_7_block_min.repro 0139214fc7255f45b5458fc2acc106eb";
    "fuzz_tiny_0xbeef_8_block_min.repro ce801d45c05b4a013e63e0a550322ff0";
    "fuzz_tiny_0xbeef_9_block_min.repro fe5bf5c345df8cf50289eebd91a3c27e";
  ]

let test_golden_fuzz () =
  check_lines "tiny stride4 campaign at one job" fuzz_golden (fuzz_golden_run ())

let inject_golden =
  [
    "{\"v\":1,\"kind\":\"meta\",\"campaign\":\"inject\",\"kernel\":\"sort\",\"seed\":\"0x2a\",\"budget\":20000}";
    "{\"v\":1,\"kind\":\"case\",\"case\":\"inject/alpha/sort/one_min/0x2a/0.0001/20000/reg,mem,pc,fault,di\",\"outcome\":\"ok\",\"attempts\":1,\"detail\":\"coverage 1.000\"}";
    "alpha/one_min on sort: injected 3 (architectural 1, timing-only 2)";
    "  detected 1/1 (coverage 100.0%), mean detection latency 0.00 instrs";
    "  mismatches 1, repairs 1, checkpoint restores 0 (failed 0)";
    "    reg   injected   1  detected   1  mean latency 0.00";
    "    di    injected   2  detected   0  mean latency -";
    "  speculation rollback: 16/16 byte-exact";
    "  recovered run matches reference: false";
    "";
  ]

let test_golden_inject () =
  let journal, cells = inject_run ~isas:[ "alpha" ] () in
  check_lines "alpha injection campaign at one job" inject_golden
    (journal @ cells)

let hunt_golden =
  [
    "execs 13 programs 2 shrink-tests 3";
    "block_min: pc after 64 instruction(s): fetch pc 0x1100, reference 0x1080";
    "lisim-fuzz-repro v1";
    "isa tiny";
    "seed 0x2085fd2559899b60";
    "buildset block_min";
    "mutate stride4";
    "max-instrs 2048";
    "reg 0 0 0x15";
    "reg 0 1 0x0";
    "reg 0 2 0x1008";
    "reg 0 3 0x26";
    "reg 0 4 0x4030";
    "reg 0 5 0x1010";
    "reg 0 6 0x4590";
    "reg 0 7 0x1010";
    "mem 0x4000 0x3158ff795b413942";
    "mem 0x4008 0xbe489d9033471ec0";
    "mem 0x4010 0x2c18428343aa84b3";
    "mem 0x4018 0xe6f5ad3e646d5e2e";
    "mem 0x4020 0x6b13242a3b4d80c4";
    "mem 0x4028 0x5290d8fd68f42d60";
    "mem 0x4030 0x20a9c9814f6311dd";
    "mem 0x4038 0x42c0f0fb0be8e3b9";
    "mem 0x4fe8 0x692c766302f350d0";
    "mem 0x4ff0 0x1d424db4422bd642";
    "mem 0x4ff8 0xa6f17ec1fa1834c3";
    "mem 0x5000 0x7f688915fed9f92f";
    "code 0x6000";
    "end";
    "";
  ]

let test_golden_hunt () =
  check_lines "tiny stride4 hunt at one job" hunt_golden
    (hunt_golden_run ~cfg:stride4_all ~isa:"tiny" ~seed:36L ~budget:200 ())

let test_inject_jobs_deterministic () =
  let run ?fleet () =
    let obs = Obs.create () in
    let stats = Super.Supervisor.of_registry obs.Obs.reg in
    let journal, cells =
      inject_run ?fleet ~obs ~stats ~isas:[ "alpha"; "arm"; "ppc" ] ()
    in
    let counters =
      List.filter_map
        (fun (name, item) ->
          match item with
          | Obs.Registry.Value (Obs.Registry.Int n)
            when String.starts_with ~prefix:"inject." name
                 || String.starts_with ~prefix:"super." name ->
            Some (Printf.sprintf "%s %d" name n)
          | _ -> None)
        (Obs.snapshot obs)
    in
    (List.sort String.compare journal, cells, counters)
  in
  let j1, c1, n1 = run () in
  Alcotest.(check bool) "counters recorded" true (n1 <> []);
  let j4, c4, n4 = Fleet.with_pool ~jobs:4 (fun fl -> run ~fleet:fl ()) in
  check_lines "same journal lines" j1 j4;
  check_lines "same cells in isa order" c1 c4;
  check_lines "same merged counters" n1 n4

let test_hunt_jobs_deterministic () =
  let both ~cfg ~isa ~seed ~budget =
    let h1 = hunt_golden_run ~cfg ~isa ~seed ~budget () in
    let h4 =
      Fleet.with_pool ~jobs:4 (fun fl ->
          hunt_golden_run ~fleet:fl ~cfg ~isa ~seed ~budget ())
    in
    check_lines (isa ^ ": same outcome") h1 h4
  in
  both ~cfg:stride4_all ~isa:"tiny" ~seed:36L ~budget:200;
  both ~cfg:Fuzz.Oracle.default_config ~isa:"alpha" ~seed:11L ~budget:24;
  (* hits past the first round: slot 24 opens round 2 at one job (24
     slots a round), slot 96 opens round 5 at one job and round 3 at four
     (48); execs as the sequential scan found them *)
  let skip_inv =
    {
      Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Skip_invalidate;
    }
  in
  List.iter
    (fun (seed, execs) ->
      let expect =
        Printf.sprintf "execs %d programs %d" execs ((execs + 11) / 12)
      in
      List.iter
        (fun jobs ->
          Fleet.with_pool ~jobs (fun fleet ->
              let o =
                Fuzz.Driver.hunt ~cfg:skip_inv ~fleet ~isa:"tiny" ~seed
                  ~budget:300 ()
              in
              Alcotest.(check string)
                (Printf.sprintf "seed %Ld at %d job(s)" seed jobs)
                expect
                (Printf.sprintf "execs %d programs %d" o.Fuzz.Driver.o_execs
                   o.o_programs)))
        [ 1; 4 ])
    [ (7L, 25); (9L, 97) ];
  check_lines "a negative budget spends nothing"
    [ "execs 0 programs 0 shrink-tests 0"; "no divergence" ]
    (hunt_golden_run ~cfg:stride4_all ~isa:"tiny" ~seed:36L ~budget:(-1) ())

let suite =
  [
    Alcotest.test_case "deque: owner pops LIFO" `Quick test_deque_lifo;
    Alcotest.test_case "deque: thief steals FIFO" `Quick test_deque_steal_fifo;
    Alcotest.test_case "deque: grows without loss" `Quick test_deque_grow;
    Alcotest.test_case "deque: concurrent steal claims exactly once" `Quick
      test_deque_concurrent_steal;
    Alcotest.test_case "fleet: map by task index, reusable" `Quick
      test_fleet_map;
    Alcotest.test_case "fleet: worker-local state" `Quick
      test_fleet_worker_state;
    Alcotest.test_case "fleet: lowest-index exception propagates" `Quick
      test_fleet_exception;
    Alcotest.test_case "fleet: non-positive jobs rejected" `Quick
      test_fleet_bad_jobs;
    Alcotest.test_case "gen: case_seed golden values" `Quick
      test_case_seed_golden;
    Alcotest.test_case "gen: case generation is schedule-independent" `Quick
      test_case_gen_schedule_independent;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (tiny, seeded defect)"
      `Quick test_campaign_jobs_deterministic_tiny;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (alpha)" `Quick
      test_campaign_jobs_deterministic_alpha;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (ppc)" `Quick
      test_campaign_jobs_deterministic_ppc;
    Alcotest.test_case "campaign: parallel resume runs no case twice" `Quick
      test_campaign_parallel_resume;
    Alcotest.test_case "golden: fuzz campaign at one job" `Quick
      test_golden_fuzz;
    Alcotest.test_case "golden: injection campaign at one job" `Quick
      test_golden_inject;
    Alcotest.test_case "golden: hunt at one job" `Quick test_golden_hunt;
    Alcotest.test_case "inject: jobs 4 == jobs 1 (alpha, arm, ppc)" `Quick
      test_inject_jobs_deterministic;
    Alcotest.test_case "hunt: jobs 4 == jobs 1 (tiny seeded defect, alpha)"
      `Quick test_hunt_jobs_deterministic;
  ]
