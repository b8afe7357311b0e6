(** Tests for the block engine's translation-cache machinery: direct
    block chaining, the shared per-(instruction, encoding) site cache,
    per-site memory fast paths, self-modifying-code invalidation, and
    the stride handling of block construction (via {!Fuzz.Tiny}, the
    2-byte-instruction toy ISA — a spec whose [instrsize] differs from
    the demo's 4). Program harnesses live in {!Gen_common}. *)

let run_demo = Gen_common.run_demo

(* ----------------------------------------------------------------- *)
(* Chaining and the shared site cache                                  *)
(* ----------------------------------------------------------------- *)

(* A counted loop whose back edge re-enters the middle of the entry
   block, so the loop-head block is a strict suffix of the entry block:
   its sites must come from the shared site cache, and after the first
   iteration every block-to-block transfer should ride a chain link. *)
let loop_program =
  Demo_isa.
    [
      addi ~ra:31 ~imm:10 ~rc:1 (* r1 = n *);
      addi ~ra:31 ~imm:0 ~rc:2 (* r2 = acc *);
      (* loop: *)
      add ~ra:2 ~rb:1 ~rc:2 (* acc += r1 *);
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1 (* done when r1 == 0 *);
      br ~off:(-4) (* back to loop *);
      addi ~ra:31 ~imm:0 ~rc:0 (* nr = sys_exit *);
      add ~ra:2 ~rb:31 ~rc:1 (* arg0 = acc *);
      sys;
    ]

let test_chain_and_site_cache () =
  let iface, status, count = run_demo "block_min" loop_program in
  Alcotest.(check (option int)) "exit status" (Some 55) status;
  let s = iface.stats in
  Alcotest.(check bool)
    "chain links taken" true
    (s.Specsim.Iface.chain_taken > 0);
  Alcotest.(check bool)
    "some chain misses (cold edges)" true
    (s.Specsim.Iface.chain_miss > 0);
  Alcotest.(check bool)
    "site cache reused compiled sites" true
    (s.Specsim.Iface.site_cache_hits >= 3);
  (* Every dispatch but the first has a predecessor, so it is either a
     chain hit or a chain miss; nothing in this program invalidates. *)
  Alcotest.(check int) "every later dispatch consults a successor cache"
    (s.Specsim.Iface.blocks_compiled + s.Specsim.Iface.block_hits - 1)
    (s.Specsim.Iface.chain_taken + s.Specsim.Iface.chain_miss);
  Alcotest.(check bool) "chain hits outnumber misses on a hot loop" true
    (s.Specsim.Iface.chain_taken > s.Specsim.Iface.chain_miss);
  Alcotest.(check bool) "fewer sites compiled than instructions executed" true
    (Int64.compare (Int64.of_int s.Specsim.Iface.sites_compiled) count < 0);
  let _, _, one_count = run_demo "one_all" loop_program in
  Alcotest.(check int64) "Block and One mode retire the same count" one_count
    count

(* One-mode interfaces run the block engine's units capped at one site:
   each distinct pc translates once, every unit's site comes from the
   shared site cache, and the loop's transfers ride chain links. *)
let test_one_mode_one_site_units () =
  let iface, status, count = run_demo "one_all" loop_program in
  Alcotest.(check (option int)) "exit status" (Some 55) status;
  let s = iface.stats in
  Alcotest.(check int) "one unit per distinct pc" 9 s.Specsim.Iface.blocks_compiled;
  Alcotest.(check int) "every unit holds one site from the site cache"
    s.Specsim.Iface.blocks_compiled
    (s.Specsim.Iface.sites_compiled + s.Specsim.Iface.site_cache_hits);
  (* [count] retired plus the halting exit call, less the first dispatch *)
  Alcotest.(check int) "every later dispatch consults a successor cache"
    (Int64.to_int count)
    (s.Specsim.Iface.chain_taken + s.Specsim.Iface.chain_miss);
  Alcotest.(check bool) "chain hits outnumber misses on a hot loop" true
    (s.Specsim.Iface.chain_taken > s.Specsim.Iface.chain_miss)

(* ----------------------------------------------------------------- *)
(* Self-modifying code                                                 *)
(* ----------------------------------------------------------------- *)

(* The program stores over one of its own loop-body instructions and
   must observe the new semantics on the next iteration. The
   replacement pair (the rewritten ADDI plus the unchanged ADD that
   shares its 8-byte store) is staged at 0x800 by the harness.

     0x1000  addi r5 = 2            loop counter
     0x1004  ldq  r7 = [0x800]      replacement pair
     0x1008  addi r2 = 5            <- rewritten to addi r2 = 99
     0x100c  add  r3 += r2
     0x1010  stq  [0x1008] = r7     the self-modifying store
     0x1014  addi r5 -= 1
     0x1018  beqz r5, +1
     0x101c  br   -7                back to 0x1004
     0x1020  addi r0 = 0            sys_exit
     0x1024  add  r1 = r3
     0x1028  sys

   Iteration 1 adds 5, rewrites; iteration 2 must add 99: exit 104.
   A stale translation cache would add 5 twice and exit 10. *)
let smc_program =
  Demo_isa.
    [
      addi ~ra:31 ~imm:2 ~rc:5;
      ldq ~ra:31 ~imm:0x800 ~rc:7;
      addi ~ra:31 ~imm:5 ~rc:2;
      add ~ra:3 ~rb:2 ~rc:3;
      stq ~ra:31 ~imm:0x1008 ~rb:7;
      addi ~ra:5 ~imm:(-1) ~rc:5;
      beqz ~ra:5 ~off:1;
      br ~off:(-7);
      addi ~ra:31 ~imm:0 ~rc:0;
      add ~ra:3 ~rb:31 ~rc:1;
      sys;
    ]

let smc_patch (st : Machine.State.t) =
  let repl =
    Int64.logor
      (Demo_isa.addi ~ra:31 ~imm:99 ~rc:2)
      (Int64.shift_left (Demo_isa.add ~ra:3 ~rb:2 ~rc:3) 32)
  in
  Machine.Memory.write st.mem ~addr:0x800L ~width:8 repl

let test_smc_block_mode () =
  let iface, status, _ = run_demo ~patch:smc_patch "block_min" smc_program in
  Alcotest.(check (option int)) "rewritten instruction observed" (Some 104)
    status;
  Alcotest.(check bool) "code writes invalidated blocks" true
    (iface.stats.Specsim.Iface.block_invalidations > 0)

(* Every call style observes the rewrite: One and Step interfaces run
   through [run_n], and step_all also entrypoint by entrypoint. *)
let test_smc_matches_one_mode () =
  let _, block_status, block_count =
    run_demo ~patch:smc_patch "block_min" smc_program
  in
  List.iter
    (fun (label, drive, bs) ->
      let _, status, count = run_demo ~patch:smc_patch ~drive bs smc_program in
      Alcotest.(check (option int)) (label ^ ": modes agree on exit") block_status
        status;
      Alcotest.(check int64) (label ^ ": modes agree on count") block_count count)
    [
      ("one_all", Specsim.Iface.run_n, "one_all");
      ("one_min", Specsim.Iface.run_n, "one_min");
      ("step_all", Specsim.Iface.run_n, "step_all");
      ("step_all stepped", Gen_common.step_n, "step_all");
    ]

(* ----------------------------------------------------------------- *)
(* Stride regression: the tiny16 2-byte-instruction ISA                *)
(* ----------------------------------------------------------------- *)

(* Block construction used to advance the recorded per-site PCs by a
   hard-coded 4 bytes; any spec with a different [instrsize] then
   resumed at the wrong address after a block. The fuzzer's tiny16
   target (3-bit opcode in bits 13..15) exercises that path end to
   end — the same defect survives as the deliberate
   {!Specsim.Synth.Stride4} mutation. *)

(* Sum 5..1 with a backward branch: 15. R7 is the zero register. *)
let tiny_program =
  Fuzz.Tiny.
    [
      addi ~ra:7 ~imm:5 ~rc:1 (* r1 = 5 *);
      addi ~ra:7 ~imm:0 ~rc:2 (* r2 = 0 *);
      (* loop: *)
      add ~ra:2 ~rb:1 ~rc:2;
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1 (* done when r1 == 0 *);
      beqz ~ra:7 ~off:(-4) (* always taken: back to loop *);
      addi ~ra:7 ~imm:0 ~rc:0 (* nr = sys_exit *);
      add ~ra:2 ~rb:7 ~rc:1 (* arg0 = sum *);
      sys;
    ]

let run_tiny bs =
  let spec = Lazy.force Fuzz.Tiny.spec in
  let iface = Specsim.Synth.make spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "tiny16 has no abi");
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (2 * i)))
        ~width:2 w)
    tiny_program;
  Machine.State.reset st ~pc:0x1000L;
  let executed = Specsim.Iface.run_n iface 100_000 in
  if not st.halted then Alcotest.fail "tiny16 program did not terminate";
  (Machine.State.exit_status st, Int64.to_int st.instr_count, executed)

let test_tiny_stride () =
  let one_status, one_count, _ = run_tiny "one_all" in
  Alcotest.(check (option int)) "One-mode sum" (Some 15) one_status;
  let block_status, block_count, _ = run_tiny "block_min" in
  Alcotest.(check (option int)) "Block-mode sum" (Some 15) block_status;
  Alcotest.(check int) "modes agree on count" one_count block_count

(* ----------------------------------------------------------------- *)
(* Watchdog preemption of chained dispatch                             *)
(* ----------------------------------------------------------------- *)

(* Chained dispatch transfers block-to-block without returning to the
   driver, so a tight infinite loop is the worst case: the watchdog can
   only trip if run_n still honours its slice bound. *)
let test_watchdog_preempts_chained_loop () =
  let spin =
    List.find
      (fun (k : Vir.Kernels.sized) -> String.equal k.kname "spin")
      Vir.Kernels.pathological
  in
  let l = Workload.load Workload.alpha ~buildset:"block_min" spin.program in
  let config =
    {
      Inject.Watchdog.max_instructions = 50_000;
      max_seconds = Some 30.;
      deadline = None;
      check_interval = 4096;
    }
  in
  match Inject.Watchdog.run_guarded ~config l.iface with
  | () -> Alcotest.fail "spin loop terminated?!"
  | exception Machine.Sim_error.Error _ ->
    Alcotest.(check bool) "chained loop stayed preemptible" true true

(* ----------------------------------------------------------------- *)
(* Property: Block mode == One mode on random workloads, all ISAs      *)
(* ----------------------------------------------------------------- *)

let prop_block_equals_one =
  QCheck.Test.make ~count:20
    ~name:"Block mode matches One mode on random VIR loops (all ISAs)"
    QCheck.(pair (list_of_size (Gen.int_range 1 10) (int_bound (1 lsl 22)))
              (int_range 1 12))
    (fun (choices, iters) ->
      let program = Gen_common.vir_of_choices choices ~iters in
      List.for_all
        (fun t ->
          let block =
            Workload.run t ~buildset:"block_min" ~budget:1_000_000 program
          in
          let one =
            Workload.run t ~buildset:"one_all" ~budget:1_000_000 program
          in
          Gen_common.outcome_pair block = Gen_common.outcome_pair one)
        Workload.targets)

(* A store that targets the program's own code pages (rewriting an
   instruction word with its own value) forces invalidation and block
   rebuild on every iteration; Block and One mode must still agree. *)
let self_store_program : Vir.Lang.program =
  let open Vir.Lang in
  [
    Li (2, 0x1000l) (* code base *);
    Li (4, 0l);
    Li (5, 3l);
    Li (8, 0l);
    Label "loop";
    Ldw (3, 2, 0);
    Stw (3, 2, 0) (* rewrite first instruction with itself *);
    Addi (4, 4, 1);
    Bcond (Lt, 4, 5, "loop");
    Li (0, 0l);
    Li (1, 42l);
    Sys;
  ]

let test_self_store_equivalence () =
  List.iter
    (fun t ->
      let block =
        Workload.run t ~buildset:"block_min" ~budget:1_000_000
          self_store_program
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: exits 42" t.Workload.tname)
        42 block.Workload.exit_status;
      List.iter
        (fun bs ->
          let o = Workload.run t ~buildset:bs ~budget:1_000_000 self_store_program in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: exit status" t.Workload.tname bs)
            block.Workload.exit_status o.Workload.exit_status;
          Alcotest.(check int64)
            (Printf.sprintf "%s %s: instructions" t.Workload.tname bs)
            block.Workload.instructions o.Workload.instructions)
        [ "one_all"; "one_min"; "step_all" ])
    Workload.targets

(* ----------------------------------------------------------------- *)
(* One executor: run_n and a run_block loop agree exactly              *)
(* ----------------------------------------------------------------- *)

(* [run_n] and [run_block] share one dispatch step and one site loop;
   they differ only in whether DI records are filled. Driving the same
   image both ways must therefore give the same architectural result
   and the same dispatch counters, on every block buildset (journaled
   ones included), plain and with full instrumentation compiled in. *)
let block_buildsets =
  [ "block_min"; "block_decode"; "block_decode_spec"; "block_all";
    "block_all_spec" ]

let sort_program =
  (List.find
     (fun (k : Vir.Kernels.sized) -> String.equal k.kname "sort")
     Vir.Kernels.test_suite)
    .program

let executor_fingerprint ~via_run_block ~obs t bs program =
  let obs = if obs then Some (Obs.create ()) else None in
  let l = Workload.load ?obs t ~buildset:bs program in
  let iface = l.Workload.iface in
  let st = iface.Specsim.Iface.st in
  let cap = 1_000_000 in
  if via_run_block then begin
    let guard = ref 0 in
    while (not st.Machine.State.halted) && !guard < cap do
      let _, n = iface.Specsim.Iface.run_block () in
      guard := !guard + max n 1
    done
  end
  else ignore (Specsim.Iface.run_n iface cap);
  if not st.Machine.State.halted then Alcotest.fail "program did not halt";
  let s = iface.Specsim.Iface.stats in
  Printf.sprintf
    "exit=%s output=%S count=%Ld mem=%Lx compiled=%d hits=%d inval=%d \
     sites=%d site_hits=%d chain=%d/%d exec=%Ld stable=%d fastpath=%d"
    (match Machine.State.exit_status st with
    | Some v -> string_of_int v
    | None -> "-")
    (Machine.Os_emu.output l.Workload.os)
    st.Machine.State.instr_count
    (Machine.Memory.digest st.Machine.State.mem)
    s.blocks_compiled s.block_hits s.block_invalidations s.sites_compiled
    s.site_cache_hits s.chain_taken s.chain_miss s.instrs_executed
    s.stable_blocks s.fastpath_classes

let test_one_executor () =
  List.iter
    (fun (t : Workload.target) ->
      List.iter
        (fun bs ->
          List.iter
            (fun obs ->
              List.iter
                (fun (pname, program) ->
                  let label =
                    Printf.sprintf "%s/%s/%s%s" t.tname bs pname
                      (if obs then "+obs" else "")
                  in
                  Alcotest.(check string) label
                    (executor_fingerprint ~via_run_block:false ~obs t bs
                       program)
                    (executor_fingerprint ~via_run_block:true ~obs t bs
                       program))
                [ ("sort", sort_program); ("self_store", self_store_program) ])
            [ false; true ])
        block_buildsets)
    Workload.targets

let suite =
  [
    Alcotest.test_case "chain + site cache engage" `Quick
      test_chain_and_site_cache;
    Alcotest.test_case "One mode runs one-site units" `Quick
      test_one_mode_one_site_units;
    Alcotest.test_case "SMC: rewritten instruction observed" `Quick
      test_smc_block_mode;
    Alcotest.test_case "SMC: Block matches One" `Quick test_smc_matches_one_mode;
    Alcotest.test_case "2-byte-instruction ISA stride" `Quick test_tiny_stride;
    Alcotest.test_case "watchdog preempts chained loop" `Quick
      test_watchdog_preempts_chained_loop;
    QCheck_alcotest.to_alcotest prop_block_equals_one;
    Alcotest.test_case "self-store equivalence (all ISAs)" `Quick
      test_self_store_equivalence;
    Alcotest.test_case "run_n and run_block share one executor" `Quick
      test_one_executor;
  ]
