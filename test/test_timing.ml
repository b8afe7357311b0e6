(** Timing-simulator tests: substrates (cache, predictor) and all five
    decoupled organizations running real kernels. *)

let kernel = List.nth Vir.Kernels.test_suite 3 (* sort: branchy *)
let mem_kernel = List.hd Vir.Kernels.test_suite (* vec_sum: streaming *)

(* ----------------------------------------------------------------- *)
(* Cache                                                               *)
(* ----------------------------------------------------------------- *)

let test_cache_basic () =
  let c =
    Timing.Cache.create
      { size_bytes = 1024; ways = 2; line_bytes = 64; hit_latency = 1; miss_penalty = 10 }
  in
  Alcotest.(check bool) "cold miss" false (Timing.Cache.access c 0L);
  Alcotest.(check bool) "hit same line" true (Timing.Cache.access c 63L);
  Alcotest.(check bool) "miss next line" false (Timing.Cache.access c 64L);
  Alcotest.(check int) "hit latency" 1 (Timing.Cache.latency c 0L);
  Alcotest.(check int) "miss latency" 11 (Timing.Cache.latency c 0x10000L)

let test_cache_lru () =
  (* 2 ways, 8 sets of 64B: addresses 0, 1024, 2048 map to set 0 *)
  let c =
    Timing.Cache.create
      { size_bytes = 1024; ways = 2; line_bytes = 64; hit_latency = 1; miss_penalty = 10 }
  in
  ignore (Timing.Cache.access c 0L);
  ignore (Timing.Cache.access c 1024L);
  ignore (Timing.Cache.access c 0L) (* touch 0: now 1024 is LRU *);
  ignore (Timing.Cache.access c 2048L) (* evicts 1024 *);
  Alcotest.(check bool) "0 still resident" true (Timing.Cache.access c 0L);
  Alcotest.(check bool) "1024 evicted" false (Timing.Cache.access c 1024L)

let test_cache_bad_config () =
  Alcotest.(check bool) "rejects non-power-of-two sets" true
    (match
       Timing.Cache.create
         { size_bytes = 1000; ways = 3; line_bytes = 64; hit_latency = 1; miss_penalty = 1 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* configurations whose set count alone looks fine *)
let test_cache_bad_geometry () =
  let rejects what (config : Timing.Cache.config) =
    Alcotest.(check bool) what true
      (match Timing.Cache.create config with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  let base =
    { Timing.Cache.size_bytes = 12288; ways = 2; line_bytes = 64; hit_latency = 1;
      miss_penalty = 1 }
  in
  (* 12288 / (2 * 96) = 64 sets, but 96-byte lines would be indexed as 64 *)
  rejects "96-byte lines" { base with line_bytes = 96 };
  rejects "2-byte lines" { base with size_bytes = 256; line_bytes = 2 };
  rejects "0-byte lines" { base with line_bytes = 0 };
  rejects "no ways" { base with ways = 0 };
  rejects "negative ways" { base with ways = -2 };
  ignore (Timing.Cache.create { base with size_bytes = 64; ways = 1; line_bytes = 4 })

(* ----------------------------------------------------------------- *)
(* Predictor                                                           *)
(* ----------------------------------------------------------------- *)

let test_predictor_learns () =
  let p = Timing.Predictor.create (Timing.Predictor.Bimodal 10) in
  (* always-taken branch at one pc: after warmup, predictions correct *)
  for _ = 1 to 4 do
    ignore (Timing.Predictor.update p ~pc:0x1000L ~taken:true)
  done;
  Alcotest.(check bool) "learned taken" true (Timing.Predictor.predict p ~pc:0x1000L);
  for _ = 1 to 4 do
    ignore (Timing.Predictor.update p ~pc:0x1000L ~taken:false)
  done;
  Alcotest.(check bool) "learned not-taken" false
    (Timing.Predictor.predict p ~pc:0x1000L)

let test_predictor_static () =
  let p = Timing.Predictor.create Timing.Predictor.Static_taken in
  Alcotest.(check bool) "static taken" true (Timing.Predictor.predict p ~pc:0L)

(* ----------------------------------------------------------------- *)
(* Functional-first                                                    *)
(* ----------------------------------------------------------------- *)

let test_funcfirst () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "ran" true (Int64.to_int r.instructions > 1000);
  Alcotest.(check bool) "cycles >= instructions" true
    (Int64.compare r.cycles r.instructions >= 0);
  Alcotest.(check bool) "ipc sane" true (r.ipc > 0.05 && r.ipc <= 1.0);
  Alcotest.(check bool) "dcache modelled at Decode" true r.dcache_modelled;
  Alcotest.(check bool) "program finished correctly" true l.iface.st.halted

let test_funcfirst_min_detail () =
  (* at Min detail the D-cache cannot be modelled; the model reports it *)
  let l = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "dcache not modelled at Min" false r.dcache_modelled;
  Alcotest.(check bool) "still runs" true (Int64.to_int r.instructions > 1000)

let test_funcfirst_block () =
  let l = Workload.load Workload.ppc ~buildset:"block_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "block stream consumed" true
    (Int64.to_int r.instructions > 1000)

(* ----------------------------------------------------------------- *)
(* Timing-directed                                                     *)
(* ----------------------------------------------------------------- *)

let check_directed (t : Workload.target) () =
  let expected = Workload.reference kernel.program in
  let l = Workload.load t ~buildset:"step_all" kernel.program in
  let r = Timing.Directed.run l.iface ~budget:10_000_000 in
  (* functional correctness is driven by the timing model *)
  Alcotest.(check bool) "halted" true l.iface.st.halted;
  (match Machine.State.exit_status l.iface.st with
  | Some s -> Alcotest.(check int) "exit status" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "no exit status");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output l.os);
  Alcotest.(check bool) "pipeline slower than 1 IPC" true (r.ipc < 1.0);
  Alcotest.(check bool) "some RAW stalls" true (Int64.to_int r.raw_stall_cycles > 0);
  Alcotest.(check bool) "some branch flushes" true (Int64.to_int r.branch_flushes > 0)

(* Straight-line RISC-V code made mostly of compressed parcels (C.LI,
   C.MV, C.ADDI): a 2-byte instruction is not a branch, so the pipeline
   must redirect its 4-byte-stride fetch at decode and record no branch
   flush at all. *)
let test_directed_rvc_straight_line () =
  let program =
    Vir.Lang.
      [
        Li (8, 1l); Li (9, 2l); Mv (10, 8); Addi (10, 10, 3); Mv (11, 9);
        Addi (11, 11, 4); Li (12, 5l); Add (12, 12, 10); Add (12, 12, 11);
        Li (0, 0l); Mv (1, 12); Sys;
      ]
  in
  let expected = Workload.reference program in
  let words = Workload.riscv.encode ~base:Workload.code_base program in
  Alcotest.(check bool) "program uses compressed parcels" true
    (List.length words < List.length program);
  let l = Workload.load Workload.riscv ~buildset:"step_all" program in
  let r = Timing.Directed.run l.iface ~budget:1_000 in
  (match Machine.State.exit_status l.iface.st with
  | Some s -> Alcotest.(check int) "exit status" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "no exit status");
  Alcotest.(check int64) "no branch flushes" 0L r.branch_flushes

(* ----------------------------------------------------------------- *)
(* Timing-first                                                        *)
(* ----------------------------------------------------------------- *)

let test_timingfirst_clean () =
  let lt = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let lc = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let r =
    Timing.Timingfirst.run ~timing:lt.iface ~checker:lc.iface
      ~budget:10_000_000 ()
  in
  Alcotest.(check int64) "no mismatches without bugs" 0L r.mismatches;
  Alcotest.(check bool) "finished" true lt.iface.st.halted

let test_timingfirst_buggy () =
  let expected = Workload.reference kernel.program in
  let lt = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let lc = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  (* inject a bug: every 997th instruction, corrupt register r1 *)
  let count = ref 0 in
  let bug (st : Machine.State.t) (_ : Specsim.Di.t) =
    incr count;
    if !count mod 997 = 0 then
      Machine.Regfile.write st.regs ~cls:0 ~idx:1
        (Int64.add (Machine.Regfile.read st.regs ~cls:0 ~idx:1) 1L)
  in
  let r =
    Timing.Timingfirst.run ~bug ~timing:lt.iface ~checker:lc.iface
      ~budget:10_000_000 ()
  in
  Alcotest.(check bool) "mismatches detected" true (Int64.to_int r.mismatches > 0);
  (* the checker keeps the run architecturally correct *)
  (match Machine.State.exit_status lc.iface.st with
  | Some s -> Alcotest.(check int) "exit status" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "checker did not exit");
  Alcotest.(check string) "output correct despite bugs" expected.output
    (Machine.Os_emu.output lc.os)

(* ----------------------------------------------------------------- *)
(* Speculative functional-first                                        *)
(* ----------------------------------------------------------------- *)

let test_specff_no_divergence () =
  let expected = Workload.reference kernel.program in
  let l = Workload.load Workload.alpha ~buildset:"one_decode_spec" kernel.program in
  let r = Timing.Specff.run l.iface ~budget:10_000_000 in
  Alcotest.(check int64) "no timer loads, no rollbacks" 0L r.rollbacks;
  (match Machine.State.exit_status l.iface.st with
  | Some s -> Alcotest.(check int) "exit" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "did not exit");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output l.os)

(* a program that polls the timer MMIO location *)
let timer_program =
  Vir.Lang.
    [
      Li (8, 0x000F0000l) (* timer address *);
      Li (9, 2000l);
      Li (10, 0l);
      Li (4, 0l);
      Label "loop";
      Ldw (11, 8, 0) (* timing-dependent load *);
      Add (4, 4, 11);
      Addi (10, 10, 1);
      Bcond (Ne, 10, 9, "loop");
      Andi (4, 4, 255);
      Li (0, 0l);
      Mv (1, 4);
      Sys;
    ]

let test_specff_rollbacks () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode_spec" timer_program in
  let r = Timing.Specff.run l.iface ~budget:10_000_000 in
  Alcotest.(check bool) "some rollbacks happened" true
    (Int64.to_int r.rollbacks > 0);
  Alcotest.(check bool) "program completed" true l.iface.st.halted

(* the exiting syscall halts and is not counted by the interface, so
   it must not retire (nor be timed) either *)
let test_specff_retires_interface_count () =
  List.iter
    (fun (t : Workload.target) ->
      List.iter
        (fun program ->
          let l = Workload.load t ~buildset:"one_decode_spec" program in
          let r = Timing.Specff.run l.iface ~budget:10_000_000 in
          Alcotest.(check bool) (t.tname ^ " exited") true
            (Machine.State.exit_status l.iface.st <> None);
          Alcotest.(check int64) (t.tname ^ " retired") l.iface.st.instr_count
            r.instructions)
        [ timer_program; kernel.program ])
    Workload.targets

let test_specff_bad_window () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode_spec" timer_program in
  Alcotest.check_raises "window 0"
    (Invalid_argument "Specff.run: window must be at least 1") (fun () ->
      ignore
        (Timing.Specff.run
           ~config:{ Timing.Specff.default_config with window = 0 }
           l.iface ~budget:1000))

(* ----------------------------------------------------------------- *)
(* Sampling                                                            *)
(* ----------------------------------------------------------------- *)

let test_sampling () =
  let expected = Workload.reference mem_kernel.program in
  let spec = Lazy.force Workload.alpha.spec in
  let st = Lis.Spec.make_machine spec in
  let detailed = Specsim.Synth.make ~st spec "one_decode" in
  let fast = Specsim.Synth.make ~st spec "block_min" in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  let words = Isa_alpha.Alpha_asm.encode ~base:0x1000L mem_kernel.program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:0x1000L;
  let r = Timing.Sampling.run ~detailed ~fast ~budget:10_000_000 () in
  Alcotest.(check bool) "finished" true st.halted;
  (match Machine.State.exit_status st with
  | Some s -> Alcotest.(check int) "exit" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "no exit");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output os);
  Alcotest.(check bool) "only a fraction measured" true
    (r.sampled_fraction < 0.5 && r.sampled_fraction > 0.0);
  Alcotest.(check bool) "ipc estimated" true (r.estimated_ipc > 0.0)

(* ----------------------------------------------------------------- *)
(* Taken-branch accounting on a 2-byte ISA                             *)
(* ----------------------------------------------------------------- *)

(* tiny16: r1 = 1, then [n] BEQZ r1 that never branch, then exit. Every
   fall-through is pc + 2, so a "taken = next_pc <> pc + 4" test would
   call each one taken. *)
let never_taken = 3000

let tiny_fallthrough_iface bs =
  let spec = Lazy.force Fuzz.Tiny.spec in
  let iface = Specsim.Synth.make spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "tiny16 has no abi");
  let prog =
    Fuzz.Tiny.(
      [ addi ~ra:7 ~imm:1 ~rc:1 ]
      @ List.init never_taken (fun _ -> beqz ~ra:1 ~off:5)
      @ [ addi ~ra:7 ~imm:0 ~rc:0 (* nr = sys_exit *); sys ])
  in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (2 * i)))
        ~width:2 w)
    prog;
  Machine.State.reset st ~pc:0x1000L;
  iface

let test_funcfirst_tiny16_fallthrough () =
  let t = Timing.Funcfirst.create (tiny_fallthrough_iface "one_min") in
  let r = Timing.Funcfirst.run t ~budget:100_000 in
  (* the exiting syscall halts and does not retire *)
  Alcotest.(check int64) "ran the whole program"
    (Int64.of_int (never_taken + 2)) r.instructions;
  let predictions, mispredictions =
    Timing.Predictor.stats t.Timing.Funcfirst.predictor
  in
  Alcotest.(check int64) "every BEQZ predicted" (Int64.of_int never_taken)
    predictions;
  Alcotest.(check bool)
    (Printf.sprintf "fall-throughs train not-taken (%Ld mispredictions)"
       mispredictions)
    true
    (Int64.compare mispredictions 4L <= 0)

(* ----------------------------------------------------------------- *)
(* Golden statistics                                                   *)
(* ----------------------------------------------------------------- *)

(* Exact simulated statistics of each organization on one bench kernel
   per ISA (and the timer-polling loop for Specff), so that any change
   to a timing model's behaviour, not just to its coarse shape, fails
   here. *)
let golden_budget = 30_000

let golden_kernel = function
  | "alpha" -> "sort"
  | "arm" -> "matmul"
  | "ppc" -> "list_chase"
  | _ -> "str_ops"

let golden_load isa bs program =
  Workload.load (Workload.find_target isa) ~buildset:bs program

let bench_program isa =
  let name = golden_kernel isa in
  (List.find (fun (k : Vir.Kernels.sized) -> k.kname = name) Vir.Kernels.bench_suite)
    .program

let funcfirst_stats isa =
  let l = golden_load isa "one_decode" (bench_program isa) in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:golden_budget in
  let cs c =
    let a, m = Timing.Cache.stats c in
    Printf.sprintf "%Ld/%Ld" a m
  in
  let p, mp = Timing.Predictor.stats ff.predictor in
  Printf.sprintf "instrs=%Ld cycles=%Ld l1i=%s l1d=%s bp=%Ld/%Ld" r.instructions
    r.cycles (cs ff.l1i) (cs ff.l1d) p mp

let specff_stats isa =
  let l = golden_load isa "one_decode_spec" timer_program in
  let r = Timing.Specff.run l.iface ~budget:10_000_000 in
  Printf.sprintf "instrs=%Ld cycles=%Ld rollbacks=%Ld" r.instructions r.cycles
    r.rollbacks

let directed_stats isa =
  let l = golden_load isa "step_all" (bench_program isa) in
  let r = Timing.Directed.run l.iface ~budget:golden_budget in
  Printf.sprintf "instrs=%Ld cycles=%Ld raw=%Ld flushes=%Ld l1i=%h l1d=%h"
    r.instructions r.cycles r.raw_stall_cycles r.branch_flushes
    r.icache_miss_rate r.dcache_miss_rate

let golden =
  [
    ("funcfirst", "alpha", "instrs=30000 cycles=32536 l1i=30000/3 l1d=10599/19 bp=5650/284");
    ("funcfirst", "arm", "instrs=30000 cycles=31844 l1i=30000/4 l1d=3553/101 bp=2578/73");
    ("funcfirst", "ppc", "instrs=30000 cycles=32036 l1i=30000/3 l1d=3855/128 bp=7045/58");
    ("funcfirst", "riscv", "instrs=30000 cycles=31188 l1i=30000/2 l1d=5900/79 bp=4997/27");
    ("specff", "alpha", "instrs=10020 cycles=10177 rollbacks=9");
    ("specff", "arm", "instrs=10007 cycles=10152 rollbacks=9");
    ("specff", "ppc", "instrs=10012 cycles=10169 rollbacks=9");
    ("specff", "riscv", "instrs=8012 cycles=8155 rollbacks=7");
    ( "directed", "alpha",
      "instrs=30000 cycles=60304 raw=26872 flushes=3163 "
      ^ "l1i=0x1.7b6741be18685p-14 l1d=0x1.d5e17924213b5p-10" );
    ( "directed", "arm",
      "instrs=30000 cycles=69058 raw=35250 flushes=2542 "
      ^ "l1i=0x1.01c315657186bp-13 l1d=0x1.d1be2508dcc44p-6" );
    ( "directed", "ppc",
      "instrs=30000 cycles=58614 raw=22052 flushes=4997 "
      ^ "l1i=0x1.6785a4a45791bp-14 l1d=0x1.1001100110011p-5" );
    ( "directed", "riscv",
      "instrs=30000 cycles=64164 raw=28192 flushes=4996 "
      ^ "l1i=0x1.df605d28fa1abp-15 l1d=0x1.b6c20a110241ap-7" );
  ]

let golden_cases =
  List.map
    (fun (org, isa, expected) ->
      let stats =
        match org with
        | "funcfirst" -> funcfirst_stats
        | "specff" -> specff_stats
        | _ -> directed_stats
      in
      Alcotest.test_case (Printf.sprintf "golden %s %s" org isa) `Quick (fun () ->
          Alcotest.(check string) "statistics" expected (stats isa)))
    golden

(* Timing.Directed fetches younger instructions before older stores
   complete, so on the self-modifying trampoline kernel it can decode a
   stale instruction word. The exact result record and final machine
   state pin that stale-fetch behaviour on every ISA. *)
let trampoline_program =
  (List.find
     (fun (k : Workload.Hostile.kernel) -> String.equal k.hname "trampoline")
     Workload.Hostile.test_suite)
    .program

let directed_trampoline_stats isa =
  let l = golden_load isa "step_all" trampoline_program in
  let r = Timing.Directed.run l.iface ~budget:1_000_000 in
  Printf.sprintf
    "instrs=%Ld cycles=%Ld ipc=%h raw=%Ld flushes=%Ld l1i=%h l1d=%h \
     fault=%s state=%Lx"
    r.instructions r.cycles r.ipc r.raw_stall_cycles r.branch_flushes
    r.icache_miss_rate r.dcache_miss_rate
    (match l.iface.st.fault with
    | Some f -> Machine.Fault.to_string f
    | None -> "-")
    (Machine.Checkpoint.digest l.iface.st)

let trampoline_golden =
  [
    ( "alpha",
      "instrs=849 cycles=1764 ipc=0x1.ecd7f2116a3b3p-2 raw=686 flushes=119 "
      ^ "l1i=0x1.d96da388960f5p-8 l1d=0x1.2bb512bb512bbp-6"
      ^ " fault=exit(72) state=f14d62c1c563b7d9" );
    ( "arm",
      "instrs=795 cycles=1369 ipc=0x1.2953968882268p-1 raw=384 flushes=119 "
      ^ "l1i=0x1.661ec6a5122f9p-8 l1d=0x1.2bb512bb512bbp-6"
      ^ " fault=exit(72) state=67c02ae1ba8149f6" );
    ( "ppc",
      "instrs=1014 cycles=1659 ipc=0x1.38f0b92bfa71ep-1 raw=397 flushes=151 "
      ^ "l1i=0x1.190776ff8f96ap-8 l1d=0x1.1f7047dc11f7p-6"
      ^ " fault=exit(72) state=7f7e16f5a157d870" );
    ( "riscv",
      "instrs=478 cycles=918 ipc=0x1.0a98d1b5437c6p-1 raw=269 flushes=87 "
      ^ "l1i=0x1.cf26e5c44bfc6p-8 l1d=0x1.47ae147ae147bp-5"
      ^ " fault=exit(72) state=3778cedbb7a320bc" );
  ]

let trampoline_golden_cases =
  List.map
    (fun (isa, expected) ->
      Alcotest.test_case (Printf.sprintf "golden directed trampoline %s" isa)
        `Quick (fun () ->
          Alcotest.(check string) "result and state" expected
            (directed_trampoline_stats isa)))
    trampoline_golden

let test_mix_tiny16_taken_count () =
  let s = Instr_mix.collect_iface (tiny_fallthrough_iface "one_decode") in
  Alcotest.(check int64) "branches" (Int64.of_int never_taken) s.branches;
  Alcotest.(check int64) "none taken" 0L s.taken_branches

let suite =
  [
    Alcotest.test_case "cache basic" `Quick test_cache_basic;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache bad config" `Quick test_cache_bad_config;
    Alcotest.test_case "cache bad geometry" `Quick test_cache_bad_geometry;
    Alcotest.test_case "predictor learns" `Quick test_predictor_learns;
    Alcotest.test_case "predictor static" `Quick test_predictor_static;
    Alcotest.test_case "functional-first" `Quick test_funcfirst;
    Alcotest.test_case "functional-first at Min" `Quick test_funcfirst_min_detail;
    Alcotest.test_case "functional-first on blocks" `Quick test_funcfirst_block;
    Alcotest.test_case "timing-directed alpha" `Quick (check_directed Workload.alpha);
    Alcotest.test_case "timing-directed arm" `Quick (check_directed Workload.arm);
    Alcotest.test_case "timing-directed ppc" `Quick (check_directed Workload.ppc);
    Alcotest.test_case "timing-directed riscv" `Quick (check_directed Workload.riscv);
    Alcotest.test_case "timing-directed riscv RVC straight line" `Quick
      test_directed_rvc_straight_line;
    Alcotest.test_case "timing-first clean" `Quick test_timingfirst_clean;
    Alcotest.test_case "timing-first buggy" `Quick test_timingfirst_buggy;
    Alcotest.test_case "spec-ff no divergence" `Quick test_specff_no_divergence;
    Alcotest.test_case "spec-ff rollbacks" `Quick test_specff_rollbacks;
    Alcotest.test_case "spec-ff retires the interface's count" `Quick
      test_specff_retires_interface_count;
    Alcotest.test_case "spec-ff rejects an empty window" `Quick test_specff_bad_window;
    Alcotest.test_case "sampling" `Quick test_sampling;
    Alcotest.test_case "functional-first tiny16 fall-through" `Quick
      test_funcfirst_tiny16_fallthrough;
    Alcotest.test_case "instr mix tiny16 taken count" `Quick
      test_mix_tiny16_taken_count;
  ]
  @ golden_cases @ trampoline_golden_cases
