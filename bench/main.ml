(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Penry, ISPASS 2011).

     dune exec bench/main.exe              -- everything, paper-vs-measured
     dune exec bench/main.exe -- --quick   -- smaller budgets
     dune exec bench/main.exe -- table2    -- a single experiment
     dune exec bench/main.exe -- --bechamel -- Bechamel micro-benchmarks

   Experiments: table1 table2 table3 fig1 fig24 ablation sampling
   inject fuzz overhead profiler supervision workload validate.
   [--gate-profiler]
   exits nonzero when the profiler section's overhead exceeds its budget.
   Absolute numbers are host- and substrate-dependent; the reproduction
   targets are the *shapes*: which interface wins, by roughly what factor,
   and where the costs come from. See EXPERIMENTS.md.

   Alongside the text tables, a machine-readable BENCH_results.json is
   written to the working directory: per-interface MIPS and ns/instr
   (table2), the observability overhead measurements, and a full counter
   snapshot per interface. *)

let quick = ref false
let only : string list ref = ref []
let use_bechamel = ref false

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive an interface the way its semantic level intends: block calls,
   single calls, or seven step calls per instruction. *)
let drive (iface : Specsim.Iface.t) budget =
  let n_eps = Specsim.Iface.n_entrypoints iface in
  if n_eps = 1 then Specsim.Iface.run_n iface budget
  else begin
    let st = iface.st in
    let start = st.instr_count in
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    let executed () = Int64.to_int (Int64.sub st.instr_count start) in
    while (not st.halted) && executed () < budget do
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      let k = ref 0 in
      while !k < n_eps && not st.halted do
        iface.step di !k;
        incr k
      done;
      if not st.halted then iface.retire di
    done;
    executed ()
  end

(* Measured MIPS of one (target, buildset, kernel) after warmup: best of
   [reps] runs (the machine may be shared; peak throughput is the stable
   statistic). *)
let measure_mips ?absint (t : Workload.target) ~buildset
    (k : Vir.Kernels.sized) =
  let warm = if !quick then 5_000 else 20_000 in
  let budget = if !quick then 80_000 else 150_000 in
  let reps = if !quick then 2 else 4 in
  let best = ref 0. in
  for _ = 1 to reps do
    let l = Workload.load ?absint t ~buildset k.program in
    ignore (drive l.iface warm);
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let n = drive l.iface budget in
    let dt = Unix.gettimeofday () -. t0 in
    let mips = if n = 0 then 0. else float_of_int n /. dt /. 1e6 in
    if mips > !best then best := mips
  done;
  !best

(* Machine-readable results, accumulated per experiment and written as
   one JSON document at the end of the run. *)
let json_sections : (string * Obs.Export.json) list ref = ref []

let add_json name j =
  json_sections := (name, j) :: List.remove_assoc name !json_sections

(* A partial run (e.g. `bench absint`) must not clobber the sections an
   earlier full run wrote: merge over whatever is already on disk. *)
let write_json_results () =
  if !json_sections <> [] then begin
    let existing =
      match
        let ic = open_in "BENCH_results.json" in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Obs.Export.parse_opt s
      with
      | Some (Obs.Export.Obj kvs) -> kvs
      | Some _ | None -> []
      | exception Sys_error _ -> []
    in
    let fresh = List.rev !json_sections in
    let kept =
      List.filter (fun (name, _) -> not (List.mem_assoc name fresh)) existing
    in
    let merged = kept @ fresh in
    let oc = open_out "BENCH_results.json" in
    Obs.Export.to_channel oc (Obs.Export.Obj merged);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote BENCH_results.json (%d sections, %d updated)\n"
      (List.length merged) (List.length fresh)
  end

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log (max x 1e-9)) 0. xs
      /. float_of_int (List.length xs))

let kernels () =
  if !quick then
    [ List.hd Vir.Kernels.bench_suite; List.nth Vir.Kernels.bench_suite 4 ]
  else Vir.Kernels.bench_suite

(* Calibrated host "simple operation" rate (ops per second), used to
   express costs in host-op equivalents for Table III. *)
let host_ops_per_sec =
  lazy
    (let n = 100_000_000 in
     let acc = ref 0 in
     let t0 = Unix.gettimeofday () in
     for i = 1 to n do
       acc := !acc + (i lxor (!acc lsl 1))
     done;
     let dt = Unix.gettimeofday () -. t0 in
     ignore (Sys.opaque_identity !acc);
     (* the loop body is ~4 machine ops *)
     float_of_int (4 * n) /. dt)

(* ------------------------------------------------------------------ *)
(* Table I: instruction-set characteristics                             *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  (* ISA lines, OS lines, buildset lines, lines/buildset, #instrs *)
  [
    ("alpha", (1656, 317, 308, 13., 200));
    ("arm", (2047, 225, 308, 13., 240));
    ("ppc", (3805, 182, 327, 14., 327));
  ]

let table1 () =
  print_endline "=== Table I: instruction-set characteristics ===";
  print_endline
    "                      ----------- measured -----------    ------- paper -------";
  Printf.printf "%-6s %9s %8s %9s %8s %7s | %6s %5s %7s %7s\n" "ISA" "ISA-lines"
    "OS-lines" "bs-lines" "lines/bs" "instrs" "ISA" "OS" "per-bs" "instrs";
  List.iter
    (fun (t : Workload.target) ->
      let spec = Lazy.force t.spec in
      let s = spec.line_stats in
      let paper =
        (* riscv post-dates the paper's evaluation: no reference row *)
        match List.assoc_opt t.tname paper_table1 with
        | Some (p_isa, p_os, _, p_per, p_n) ->
          Printf.sprintf "%6d %5d %7.0f %7d" p_isa p_os p_per p_n
        | None -> Printf.sprintf "%6s %5s %7s %7s" "-" "-" "-" "-"
      in
      Printf.printf "%-6s %9d %8d %9d %8.1f %7d | %s\n" t.tname s.isa_lines
        s.os_lines s.buildset_lines
        (Lis.Count.lines_per_buildset s)
        (Array.length spec.instrs)
        paper)
    Workload.targets;
  print_endline
    "(our subsets are smaller than the full ISAs, but the structure matches:\n\
    \ an OS-support file of a few dozen lines and ~6-12 lines per buildset)\n"

(* ------------------------------------------------------------------ *)
(* Table II: simulation speed per interface                             *)
(* ------------------------------------------------------------------ *)

(* Paper values where the source table is legible; None = garbled in our
   copy of the text (see EXPERIMENTS.md). *)
let paper_table2 : (string * float option array) list =
  [
    ("block_min", [| Some 37.8; Some 26.8; Some 19.3 |]);
    ("block_decode", [| None; None; None |]);
    ("block_decode_spec", [| None; None; None |]);
    ("block_all", [| None; None; None |]);
    ("block_all_spec", [| None; None; None |]);
    ("one_min", [| None; None; None |]);
    ("one_decode", [| None; None; None |]);
    ("one_decode_spec", [| None; None; None |]);
    ("one_all", [| Some 7.47; Some 6.19; Some 5.61 |]);
    ("one_all_spec", [| Some 6.92; Some 5.53; Some 5.15 |]);
    ("step_all", [| Some 2.79; Some 2.54; Some 2.34 |]);
    ("step_all_spec", [| Some 2.62; Some 2.35; Some 2.20 |]);
  ]

let table2_results : (string * float array) list ref = ref []

let table2 () =
  print_endline "=== Table II: simulation speed (MIPS) ===";
  print_endline
    "geometric mean over the benchmark kernels; paper values in parentheses\n\
     where the source is legible";
  Printf.printf "%-20s" "interface";
  List.iter
    (fun (t : Workload.target) -> Printf.printf " %17s" t.tname)
    Workload.targets;
  print_newline ();
  let interfaces = List.map fst paper_table2 in
  let results =
    List.map
      (fun bs ->
        let row =
          Array.of_list
            (List.map
               (fun t ->
                 geomean
                   (List.map (fun k -> measure_mips t ~buildset:bs k) (kernels ())))
               Workload.targets)
        in
        (bs, row))
      interfaces
  in
  table2_results := results;
  add_json "table2"
    (Obs.Export.Obj
       (List.map
          (fun (bs, row) ->
            ( bs,
              Obs.Export.Obj
                (List.mapi
                   (fun i (t : Workload.target) ->
                     let mips = row.(i) in
                     ( t.tname,
                       Obs.Export.Obj
                         [
                           ("mips", Obs.Export.Float mips);
                           ( "ns_per_instr",
                             Obs.Export.Float
                               (if mips <= 0. then 0. else 1e3 /. mips) );
                         ] ))
                   Workload.targets) ))
          results));
  List.iter
    (fun (bs, row) ->
      let paper = List.assoc bs paper_table2 in
      Printf.printf "%-20s" bs;
      Array.iteri
        (fun i v ->
          (* the paper's rows stop at ppc; riscv has no reference cell *)
          let p =
            match if i < Array.length paper then paper.(i) else None with
            | Some x -> Printf.sprintf "(%5.2f)" x
            | None -> "(  -  )"
          in
          Printf.printf " %8.2f %s" v p)
        row;
      print_newline ())
    results;
  (* headline ratio *)
  let get name i = (List.assoc name results).(i) in
  print_string "\nlowest/highest-detail speed ratio:";
  List.iteri
    (fun i (t : Workload.target) ->
      Printf.printf "%s %s %.1fx"
        (if i = 0 then "" else ",")
        t.tname
        (get "block_min" i /. get "step_all_spec" i))
    Workload.targets;
  print_endline " (paper: up to 14.4x)\n"

(* ------------------------------------------------------------------ *)
(* Table III: costs of detail (host-op equivalents)                     *)
(* ------------------------------------------------------------------ *)

let paper_table3 =
  [
    ("base cost (One/Min/No)", [| 103.98; 134.95; 143.61 |]);
    ("incremental: decode information", [| 46.17; 53.77; 63.10 |]);
    ("incremental: full information", [| 150.51; 268.48; 221.5 |]);
    ("incremental: block-call", [| -52.28; -49.73; -49.87 |]);
    ("incremental: multiple calls", [| 237.7; 222.7; 213.1 |]);
    ("incremental: speculation", [| 14.75; 32.66; 27.32 |]);
  ]

let table3 () =
  print_endline
    "=== Table III: costs of detail (host ops per simulated instruction) ===";
  if !table2_results = [] then table2 ();
  let results = !table2_results in
  let hz = Lazy.force host_ops_per_sec in
  Printf.printf "host calibration: %.2f Gops/s\n" (hz /. 1e9);
  let cost bs i =
    let mips = (List.assoc bs results).(i) in
    if mips <= 0. then nan else hz /. (mips *. 1e6)
  in
  let rows =
    [
      ("base cost (One/Min/No)", fun i -> cost "one_min" i);
      ( "incremental: decode information",
        fun i -> cost "one_decode" i -. cost "one_min" i );
      ( "incremental: full information",
        fun i -> cost "one_all" i -. cost "one_min" i );
      ("incremental: block-call", fun i -> cost "block_min" i -. cost "one_min" i);
      ( "incremental: multiple calls",
        fun i -> cost "step_all" i -. cost "one_all" i );
      ( "incremental: speculation",
        fun i ->
          (cost "one_all_spec" i -. cost "one_all" i
          +. (cost "one_decode_spec" i -. cost "one_decode" i)
          +. (cost "block_all_spec" i -. cost "block_all" i))
          /. 3. );
    ]
  in
  let measured_hdr =
    String.concat "/"
      (List.map (fun (t : Workload.target) -> t.tname) Workload.targets)
  in
  Printf.printf "%-34s %37s | %s\n" ""
    ("measured (" ^ measured_hdr ^ ")")
    "paper (alpha/arm/ppc)";
  List.iter
    (fun (name, f) ->
      let paper = List.assoc name paper_table3 in
      Printf.printf "%-34s" name;
      List.iteri
        (fun i (_ : Workload.target) -> Printf.printf " %8.1f" (f i))
        Workload.targets;
      Printf.printf " | %7.2f %7.2f %7.2f\n" paper.(0) paper.(1) paper.(2))
    rows;
  print_endline
    "(signs and ordering are the reproduction target: block-calls pay back,\n\
    \ extra information and extra calls cost)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: the five decoupled organizations, demonstrated             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  print_endline
    "=== Figure 1: decoupled simulator organizations (demonstrators) ===";
  let t = Workload.alpha in
  let kernel = List.nth Vir.Kernels.test_suite 3 in
  let budget = 10_000_000 in
  Printf.printf "%-28s %-12s %-10s %-8s %s\n" "organization" "interface" "instrs"
    "IPC" "notes";
  (* functional-first *)
  let l = Workload.load t ~buildset:"one_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f mispredict %.1f%%, d$ miss %.1f%%\n"
    "functional-first" "One/Decode" r.instructions r.ipc
    (100. *. r.mispredict_rate)
    (100. *. r.dcache_miss_rate);
  (* timing-directed *)
  let l = Workload.load t ~buildset:"step_all" kernel.program in
  let r = Timing.Directed.run l.iface ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f RAW stalls %Ld, flushes %Ld\n"
    "timing-directed" "Step/All" r.instructions r.ipc r.raw_stall_cycles
    r.branch_flushes;
  (* timing-first *)
  let lt = Workload.load t ~buildset:"one_min" kernel.program in
  let lc = Workload.load t ~buildset:"one_min" kernel.program in
  let count = ref 0 in
  let bug (st : Machine.State.t) _ =
    incr count;
    if !count mod 991 = 0 then
      Machine.Regfile.write st.regs ~cls:0 ~idx:2
        (Int64.add (Machine.Regfile.read st.regs ~cls:0 ~idx:2) 1L)
  in
  let r =
    Timing.Timingfirst.run ~bug ~timing:lt.iface ~checker:lc.iface ~budget ()
  in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f %Ld mismatches caught\n"
    "timing-first (buggy model)" "One/Min" r.instructions r.ipc r.mismatches;
  (* speculative functional-first *)
  let l = Workload.load t ~buildset:"one_decode_spec" kernel.program in
  let r = Timing.Specff.run l.iface ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f %Ld rollbacks\n"
    "speculative functional-first" "One/Dec/spec" r.instructions r.ipc
    r.rollbacks;
  (* sampling *)
  let spec = Lazy.force t.spec in
  let st = Lis.Spec.make_machine spec in
  let detailed = Specsim.Synth.make ~st spec "one_decode" in
  let fast = Specsim.Synth.make ~st spec "block_min" in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  let words = t.encode ~base:0x1000L kernel.program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:0x1000L;
  let r = Timing.Sampling.run ~detailed ~fast ~budget () in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f sampled %.1f%% of instructions\n\n"
    "sampling (two interfaces)" "Dec + B/Min" r.instructions r.estimated_ipc
    (100. *. r.sampled_fraction)

(* ------------------------------------------------------------------ *)
(* Figures 2-4: manual vs synthesized (ablation)                        *)
(* ------------------------------------------------------------------ *)

let demo_loop_program =
  (* long-running loop for the demo ISA: ~240k dynamic instructions *)
  Demo_isa.
    [
      addi ~ra:31 ~imm:30000 ~rc:1;
      addi ~ra:31 ~imm:0 ~rc:2;
      add ~ra:2 ~rb:1 ~rc:2;
      mul ~ra:2 ~rb:2 ~rc:3;
      stq ~ra:31 ~imm:0x100 ~rb:3;
      ldq ~ra:31 ~imm:0x100 ~rc:4;
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1;
      br ~off:(-7);
      addi ~ra:31 ~imm:0 ~rc:0;
      add ~ra:2 ~rb:31 ~rc:1;
      sys;
    ]

let run_demo_manual mode =
  let st = Manual.Manual_sim.make_machine () in
  let os = Machine.Os_emu.create () in
  let abi =
    { Machine.Os_emu.nr = (0, 0); args = [| (0, 1); (0, 2); (0, 3) |]; ret = (0, 0) }
  in
  Machine.Os_emu.install os abi st;
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    demo_loop_program;
  Machine.State.reset st ~pc:0x1000L;
  let t0 = Unix.gettimeofday () in
  (match mode with
  | `Full ->
    let di = Manual.Manual_sim.Fig2.create () in
    while not st.halted do
      Manual.Manual_sim.do_in_one st di
    done
  | `Min ->
    let di = Manual.Manual_sim.min_di () in
    while not st.halted do
      Manual.Manual_sim.do_in_one_less_info st di
    done);
  let dt = Unix.gettimeofday () -. t0 in
  (Int64.to_float st.instr_count /. dt /. 1e6, st.instr_count)

let run_demo_synth buildset =
  let spec = Lazy.force Demo_isa.spec in
  let iface = Specsim.Synth.make spec buildset in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  Demo_isa.load_program st ~base:0x1000L demo_loop_program;
  let t0 = Unix.gettimeofday () in
  let n = Specsim.Iface.run_n iface max_int in
  let dt = Unix.gettimeofday () -. t0 in
  (float_of_int n /. dt /. 1e6, Int64.of_int n)

let fig24 () =
  print_endline
    "=== Figures 2-4: manual single-specification structuring vs ADL synthesis ===";
  let m_full, n = run_demo_manual `Full in
  let m_min, _ = run_demo_manual `Min in
  let s_full, _ = run_demo_synth "one_all" in
  let s_min, _ = run_demo_synth "one_min" in
  Printf.printf "demo ISA, %Ld dynamic instructions:\n" n;
  Printf.printf "  manual Fig.3 (one call, all info)     %7.2f MIPS\n" m_full;
  Printf.printf "  manual Fig.4 (one call, less info)    %7.2f MIPS\n" m_min;
  Printf.printf "  synthesized one_all                   %7.2f MIPS\n" s_full;
  Printf.printf "  synthesized one_min                   %7.2f MIPS\n" s_min;
  Printf.printf
    "  info-detail speedup: manual %.2fx, synthesized %.2fx\n\
     (the synthesizer derives Fig.4's locals automatically; by hand it is\n\
    \ a per-instruction-step rewrite — the paper's §IV-A tedium)\n\n"
    (m_min /. m_full) (s_min /. s_full)

(* ------------------------------------------------------------------ *)
(* Ablation: interpreted vs compiled execution (paper footnote 5)       *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline
    "=== Ablation: interpreted vs closure-compiled execution (footnote 5) ===";
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 4 in
  let budget = if !quick then 60_000 else 200_000 in
  let speed backend buildset =
    let l = Workload.load ~backend t ~buildset k.program in
    ignore (Specsim.Iface.run_n l.iface 20_000);
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let n = Specsim.Iface.run_n l.iface budget in
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int n /. dt /. 1e6
  in
  let compiled = speed Specsim.Synth.Compiled "one_min" in
  let interpreted = speed Specsim.Synth.Interpreted "one_min" in
  Printf.printf
    "One/Min/No on alpha: compiled %.2f MIPS, interpreted %.2f MIPS (%.2fx)\n"
    compiled interpreted (compiled /. interpreted);
  Printf.printf
    "(paper: 103.98 vs 205.5 host instructions per instruction, 1.98x)\n";
  (* The paper's future-work question: is specialization still worth it
     when the interface is highly detailed? *)
  let c_hi = speed Specsim.Synth.Compiled "one_all" in
  let i_hi = speed Specsim.Synth.Interpreted "one_all" in
  let c_blk = speed Specsim.Synth.Compiled "block_all" in
  let i_blk = speed Specsim.Synth.Interpreted "block_all" in
  Printf.printf
    "at high detail (One/All): compiled %.2f vs interpreted %.2f MIPS (%.2fx)\n"
    c_hi i_hi (c_hi /. i_hi);
  Printf.printf
    "at Block/All: compiled %.2f vs interpreted %.2f MIPS (%.2fx)\n" c_blk
    i_blk (c_blk /. i_blk);
  Printf.printf
    "(the paper asks whether translation pays off at high detail — here the\n\
    \ advantage persists at every level and is largest for block interfaces,\n\
    \ where specialization also removes per-instruction fetch and decode)\n\n"

(* ------------------------------------------------------------------ *)
(* Sampling accuracy: how well does the two-interface design estimate   *)
(* the detailed model's IPC?                                            *)
(* ------------------------------------------------------------------ *)

let sampling_accuracy () =
  print_endline
    "=== Sampling accuracy: detailed-interval IPC estimate vs full run ===";
  let t = Workload.alpha in
  let kernel = List.nth Vir.Kernels.bench_suite 3 (* sort *) in
  (* ground truth: every instruction through the detailed model *)
  let l = Workload.load t ~buildset:"one_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let truth = Timing.Funcfirst.run ff ~budget:max_int in
  Printf.printf "true IPC (all %Ld instructions detailed): %.4f\n"
    truth.instructions truth.ipc;
  List.iter
    (fun (measure, fastforward) ->
      let spec = Lazy.force t.spec in
      let st = Lis.Spec.make_machine spec in
      let detailed = Specsim.Synth.make ~st spec "one_decode" in
      let fast = Specsim.Synth.make ~st spec "block_min" in
      let os = Machine.Os_emu.create () in
      (match spec.abi with
      | Some abi -> Machine.Os_emu.install os abi st
      | None -> ());
      let words = t.encode ~base:0x1000L kernel.program in
      List.iteri
        (fun i w ->
          Machine.Memory.write st.mem
            ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
            ~width:4 w)
        words;
      Machine.State.reset st ~pc:0x1000L;
      let t0 = Unix.gettimeofday () in
      let r =
        Timing.Sampling.run
          ~config:
            { Timing.Sampling.measure; fastforward;
              timing_model = Timing.Funcfirst.default_config }
          ~detailed ~fast ~budget:max_int ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf
        "sampled %5.1f%%: estimated IPC %.4f (error %+.1f%%), wall %.2f MIPS\n"
        (100. *. r.sampled_fraction) r.estimated_ipc
        (100. *. (r.estimated_ipc -. truth.ipc) /. truth.ipc)
        (Int64.to_float r.instructions /. dt /. 1e6))
    [ (2_000, 8_000); (1_000, 19_000); (500, 49_500) ];
  print_endline
    "(the low-detail fast-forward interface buys wall-clock speed at a\n\
    \ small, quantified estimation error — the paper's sampling use case)\n"

(* ------------------------------------------------------------------ *)
(* Fault injection: detection coverage/latency vs rate, checker cost    *)
(* ------------------------------------------------------------------ *)

let inject () =
  print_endline
    "=== Fault injection: timing-first checker as a divergence detector ===";
  let budget = if !quick then 100_000 else 300_000 in
  let spec_trials = if !quick then 4 else 16 in
  Printf.printf "%-8s %10s %10s %10s %9s %9s %9s\n" "rate" "injected"
    "detected" "coverage" "latency" "repairs" "restores";
  List.iter
    (fun rate ->
      let cfg =
        { Inject.Campaign.default_config with rate; budget; spec_trials }
      in
      let reports =
        Inject.Campaign.run ~isas:[ "alpha"; "arm"; "ppc"; "riscv" ] cfg
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
      let arch = sum (fun r -> r.Inject.Campaign.r_architectural) in
      let det = sum (fun r -> r.Inject.Campaign.r_detected) in
      let lat =
        List.fold_left
          (fun a (r : Inject.Campaign.report) -> Int64.add a r.r_latency_sum)
          0L reports
      in
      Printf.printf "%-8g %10d %10d %9.1f%% %9.2f %9d %9d\n" rate arch det
        (if arch = 0 then 100.0 else 100. *. float_of_int det /. float_of_int arch)
        (if det = 0 then 0.0 else Int64.to_float lat /. float_of_int det)
        (sum (fun r -> r.Inject.Campaign.r_repairs))
        (sum (fun r -> r.Inject.Campaign.r_restores)))
    [ 1e-5; 1e-4; 1e-3; 5e-3 ];
  (* what the hardened checker costs: timing-first MIPS with no injection,
     as a function of how often memory digests are compared *)
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 3 in
  print_endline "\nchecker overhead (no faults injected, alpha/sort):";
  List.iter
    (fun interval ->
      let lt = Workload.load t ~buildset:"one_min" k.program in
      let lc = Workload.load t ~buildset:"one_min" k.program in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let r =
        Timing.Timingfirst.run ~mem_check_interval:interval ~timing:lt.iface
          ~checker:lc.iface ~budget ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf
        "  memory digest every %6d instrs: %6.2f MIPS (%Ld mismatches)\n"
        interval
        (Int64.to_float r.instructions /. dt /. 1e6)
        r.mismatches)
    [ 16; 64; 1024; max_int ];
  print_endline
    "(coverage stays high as rates rise; repairs dominate at low rates and\n\
    \ checkpoint restores appear once divergence storms set in)\n"

(* ------------------------------------------------------------------ *)
(* Observability overhead: zero when disabled, measured when enabled    *)
(* ------------------------------------------------------------------ *)

(* The zero-overhead claim is structural — with obs omitted,
   Specsim.Synth.make hands out exactly the closures it built before the
   observability layer existed (no flag tests, no indirection). This
   experiment backs the claim empirically: the uninstrumented interface
   is measured twice, and the spread between the two measurements (pure
   run-to-run noise) is the honest bound on what "instrumented off"
   costs. The instrumented build is then measured for comparison, and
   every interface's counter snapshot goes into BENCH_results.json. *)
let overhead () =
  print_endline
    "=== Observability overhead: instrumented-off vs instrumented-on ===";
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 4 (* hash_loop *) in
  (* The comparison chases a <=2% effect on a possibly-shared host.
     Coarse back-to-back runs cannot resolve that here (load spikes from
     co-tenants swing whole runs by more than 2%), so the three sides —
     baseline A, baseline B (identical machine code to A), and the
     instrumented build — advance in small timed chunks with rotating
     order inside one loop. Every side samples the same noise
     environment; aggregate throughput per side is then comparable at
     well under the 2% budget. The A/B pair executes the same closures,
     so their residual spread is the honest noise floor. *)
  let warm = if !quick then 5_000 else 20_000 in
  let rows =
    List.map
      (fun (bs, mult) ->
        let chunk = (if !quick then 10_000 else 20_000) * mult in
        let rounds = if !quick then 60 else 120 in
        let side ?obs () =
          let fresh () = Workload.load ?obs t ~buildset:bs k.program in
          let l : Workload.loaded ref = ref (fresh ()) in
          ignore (drive !l.iface warm);
          let chunks = ref [] in
          let run () =
            if !l.iface.st.halted then l := fresh ();
            (* GC work happens outside the timed window *)
            Gc.minor ();
            let t0 = Unix.gettimeofday () in
            let c = drive !l.iface chunk in
            let dt = Unix.gettimeofday () -. t0 in
            if c > 0 then chunks := (c, dt) :: !chunks
          in
          (* trimmed aggregate over the middle chunks: the slow tail
             carries major GC slices and co-tenant spikes, the fast tail
             lucky turbo windows; both sides are trimmed identically so
             they stay comparable *)
          let mips () =
            let sorted =
              List.sort
                (fun (na, da) (nb, db) ->
                  Float.compare (da /. float_of_int na) (db /. float_of_int nb))
                !chunks
            in
            let total = List.length sorted in
            let lo = total / 10 and hi = total - (total / 5) in
            let kept = List.filteri (fun i _ -> i >= lo && i < hi) sorted in
            let n = List.fold_left (fun a (c, _) -> a + c) 0 kept in
            let dt = List.fold_left (fun a (_, d) -> a +. d) 0. kept in
            if dt <= 0. then 0. else float_of_int n /. dt /. 1e6
          in
          (run, mips)
        in
        let run_a, mips_a = side () in
        let run_b, mips_b = side () in
        let run_o, mips_o = side ~obs:(Obs.create ()) () in
        Gc.full_major ();
        for i = 1 to rounds do
          match i mod 3 with
          | 1 ->
            run_a ();
            run_b ();
            run_o ()
          | 2 ->
            run_b ();
            run_o ();
            run_a ()
          | _ ->
            run_o ();
            run_a ();
            run_b ()
        done;
        let off_a = mips_a () in
        let off_b = mips_b () in
        let on_ = mips_o () in
        let spread =
          100. *. Float.abs (off_a -. off_b) /. Float.max off_a off_b
        in
        Printf.printf
          "  %-12s off %7.2f / %7.2f MIPS (spread %4.1f%%)   on %7.2f MIPS \
           (%.2fx when enabled)\n"
          bs off_a off_b spread on_
          (if on_ <= 0. then 0. else Float.max off_a off_b /. on_);
        (bs, off_a, off_b, on_, spread))
      [ ("block_min", 8); ("one_all", 1); ("step_all", 1) ]
  in
  let worst =
    List.fold_left (fun a (_, _, _, _, s) -> Float.max a s) 0. rows
  in
  Printf.printf
    "instrumented-off is the seed fast path (obs compiled out at synthesis \
     time);\nmeasured spread %.1f%% %s the 2%% zero-overhead budget\n\n"
    worst
    (if worst <= 2.0 then "is within" else "EXCEEDS");
  add_json "overhead"
    (Obs.Export.Obj
       (List.map
          (fun (bs, off_a, off_b, on_, spread) ->
            ( bs,
              Obs.Export.Obj
                [
                  ("mips_off", Obs.Export.Float (Float.max off_a off_b));
                  ("mips_off_remeasured", Obs.Export.Float (Float.min off_a off_b));
                  ("off_spread_pct", Obs.Export.Float spread);
                  ("mips_on", Obs.Export.Float on_);
                ] ))
          rows));
  (* one counter snapshot per interface, for the machine-readable output *)
  let snap_budget = if !quick then 20_000 else 60_000 in
  add_json "counters"
    (Obs.Export.Obj
       (List.map
          (fun (bs, _) ->
            let o = Obs.create () in
            let l = Workload.load ~obs:o t ~buildset:bs k.program in
            ignore (drive l.iface snap_budget);
            (bs, Obs.Export.json_of_snapshot (Obs.snapshot o)))
          paper_table2))

(* ------------------------------------------------------------------ *)
(* Profiler overhead: hot-region attribution off vs on                  *)
(* ------------------------------------------------------------------ *)

(* Same rotating-chunk methodology as the observability experiment, but
   the instrumented side is a profile-only context (Obs.profile_only):
   synthesis keeps the seed closures — including the chained block fast
   path — and adds only the profiler's cached-region compare-and-add.
   block_min exercises the per-block note inside the chained dispatch
   loop (one note per basic block); step_all exercises the
   per-retirement note (one note per instruction, the worst case). The
   budget is the same 2%: profiling has to be cheap enough to leave on
   while hunting hot regions. [--gate-profiler] turns the budget into an
   exit status for CI, with the A/B noise floor as the tolerance when
   the host is too noisy to resolve 2%. *)
let gate_profiler = ref false
let profiler_worst = ref 0.
let profiler_floor = ref 0.

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let profiler () =
  print_endline "=== Profiler overhead: hot-region attribution off vs on ===";
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 4 (* hash_loop *) in
  let warm = if !quick then 5_000 else 20_000 in
  let rows =
    List.map
      (fun (bs, mult) ->
        let chunk = (if !quick then 10_000 else 20_000) * mult in
        let rounds = if !quick then 60 else 120 in
        (* one side = one prebuilt simulator; [run] times one chunk and
           returns its throughput (instructions per second) *)
        let side ?obs () =
          let fresh () = Workload.load ?obs t ~buildset:bs k.program in
          let l : Workload.loaded ref = ref (fresh ()) in
          ignore (drive !l.iface warm);
          fun () ->
            if !l.iface.st.halted then l := fresh ();
            (* GC work happens outside the timed window *)
            Gc.minor ();
            let t0 = Unix.gettimeofday () in
            let c = drive !l.iface chunk in
            let dt = Unix.gettimeofday () -. t0 in
            if c > 0 && dt > 0. then float_of_int c /. dt else 0.
        in
        let run_a = side () in
        let run_b = side () in
        let run_p = side ~obs:(Obs.profile_only ()) () in
        Gc.full_major ();
        (* The comparison chases a <=2% effect on a possibly-shared host.
           Each round times one chunk per side back-to-back in rotating
           order, and the statistic is the MEDIAN over rounds of the
           per-round paired ratio — host load drifting between rounds
           cancels within each round, and co-tenant spikes land in the
           tails the median ignores. The A/B pair runs identical machine
           code, so the median of its per-round spread is the honest
           noise floor on the same estimator. *)
        let per_round = ref [] in
        for i = 1 to rounds do
          let a = ref 0. and b = ref 0. and p = ref 0. in
          (match i mod 3 with
          | 1 ->
            a := run_a ();
            b := run_b ();
            p := run_p ()
          | 2 ->
            b := run_b ();
            p := run_p ();
            a := run_a ()
          | _ ->
            p := run_p ();
            a := run_a ();
            b := run_b ());
          if !a > 0. && !b > 0. && !p > 0. then
            per_round := (!a, !b, !p) :: !per_round
        done;
        let rs = !per_round in
        let off_mips =
          median (List.map (fun (a, b, _) -> (a +. b) /. 2. /. 1e6) rs)
        in
        let on_mips = median (List.map (fun (_, _, p) -> p /. 1e6) rs) in
        let overhead_pct =
          median
            (List.map (fun (a, b, p) -> 100. *. (((a +. b) /. 2. /. p) -. 1.)) rs)
        in
        let spread =
          median
            (List.map
               (fun (a, b, _) -> 100. *. Float.abs (a -. b) /. Float.max a b)
               rs)
        in
        Printf.printf
          "  %-12s off %7.2f MIPS (A/B spread %4.1f%%)   profiled %7.2f MIPS \
           (overhead %4.1f%%)\n"
          bs off_mips spread on_mips overhead_pct;
        (bs, off_mips, on_mips, spread, overhead_pct))
      [ ("block_min", 8); ("step_all", 1) ]
  in
  let worst_over =
    List.fold_left (fun a (_, _, _, _, o) -> Float.max a o) 0. rows
  in
  let worst_spread =
    List.fold_left (fun a (_, _, _, s, _) -> Float.max a s) 0. rows
  in
  profiler_worst := worst_over;
  profiler_floor := worst_spread;
  Printf.printf
    "worst profiler overhead %.1f%% (A/B noise floor %.1f%%) %s the 2%% budget\n"
    worst_over worst_spread
    (if worst_over <= Float.max 2.0 worst_spread then "is within" else "EXCEEDS");
  add_json "profiler"
    (Obs.Export.Obj
       (List.map
          (fun (bs, off_mips, on_mips, spread, overhead_pct) ->
            ( bs,
              Obs.Export.Obj
                [
                  ("mips_off", Obs.Export.Float off_mips);
                  ("mips_on", Obs.Export.Float on_mips);
                  ("off_spread_pct", Obs.Export.Float spread);
                  ("overhead_pct", Obs.Export.Float overhead_pct);
                ] ))
          rows));
  (* sanity: the profiler finds the kernel's hot loop *)
  let prof = Obs.Prof.create () in
  let l =
    Workload.load ~obs:(Obs.profile_only ~prof ()) t ~buildset:"one_all"
      k.program
  in
  ignore (drive l.iface (if !quick then 50_000 else 200_000));
  (match Obs.Prof.report ~top:1 prof with
  | r :: _ ->
    Printf.printf
      "hot region (one_all, %s): 0x%Lx-0x%Lx with %.1f%% of instructions\n\n"
      k.kname r.Obs.Prof.rg_lo r.Obs.Prof.rg_hi (100. *. r.Obs.Prof.rg_share)
  | [] -> print_newline ())

(* ------------------------------------------------------------------ *)
(* Fuzz throughput: cost of the 12-way conformance oracle               *)
(* ------------------------------------------------------------------ *)

(* One oracle execution = one candidate/reference lockstep run of a
   generated program with periodic digest comparison. The rate bounds
   how large a nightly campaign budget is affordable, and the
   generator-only rate shows the oracle (not generation) dominates. *)
let fuzz_bench () =
  print_endline
    "=== Fuzz throughput: spec-derived generator and 12-way oracle ===";
  let budget = if !quick then 300 else 1_500 in
  Printf.printf "%-6s %10s %10s %12s %12s %12s\n" "isa" "programs" "execs"
    "execs/s" "programs/s" "gen-only/s";
  let sections =
    List.map
      (fun isa ->
        (* generation alone: the same programs the campaign would test *)
        let spec = Fuzz.Driver.spec_of_isa isa in
        let cx = Fuzz.Gen.make_ctx ~isa spec in
        let gen_n = if !quick then 2_000 else 10_000 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to gen_n - 1 do
          ignore (Fuzz.Gen.generate cx ~seed:42L ~index:i)
        done;
        let gen_rate = float_of_int gen_n /. (Unix.gettimeofday () -. t0) in
        (* full campaign: generate + run the 12-way oracle (seed 42 is a
           verified-healthy seed, so the budget is spent end to end) *)
        let t0 = Unix.gettimeofday () in
        let o = Fuzz.Driver.hunt ~isa ~seed:42L ~budget () in
        let dt = Unix.gettimeofday () -. t0 in
        assert (o.Fuzz.Driver.o_found = None);
        let execs_s = float_of_int o.Fuzz.Driver.o_execs /. dt in
        let progs_s = float_of_int o.Fuzz.Driver.o_programs /. dt in
        Printf.printf "%-6s %10d %10d %12.0f %12.1f %12.0f\n" isa
          o.Fuzz.Driver.o_programs o.Fuzz.Driver.o_execs execs_s progs_s
          gen_rate;
        ( isa,
          Obs.Export.Obj
            [
              ("oracle_execs_per_sec", Obs.Export.Float execs_s);
              ("programs_per_sec", Obs.Export.Float progs_s);
              ("generator_only_per_sec", Obs.Export.Float gen_rate);
            ] ))
      Fuzz.Driver.all_isas
  in
  add_json "fuzz" (Obs.Export.Obj sections);
  print_endline
    "(an oracle execution runs candidate and reference in lockstep with\n\
    \ digest checks every 16 instructions; generation is noise by\n\
    \ comparison, so campaign budgets are oracle-bound — see the nightly\n\
    \ workflow's 20k-execution budget)\n"

(* ------------------------------------------------------------------ *)
(* Fleet scaling: oracle execs/s across domain counts                  *)
(* ------------------------------------------------------------------ *)

(* How the parallel campaign driver scales with --jobs. Honest numbers:
   [host_cores] is recorded alongside, and on a 1-core host every level
   above 1 is expected to sit at ~1x (the fleet is then purely a
   correctness construct). The digest check at the end runs the same
   seeded-defect campaign at jobs 1 and jobs 4 and compares the
   quarantined reproducers byte for byte. *)
let jobs_override : int option ref = ref None

let fleet_bench () =
  print_endline "=== Fleet scaling: parallel campaign driver ===";
  let host_cores = Domain.recommended_domain_count () in
  let levels =
    let base = match !jobs_override with Some n -> [ 1; n ] | None -> [ 1; 2; 4; host_cores ] in
    List.sort_uniq compare (List.filter (fun n -> n >= 1) base)
  in
  Printf.printf "host cores: %d; jobs levels: %s\n" host_cores
    (String.concat " " (List.map string_of_int levels));
  let budget = if !quick then 200 else 600 in
  let hunt_rate ~isa ~jobs =
    Fleet.with_pool ~jobs (fun fleet ->
        let t0 = Unix.gettimeofday () in
        let o = Fuzz.Driver.hunt ~isa ~seed:42L ~budget ~fleet () in
        let dt = Unix.gettimeofday () -. t0 in
        assert (o.Fuzz.Driver.o_found = None);
        float_of_int o.Fuzz.Driver.o_execs /. dt)
  in
  Printf.printf "%-6s %s\n" "isa"
    (String.concat " "
       (List.map (fun n -> Printf.sprintf "%11s" (Printf.sprintf "jobs=%d/s" n)) levels));
  let isa_sections =
    List.map
      (fun isa ->
        let rates = List.map (fun jobs -> (jobs, hunt_rate ~isa ~jobs)) levels in
        Printf.printf "%-6s %s\n" isa
          (String.concat " "
             (List.map (fun (_, r) -> Printf.sprintf "%11.0f" r) rates));
        ( isa,
          Obs.Export.Obj
            (List.map
               (fun (jobs, r) ->
                 (Printf.sprintf "jobs_%d_execs_per_sec" jobs, Obs.Export.Float r))
               rates) ))
      [ "tiny"; "alpha"; "ppc" ]
  in
  (* scaling efficiency at the widest level, averaged over ISAs — the
     number the CI summary quotes *)
  let widest = List.fold_left max 1 levels in
  let eff =
    let per_isa =
      List.filter_map
        (fun (_, s) ->
          match s with
          | Obs.Export.Obj kvs -> (
            match
              ( List.assoc_opt "jobs_1_execs_per_sec" kvs,
                List.assoc_opt
                  (Printf.sprintf "jobs_%d_execs_per_sec" widest)
                  kvs )
            with
            | Some (Obs.Export.Float a), Some (Obs.Export.Float b) when a > 0. ->
              Some (b /. a)
            | _ -> None)
          | _ -> None)
        isa_sections
    in
    match per_isa with
    | [] -> 1.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf
    "fleet scaling: %.2fx at %d jobs on a %d-core host (%.0f%% efficiency)\n"
    eff widest host_cores
    (100. *. eff /. float_of_int (min widest host_cores));
  if widest > host_cores then
    print_endline
      "(jobs exceed host cores: domains time-slice one core and every minor\n\
      \ GC is a stop-the-world handshake across all of them, so levels above\n\
      \ the core count slow down rather than break even — --jobs defaults to\n\
      \ the core count for exactly this reason)";
  (* parallel-vs-sequential digest check: a seeded defect must
     quarantine byte-identical reproducers at every jobs level *)
  let quarantine_digest ~jobs =
    let tag = Printf.sprintf "fleet-bench-j%d-%d" jobs (Unix.getpid ()) in
    let dir = Filename.concat (Filename.get_temp_dir_name ()) tag in
    let journal = dir ^ ".jsonl" in
    if Sys.file_exists journal then Sys.remove journal;
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    let cfg =
      {
        Fuzz.Oracle.default_config with
        mutate = Some Specsim.Synth.Stride4;
        buildsets = [ "block_min" ];
      }
    in
    Fleet.with_pool ~jobs (fun fleet ->
        ignore
          (Fuzz.Campaign.run ~cfg ~fleet ~isa:"tiny" ~seed:0xBEEFL ~budget:10
             ~journal ~quarantine:dir ()));
    let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
    let d =
      Digest.string
        (String.concat "\x00"
           (List.map
              (fun f ->
                let ic = open_in_bin (Filename.concat dir f) in
                let s = really_input_string ic (in_channel_length ic) in
                close_in ic;
                f ^ "\x01" ^ s)
              files))
    in
    Sys.remove journal;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir;
    (List.length files, Digest.to_hex d)
  in
  let n1, d1 = quarantine_digest ~jobs:1 in
  let n4, d4 = quarantine_digest ~jobs:4 in
  let digest_match = n1 = n4 && String.equal d1 d4 in
  Printf.printf
    "digest check: jobs=1 %d reproducer(s) %s, jobs=4 %d reproducer(s) %s — %s\n\n"
    n1 d1 n4 d4
    (if digest_match then "MATCH" else "MISMATCH");
  add_json "fleet"
    (Obs.Export.Obj
       [
         ("host_cores", Obs.Export.Int (Int64.of_int host_cores));
         ( "scaling",
           Obs.Export.Obj
             [
               ("widest_jobs", Obs.Export.Int (Int64.of_int widest));
               ("speedup", Obs.Export.Float eff);
             ] );
         ("isas", Obs.Export.Obj isa_sections);
         ( "digest_check",
           Obs.Export.Obj
             [
               ("reproducers", Obs.Export.Int (Int64.of_int n1));
               ("jobs1", Obs.Export.Str d1);
               ("jobs4", Obs.Export.Str d4);
               ("match", Obs.Export.Bool digest_match);
             ] );
       ]);
  if not digest_match then begin
    print_endline "fleet digest check: FAIL";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Supervision overhead: the journaled campaign vs the bare oracle loop *)
(* ------------------------------------------------------------------ *)

(* The supervised campaign wraps every oracle execution in a case — a
   retry policy, a taxonomy classification, and one flushed journal
   line. On a healthy seed nothing retries and nothing quarantines, so
   the measured difference from the bare Driver.hunt loop is the pure
   supervision tax. Budget: within 2% of plain oracle execs/s. *)
let supervision () =
  print_endline
    "=== Supervision overhead: bare oracle loop vs journaled campaign ===";
  let budget = if !quick then 300 else 1_500 in
  let reps = if !quick then 2 else 3 in
  Printf.printf "%-6s %12s %12s %10s\n" "isa" "plain e/s" "super e/s"
    "overhead";
  let sections =
    List.map
      (fun isa ->
        (* best-of-reps on both sides: the oracle dominates, so peak
           throughput is the stable statistic (as in measure_mips) *)
        let best f =
          let b = ref 0. in
          for _ = 1 to reps do
            let r = f () in
            if r > !b then b := r
          done;
          !b
        in
        let plain =
          best (fun () ->
              let t0 = Unix.gettimeofday () in
              let o = Fuzz.Driver.hunt ~isa ~seed:42L ~budget () in
              let dt = Unix.gettimeofday () -. t0 in
              assert (o.Fuzz.Driver.o_found = None);
              float_of_int o.Fuzz.Driver.o_execs /. dt)
        in
        let journal = Filename.temp_file "lisim-bench-journal" ".jsonl" in
        let quarantine = Filename.temp_file "lisim-bench-quarantine" ".d" in
        Sys.remove quarantine;
        let supervised =
          best (fun () ->
              if Sys.file_exists journal then Sys.remove journal;
              let t0 = Unix.gettimeofday () in
              let p =
                Fuzz.Campaign.run ~isa ~seed:42L ~budget ~journal ~quarantine
                  ()
              in
              let dt = Unix.gettimeofday () -. t0 in
              assert (p.Fuzz.Campaign.p_quarantined = 0);
              float_of_int p.Fuzz.Campaign.p_execs /. dt)
        in
        if Sys.file_exists journal then Sys.remove journal;
        (try Unix.rmdir quarantine with Unix.Unix_error _ -> ());
        let overhead_pct = 100. *. (plain -. supervised) /. plain in
        Printf.printf "%-6s %12.0f %12.0f %9.1f%%\n" isa plain supervised
          overhead_pct;
        ( isa,
          Obs.Export.Obj
            [
              ("plain_execs_per_sec", Obs.Export.Float plain);
              ("supervised_execs_per_sec", Obs.Export.Float supervised);
              ("overhead_pct", Obs.Export.Float overhead_pct);
            ] ))
      [ "alpha"; "tiny" ]
  in
  add_json "supervision" (Obs.Export.Obj sections);
  let worst =
    List.fold_left
      (fun a (_, j) ->
        match j with
        | Obs.Export.Obj kvs -> (
          match List.assoc "overhead_pct" kvs with
          | Obs.Export.Float p -> Float.max a p
          | _ -> a)
        | _ -> a)
      0. sections
  in
  Printf.printf
    "worst supervision overhead %.1f%% %s the 2%% budget\n\
     (per case: one splitmix draw, one exception classification, one \
     flushed\n\
    \ journal line — the oracle itself is untouched)\n\n"
    worst
    (if worst <= 2.0 then "is within" else "EXCEEDS")

(* ------------------------------------------------------------------ *)
(* Abstract interpretation: gating effect, analysis cost, visibility    *)
(* dogfood (3 ISAs x 12 buildsets)                                      *)
(* ------------------------------------------------------------------ *)

let absint_bench () =
  print_endline
    "=== Abstract interpretation: synthesis gating and visibility dogfood ===";
  let k = List.hd (kernels ()) in
  (* A/B: the same kernel through analyzed and unanalyzed engines *)
  let speed =
    List.map
      (fun buildset ->
        let on = measure_mips ~absint:true Workload.alpha ~buildset k in
        let off = measure_mips ~absint:false Workload.alpha ~buildset k in
        Printf.printf
          "  alpha/%-9s %-10s  absint on %7.2f MIPS, off %7.2f MIPS (%+.1f%%)\n"
          buildset k.kname on off
          (if off > 0. then (on -. off) /. off *. 100. else 0.);
        ( buildset,
          Obs.Export.Obj
            [
              ("mips_absint_on", Obs.Export.Float on);
              ("mips_absint_off", Obs.Export.Float off);
            ] ))
      [ "one_all"; "block_min" ]
  in
  (* analysis cost and verdicts per ISA, stable blocks after a run (the
     sort kernel has store-free comparison blocks; a kernel that stores
     in every block would honestly report zero) *)
  let ks =
    match
      List.find_opt
        (fun (k : Vir.Kernels.sized) -> k.kname = "sort")
        Vir.Kernels.bench_suite
    with
    | Some k -> k
    | None -> k
  in
  let cost =
    List.map
      (fun (t : Workload.target) ->
        let l = Workload.load t ~buildset:"block_min" ks.program in
        ignore (drive l.iface (if !quick then 20_000 else 100_000));
        let s = l.iface.stats in
        let sums = Analysis.Absint.summarize (Lazy.force t.spec) in
        let free =
          Array.fold_left
            (fun n su -> if Analysis.Absint.store_free su then n + 1 else n)
            0 sums
        in
        Printf.printf
          "  %-6s analysis %7d ns for %3d classes (%3d store-free), %d \
           stable blocks\n"
          t.tname s.Specsim.Iface.absint_ns (Array.length sums) free
          s.Specsim.Iface.stable_blocks;
        ( t.tname,
          Obs.Export.Obj
            [
              ("absint_ns", Obs.Export.Int (Int64.of_int s.Specsim.Iface.absint_ns));
              ("classes", Obs.Export.Int (Int64.of_int (Array.length sums)));
              ("store_free_classes", Obs.Export.Int (Int64.of_int free));
              ( "stable_blocks",
                Obs.Export.Int (Int64.of_int s.Specsim.Iface.stable_blocks) );
            ] ))
      Workload.targets
  in
  (* dogfood: L08x across every shipped buildset, plus how far each
     visible set is from the computed minimum *)
  let visibility =
    List.map
      (fun (t : Workload.target) ->
        let spec = Lazy.force t.spec in
        let sums = Analysis.Absint.summarize spec in
        let l08x =
          match Analysis.Lint.run spec with
          | Ok ds ->
            List.length
              (List.filter
                 (fun (d : Analysis.Diag.t) ->
                   d.code = "L080" || d.code = "L081")
                 ds)
          | Error _ -> -1
        in
        let per_bs =
          Array.to_list spec.buildsets
          |> List.map (fun (bs : Lis.Spec.buildset) ->
                 let shown =
                   Array.fold_left
                     (fun n v -> if v then n + 1 else n)
                     0 bs.bs_visible
                 in
                 let minimal =
                   Semir.Absint.Iset.cardinal
                     (Analysis.Absint.minimal_visible spec sums bs)
                 in
                 let tightened =
                   Analysis.Absint.suggest_buildset spec sums bs <> None
                 in
                 ( bs.bs_name,
                   Obs.Export.Obj
                     [
                       ("shown_cells", Obs.Export.Int (Int64.of_int shown));
                       ("minimal_cells", Obs.Export.Int (Int64.of_int minimal));
                       ("tightened", Obs.Export.Bool tightened);
                     ] ))
        in
        let tightened_n =
          List.length
            (List.filter
               (fun (_, j) ->
                 match j with
                 | Obs.Export.Obj kvs ->
                   List.assoc "tightened" kvs = Obs.Export.Bool true
                 | _ -> false)
               per_bs)
        in
        Printf.printf
          "  %-6s L08x diagnostics: %d; %d of %d buildsets can be tightened \
           (see lisim check --suggest-buildset)\n"
          t.tname l08x tightened_n (List.length per_bs);
        ( t.tname,
          Obs.Export.Obj
            (("l08x_diagnostics", Obs.Export.Int (Int64.of_int l08x))
            :: per_bs) ))
      Workload.targets
  in
  add_json "absint"
    (Obs.Export.Obj
       [
         ("speed", Obs.Export.Obj speed);
         ("analysis", Obs.Export.Obj cost);
         ("visibility", Obs.Export.Obj visibility);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Hostile workloads: the interface machinery under attack              *)
(* ------------------------------------------------------------------ *)

(* Where the benchmark kernels reproduce the paper's SPEC-like mixes,
   these four (lib/workload/hostile.ml) are built to break the block
   engine's assumptions: a heap-mutating GC chase, a megamorphic
   threaded-interpreter dispatch, a syscall storm, and self-modifying
   trampolines. Every (kernel x ISA x interface) cell reports measured
   MIPS plus the chain and site-cache hit rates from the same run — the
   point is to see *which* machinery each kernel defeats (the interp's
   indirect dispatch must drag the chain hit rate under 90%). *)
let workload_bench () =
  print_endline
    "=== Hostile workloads: MIPS and translation-cache hit rates ===";
  let suite =
    if !quick then Workload.Hostile.test_suite else Workload.Hostile.bench_suite
  in
  let ifaces = [ "block_min"; "one_all"; "step_all" ] in
  let rate a b =
    if a + b = 0 then 0. else 100. *. float_of_int a /. float_of_int (a + b)
  in
  Printf.printf "%-14s %-6s %-10s %8s %7s %7s %7s %6s\n" "kernel" "isa"
    "interface" "MIPS" "chain%" "site%" "invals" "exit";
  (* worst chain hit rate per kernel over block interfaces, for the
     headline *)
  let worst_chain : (string * float) list ref = ref [] in
  let sections =
    List.map
      (fun (k : Workload.Hostile.kernel) ->
        let expected =
          if k.reference_safe then
            Some (Workload.reference k.program).Workload.exit_status
          else k.expected_exit
        in
        let per_isa =
          List.map
            (fun (t : Workload.target) ->
              let per_bs =
                List.map
                  (fun bs ->
                    let l = Workload.load t ~buildset:bs k.program in
                    Gc.full_major ();
                    let t0 = Unix.gettimeofday () in
                    let o = Workload.run_to_completion ~budget:200_000_000 l in
                    let dt = Unix.gettimeofday () -. t0 in
                    let mips =
                      if dt <= 0. then 0.
                      else Int64.to_float o.instructions /. dt /. 1e6
                    in
                    let s : Specsim.Iface.stats = l.iface.stats in
                    let chain = rate s.chain_taken s.chain_miss in
                    let site = rate s.site_cache_hits s.sites_compiled in
                    let ok =
                      match expected with
                      | Some e -> e = o.exit_status
                      | None -> true
                    in
                    if String.length bs >= 5 && String.sub bs 0 5 = "block"
                    then
                      worst_chain :=
                        (match List.assoc_opt k.hname !worst_chain with
                        | Some c when c <= chain -> !worst_chain
                        | _ ->
                          (k.hname, chain)
                          :: List.remove_assoc k.hname !worst_chain);
                    Printf.printf
                      "%-14s %-6s %-10s %8.2f %6.1f%% %6.1f%% %7d %6s\n"
                      k.hname t.tname bs mips chain site s.block_invalidations
                      (if ok then "OK" else "BAD!");
                    ( bs,
                      Obs.Export.Obj
                        [
                          ("mips", Obs.Export.Float mips);
                          ("chain_rate_pct", Obs.Export.Float chain);
                          ("site_reuse_rate_pct", Obs.Export.Float site);
                          ( "block_invalidations",
                            Obs.Export.Int (Int64.of_int s.block_invalidations)
                          );
                          ( "instructions",
                            Obs.Export.Int o.instructions );
                          ("exit_ok", Obs.Export.Bool ok);
                        ] ))
                  ifaces
              in
              (t.tname, Obs.Export.Obj per_bs))
            Workload.targets
        in
        (k.hname, Obs.Export.Obj per_isa))
      suite
  in
  add_json "workload" (Obs.Export.Obj sections);
  let collapsed =
    List.filter (fun (_, c) -> c < 90.) !worst_chain |> List.map fst
  in
  Printf.printf
    "\nchain hit rate under 90%% on a block interface: %s\n\
     (the megamorphic interpreter dispatch is the designed-in failure;\n\
    \ the trampoline's invalidation counts are the SMC evidence)\n\n"
    (match collapsed with
    | [] -> "NONE — the hostile corpus lost its teeth"
    | l -> String.concat ", " l)

(* ------------------------------------------------------------------ *)
(* Validation (paper §V-D)                                              *)
(* ------------------------------------------------------------------ *)

let validate () =
  print_endline "=== Validation: rotating interfaces over all kernels (§V-D) ===";
  List.iter
    (fun (t : Workload.target) ->
      let spec = Lazy.force t.spec in
      let buildsets = Lis.Spec.buildset_names spec in
      List.iter
        (fun (k : Vir.Kernels.sized) ->
          let expected = Workload.reference k.program in
          let got = Workload.run_rotating t ~buildsets k.program in
          Printf.printf "  %-6s %-12s %s (%Ld instructions, %d interfaces)\n"
            t.tname k.kname
            (if Workload.agrees expected got then "OK" else "MISMATCH!")
            got.instructions (List.length buildsets))
        Vir.Kernels.test_suite)
    Workload.targets;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per table/figure)           *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  (* pre-built simulators over a non-terminating loop program *)
  let forever : Vir.Lang.program =
    (* a long straight-line body so block mode amortizes its dispatch *)
    Vir.Lang.Label "top"
    :: List.concat
         (List.init 8 (fun _ ->
              [ Vir.Lang.Addi (8, 8, 1); Vir.Lang.Xor_ (9, 9, 8) ]))
    @ [ Vir.Lang.Jmp "top" ]
  in
  let prebuilt bs =
    let l = Workload.load Workload.alpha ~buildset:bs forever in
    ignore (drive l.iface 10_000);
    l.iface
  in
  let one_min = prebuilt "one_min" in
  let one_all = prebuilt "one_all" in
  let block_min = prebuilt "block_min" in
  let t1 =
    Test.make ~name:"table1/line-count"
      (Staged.stage (fun () ->
           ignore (Lis.Count.of_sources Isa_alpha.Alpha.sources)))
  in
  let t2 =
    Test.make ~name:"table2/one_min-1k-instrs"
      (Staged.stage (fun () -> ignore (Specsim.Iface.run_n one_min 1_000)))
  in
  let t2b =
    Test.make ~name:"table2/block_min-1k-instrs"
      (Staged.stage (fun () -> ignore (Specsim.Iface.run_n block_min 1_000)))
  in
  let t3 =
    Test.make ~name:"table3/one_all-1k-instrs"
      (Staged.stage (fun () -> ignore (Specsim.Iface.run_n one_all 1_000)))
  in
  let manual_st = Manual.Manual_sim.make_machine () in
  let () =
    List.iteri
      (fun i w ->
        Machine.Memory.write manual_st.mem
          ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
          ~width:4 w)
      Demo_isa.[ addi ~ra:8 ~imm:1 ~rc:8; br ~off:(-2) ]
  in
  let mdi = Manual.Manual_sim.Fig2.create () in
  let f24 =
    Test.make ~name:"fig24/manual-1k-instrs"
      (Staged.stage (fun () ->
           Machine.State.reset manual_st ~pc:0x1000L;
           for _ = 1 to 1_000 do
             Manual.Manual_sim.do_in_one manual_st mdi
           done))
  in
  let ff = Timing.Funcfirst.create one_all in
  let di = Specsim.Di.create ~info_slots:one_all.slots.di_size in
  let f1 =
    Test.make ~name:"fig1/funcfirst-consume"
      (Staged.stage (fun () -> Timing.Funcfirst.consume ff di))
  in
  Test.make_grouped ~name:"lisim" [ t1; t2; t2b; t3; f24; f1 ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let () =
  Array.iteri
    (fun i a ->
      if i > 0 then
        match a with
        | "--quick" -> quick := true
        | "--bechamel" -> use_bechamel := true
        | "--gate-profiler" -> gate_profiler := true
        | a
          when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
          let v = String.sub a 7 (String.length a - 7) in
          (match int_of_string_opt v with
          | Some n when n > 0 -> jobs_override := Some n
          | _ ->
            prerr_endline "bench: --jobs=N requires a positive integer";
            exit 2)
        | name -> only := name :: !only)
    Sys.argv;
  if !use_bechamel then run_bechamel ()
  else begin
    let want name = !only = [] || List.mem name !only in
    if want "table1" then table1 ();
    if want "table2" then table2 ();
    if want "table3" then table3 ();
    if want "fig1" then fig1 ();
    if want "fig24" then fig24 ();
    if want "ablation" then ablation ();
    if want "sampling" then sampling_accuracy ();
    if want "inject" then inject ();
    if want "fuzz" then fuzz_bench ();
    if want "fleet" then fleet_bench ();
    if want "overhead" then overhead ();
    if want "profiler" then profiler ();
    if want "supervision" then supervision ();
    if want "absint" then absint_bench ();
    if want "workload" then workload_bench ();
    if want "validate" then validate ();
    write_json_results ();
    if !gate_profiler then begin
      let budget = Float.max 2.0 !profiler_floor in
      if !profiler_worst > budget then begin
        Printf.printf
          "profiler gate: FAIL — overhead %.1f%% exceeds budget %.1f%%\n"
          !profiler_worst budget;
        exit 1
      end
      else
        Printf.printf "profiler gate: OK (%.1f%% <= %.1f%%)\n" !profiler_worst
          budget
    end
  end
