(** Abstract interpretation: value-domain unit tests, a qcheck soundness
    property per shipped ISA (everything the reference interpreter is
    observed to do must be inside the static effect summary), and the
    synthesizer's store-free gating. *)

module A = Semir.Absint
module Iset = A.Iset

(* ------------------------------------------------------------------ *)
(* Value domain                                                        *)
(* ------------------------------------------------------------------ *)

let test_aval_basics () =
  Alcotest.(check (option int64)) "const is const" (Some 5L)
    (A.is_const (A.const 5L));
  let j = A.join (A.const 4L) (A.const 6L) in
  (match j.A.itv with
  | Some (lo, hi) ->
    Alcotest.(check int64) "join lo" 4L lo;
    Alcotest.(check int64) "join hi" 6L hi
  | None -> Alcotest.fail "join of constants must keep an interval");
  Alcotest.(check int64) "join keeps evenness" 2L j.A.modulus;
  Alcotest.(check int64) "join rem" 0L j.A.rem;
  Alcotest.(check (option int64)) "top is not const" None (A.is_const A.top)

let test_interval_from_encoding () =
  (* a 6-bit unsigned field indexing a register class: the index
     interval is [0, 63] *)
  let p =
    [
      Semir.Ir.Reg_write
        {
          cls = 0;
          index = Semir.Ir.Enc { lo = 16; len = 6; signed = false };
          value = Semir.Ir.Const 0L;
        };
    ]
  in
  let r = A.analyze_program ~n_cells:1 p in
  match r.A.reg_acc with
  | [ ra ] -> (
    match ra.A.ra_index.A.itv with
    | Some (lo, hi) ->
      Alcotest.(check int64) "lo" 0L lo;
      Alcotest.(check int64) "hi" 63L hi
    | None -> Alcotest.fail "encoding field must have an interval")
  | _ -> Alcotest.fail "expected exactly one register access"

let test_congruence_misalignment () =
  let open Semir.Ir in
  let addr_off =
    Bin (Add, Bin (Shl, Cell 0, Const 3L), Const 4L)
  in
  let store addr = [ Store { width = W8; addr; value = Const 0L } ] in
  let r = A.analyze_program ~n_cells:1 (store addr_off) in
  Alcotest.(check bool) "store recorded" true r.A.effects.A.stores;
  (match r.A.mem_acc with
  | [ ma ] ->
    Alcotest.(check bool) "(x<<3)+4 misaligned for 8 bytes" true
      (A.misaligned ma)
  | _ -> Alcotest.fail "expected exactly one memory access");
  let r2 =
    A.analyze_program ~n_cells:1 (store (Bin (Shl, Cell 0, Const 3L)))
  in
  match r2.A.mem_acc with
  | [ ma ] ->
    Alcotest.(check bool) "x<<3 is 8-byte aligned" false (A.misaligned ma)
  | _ -> Alcotest.fail "expected exactly one memory access"

let test_may_vs_must_writes () =
  let open Semir.Ir in
  let p =
    [
      Set_cell (0, Const 1L);
      If
        ( Enc { lo = 0; len = 1; signed = false },
          [ Set_cell (1, Const 2L) ],
          [] );
    ]
  in
  let r = A.analyze_program ~n_cells:3 p in
  let e = r.A.effects in
  Alcotest.(check bool) "cell 0 must-written" true (Iset.mem 0 e.A.must_writes);
  Alcotest.(check bool) "cell 1 may-written" true (Iset.mem 1 e.A.writes);
  Alcotest.(check bool) "cell 1 not must-written" false
    (Iset.mem 1 e.A.must_writes)

let test_exposed_reads_killed_by_writes () =
  let open Semir.Ir in
  let p =
    [
      Set_cell (1, Const 0L);
      Set_cell (0, Cell 1);
      (* cell 1 read after its write: not exposed *)
      Set_cell (2, Cell 3);
      (* cell 3 read before any write: exposed *)
    ]
  in
  let reads = A.exposed_reads ~n_cells:4 p in
  Alcotest.(check bool) "killed read not exposed" false (Iset.mem 1 reads);
  Alcotest.(check bool) "unkilled read exposed" true (Iset.mem 3 reads)

(* ------------------------------------------------------------------ *)
(* Soundness: observed behaviour is inside the summary                 *)
(* ------------------------------------------------------------------ *)

(* Map a flat register index back to its class. *)
let class_of_flat (regs : Machine.Regfile.t) flat =
  let n = Machine.Regfile.class_count regs in
  let rec go i best =
    if i >= n then best
    else if Machine.Regfile.base regs i <= flat then go (i + 1) i
    else best
  in
  go 0 0

(** Execute every program of instruction [i]'s action sequence through
    the reference interpreter on a fresh machine, recording every store,
    register write, cell write and syscall; the recorded behaviour must
    be inside [i]'s static summary. *)
let check_instr_against_summary (spec : Lis.Spec.t)
    (s : Analysis.Absint.summary) (enc : int64) (seed : int) =
  let i = s.Analysis.Absint.s_instr in
  let n_cells = Lis.Spec.n_cells spec in
  let st = Lis.Spec.make_machine spec in
  (* seed registers with smallish values so addresses stay tame *)
  for cls = 0 to Machine.Regfile.class_count st.regs - 1 do
    let def = Machine.Regfile.class_def st.regs cls in
    for idx = 0 to def.Machine.Regfile.count - 1 do
      Machine.Regfile.write st.regs ~cls ~idx
        (Int64.of_int (((seed * 31) + (idx * 8189)) land 0xFFFF))
    done
  done;
  let stores = ref [] in
  let reg_writes = ref [] in
  let syscalls = ref 0 in
  st.syscall_handler <- (fun _ -> incr syscalls);
  let hooks =
    {
      Semir.Hooks.on_reg_write = (fun _ flat -> reg_writes := flat :: !reg_writes);
      on_store = (fun _ a w -> stores := (a, w) :: !stores);
    }
  in
  let loc = Array.init n_cells (fun c -> Semir.Frame.In_scratch c) in
  let fr = Semir.Frame.create ~di_slots:1 ~scratch_slots:n_cells in
  Semir.Frame.set_pc fr 0x1000L;
  Semir.Frame.set_next_pc fr 0x1004L;
  Semir.Frame.set_enc fr enc;
  let sentinel c = Int64.of_int (0x5EED0000 + (c * 7919)) in
  for c = 0 to n_cells - 1 do
    Semir.Frame.write fr loc.(c) (sentinel c)
  done;
  List.iter
    (fun (_, p) -> Semir.Eval.exec ~hooks ~loc st fr p)
    (Analysis.Absint.sequence_programs spec i);
  let e = s.Analysis.Absint.s_total.A.effects in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("%s / 0x%Lx: " ^^ fmt)
      i.Lis.Spec.i_name enc
  in
  if !stores <> [] && not e.A.stores then
    fail "interpreter stored but the summary says store-free";
  if !syscalls > 0 && not e.A.syscall then
    fail "interpreter syscalled but the summary says no syscall";
  if Analysis.Absint.store_free s && (!stores <> [] || !syscalls > 0) then
    fail "store_free class produced a store or syscall";
  List.iter
    (fun flat ->
      let cls = class_of_flat st.regs flat in
      if not (Iset.mem cls e.A.reg_writes) then
        fail "register class %d written but absent from reg_writes" cls)
    !reg_writes;
  for c = 0 to n_cells - 1 do
    if Semir.Frame.read fr loc.(c) <> sentinel c && not (Iset.mem c e.A.writes) then
      fail "cell '%s' written but absent from the static write set"
        (Lis.Spec.cell_name spec c)
  done;
  if st.fault <> None && not e.A.faults then
    fail "interpreter faulted but the summary says fault-free";
  if st.halted && not (e.A.halt || e.A.faults || e.A.syscall) then
    fail "machine halted but the summary has no halt/fault/syscall";
  true

let soundness_property name (sources : Lis.Ast.source list) =
  let spec = Lis.Sema.load sources in
  let sums = Analysis.Absint.summarize spec in
  let n = Array.length spec.instrs in
  let gen =
    (* a random instruction with random operand bits in its don't-care
       positions, plus a register/memory seed *)
    QCheck.Gen.(
      map3
        (fun idx noise seed ->
          let idx = abs idx mod n in
          let i = spec.instrs.(idx) in
          let enc =
            Int64.logor i.Lis.Spec.i_match
              (Int64.logand noise (Int64.lognot i.Lis.Spec.i_mask))
          in
          (idx, enc, seed))
        int int64 small_nat)
  in
  let arb =
    QCheck.make gen ~print:(fun (idx, enc, seed) ->
        Printf.sprintf "%s enc=0x%Lx seed=%d" spec.instrs.(idx).Lis.Spec.i_name
          enc seed)
  in
  QCheck.Test.make ~count:200
    ~name:(name ^ ": observed effects are inside the static summary")
    arb
    (fun (idx, enc, seed) ->
      check_instr_against_summary spec sums.(idx) enc seed)

(* ------------------------------------------------------------------ *)
(* Store classes are never store-free                                  *)
(* ------------------------------------------------------------------ *)

let test_alpha_stores_not_store_free () =
  let spec = Lazy.force Isa_alpha.Alpha.spec in
  let sums = Analysis.Absint.summarize spec in
  let verdict name =
    let rec go i =
      if i >= Array.length sums then
        Alcotest.failf "alpha has no instruction %s" name
      else if sums.(i).Analysis.Absint.s_instr.Lis.Spec.i_name = name then
        Analysis.Absint.store_free sums.(i)
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "STQ is not store-free" false (verdict "STQ");
  Alcotest.(check bool) "ADDQ is store-free" true (verdict "ADDQ")

(** Cross-validation with the conformance fuzzer's seeded defects: the
    tiny16 stride/invalidation bug classes are only observable through
    instructions that write memory or syscall (STW, SYS). Those classes
    must never be declared statically safe — otherwise the analysis
    could mask a seeded block-engine defect by eliding the very recheck
    that catches it. *)
let test_tiny16_defect_carriers_not_safe () =
  let spec = Lazy.force Fuzz.Tiny.spec in
  let sums = Analysis.Absint.summarize spec in
  let verdict name =
    let rec go i =
      if i >= Array.length sums then
        Alcotest.failf "tiny16 has no instruction %s" name
      else if sums.(i).Analysis.Absint.s_instr.Lis.Spec.i_name = name then
        Analysis.Absint.store_free sums.(i)
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "STW is not store-free" false (verdict "STW");
  Alcotest.(check bool) "SYS is not store-free" false (verdict "SYS");
  Alcotest.(check bool) "ADD is store-free" true (verdict "ADD");
  Alcotest.(check bool) "LDW is store-free (loads only)" true (verdict "LDW")

(* ------------------------------------------------------------------ *)
(* Synthesizer gating                                                  *)
(* ------------------------------------------------------------------ *)

let test_synth_fastpath_gating () =
  let spec = Lazy.force Isa_alpha.Alpha.spec in
  let on = Specsim.Synth.make spec "one_all" in
  let off = Specsim.Synth.make ~absint:false spec "one_all" in
  Alcotest.(check bool) "absint on: some classes fast-pathed" true
    (on.stats.Specsim.Iface.fastpath_classes > 0);
  Alcotest.(check int) "absint off: no fast path" 0
    off.stats.Specsim.Iface.fastpath_classes;
  Alcotest.(check int) "absint off: no analysis time" 0
    off.stats.Specsim.Iface.absint_ns

let find_kernel name =
  match
    List.find_opt
      (fun (k : Vir.Kernels.sized) -> k.kname = name)
      Vir.Kernels.test_suite
  with
  | Some k -> k
  | None -> Alcotest.failf "no test kernel named %s" name

(** The gated engine is observationally identical to the unanalyzed one,
    and block stability only ever fires with the analysis on. *)
let test_absint_on_off_equivalence () =
  let k = find_kernel "sort" in
  let run absint buildset =
    let l = Workload.load ~absint Workload.alpha ~buildset k.program in
    let out = Workload.run_to_completion l in
    (out, l.iface.stats)
  in
  List.iter
    (fun buildset ->
      let out_on, stats_on = run true buildset in
      let out_off, stats_off = run false buildset in
      Alcotest.(check bool)
        (buildset ^ ": outcomes agree")
        true
        (Workload.agrees out_on out_off);
      Alcotest.(check int)
        (buildset ^ ": absint off leaves no stable blocks")
        0 stats_off.Specsim.Iface.stable_blocks;
      ignore stats_on)
    [ "one_all"; "block_min" ];
  (* with the analysis on, the block engine marks store-free blocks
     stable on this kernel *)
  let _, stats = run true "block_min" in
  Alcotest.(check bool) "block_min: stable blocks found" true
    (stats.Specsim.Iface.stable_blocks > 0)

let suite =
  [
    Alcotest.test_case "aval basics" `Quick test_aval_basics;
    Alcotest.test_case "interval from encoding" `Quick
      test_interval_from_encoding;
    Alcotest.test_case "congruence misalignment" `Quick
      test_congruence_misalignment;
    Alcotest.test_case "may vs must writes" `Quick test_may_vs_must_writes;
    Alcotest.test_case "exposed reads killed" `Quick
      test_exposed_reads_killed_by_writes;
    QCheck_alcotest.to_alcotest
      (soundness_property "alpha" Isa_alpha.Alpha.sources);
    QCheck_alcotest.to_alcotest (soundness_property "arm" Isa_arm.Arm.sources);
    QCheck_alcotest.to_alcotest (soundness_property "ppc" Isa_ppc.Ppc.sources);
    QCheck_alcotest.to_alcotest
      (soundness_property "riscv" Isa_riscv.Riscv.sources);
    Alcotest.test_case "alpha store classes" `Quick
      test_alpha_stores_not_store_free;
    Alcotest.test_case "tiny16 defect carriers not safe" `Quick
      test_tiny16_defect_carriers_not_safe;
    Alcotest.test_case "synth fast-path gating" `Quick
      test_synth_fastpath_gating;
    Alcotest.test_case "absint on/off equivalence" `Quick
      test_absint_on_off_equivalence;
  ]
