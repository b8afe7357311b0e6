(** Allocation gate: minor-heap words per simulated instruction in steady
    state, for every bench kernel through block_min (chained blocks),
    one_min (one call per instruction) and step_all (one call per
    entrypoint) on each ISA, and through each timing organization driving
    its paired interface (Funcfirst on one_decode, Specff on
    one_decode_spec, Directed on step_all). Words per instruction repeat
    exactly from run to run, so unlike wall-clock time they can gate a
    change: each ceiling is the measured value plus at most 10%. *)

let warmup = 20_000
let measured = 30_000

(* The bench harness's driver: [run_n] for single-entrypoint
   interfaces, otherwise every entrypoint of every instruction in order,
   then retire. *)
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

(* A timing organization run for [budget] retired instructions; returns
   the number retired. Specff and Directed set up their model afresh on
   each call, so the measured window includes one setup. *)
let funcfirst (iface : Specsim.Iface.t) =
  let ff = Timing.Funcfirst.create iface in
  fun budget -> Int64.to_int (Timing.Funcfirst.run ff ~budget).instructions

let specff iface budget = Int64.to_int (Timing.Specff.run iface ~budget).instructions
let directed iface budget = Int64.to_int (Timing.Directed.run iface ~budget).instructions

(* Words per instruction over the measured window of every bench kernel,
   [run iface] driving the loaded interface. *)
let words_per_instr ?(run = drive) (t : Workload.target) bs =
  let words = ref 0. and instrs = ref 0 in
  List.iter
    (fun (k : Vir.Kernels.sized) ->
      let l = Workload.load t ~buildset:bs k.program in
      let run = run l.iface in
      ignore (run warmup);
      Gc.minor ();
      let w0 = Gc.minor_words () in
      let n = run measured in
      words := !words +. (Gc.minor_words () -. w0);
      instrs := !instrs + n)
    Vir.Kernels.bench_suite;
  !words /. float_of_int !instrs

(* (ISA, buildset, ceiling). Measured on OCaml 5.1.1 without flambda:
   block_min 1.00 / 1.27 / 1.06 / 1.22 (ceilings kept from the 1.07 /
   1.37 / 1.11 / 1.28 measured before One and Step ran the block
   engine's units), one_min 6.23 / 6.42 / 6.17 /
   6.17, step_all 6.20 / 6.32 / 6.17 / 6.19 (alpha / arm / ppc / riscv).
   What one_min and step_all still allocate is mostly the boxed int64
   retired counters, two per instruction. *)
let ceilings =
  [
    ("alpha", "block_min", 1.13); ("arm", "block_min", 1.44);
    ("ppc", "block_min", 1.17); ("riscv", "block_min", 1.35);
    ("alpha", "one_min", 6.8); ("arm", "one_min", 7.0);
    ("ppc", "one_min", 6.7); ("riscv", "one_min", 6.7);
    ("alpha", "step_all", 6.7); ("arm", "step_all", 6.9);
    ("ppc", "step_all", 6.7); ("riscv", "step_all", 6.7);
  ]

(* (ISA, organization, ceiling); each organization drives its paired
   buildset. Measured on OCaml 5.1.1 without flambda: funcfirst 6.25 /
   6.43 / 6.18 / 6.19, specff 7.00 / 7.07 / 6.72 / 6.63, directed 10.69 /
   10.66 / 10.40 / 10.40 (alpha / arm / ppc / riscv). *)
let organizations =
  [
    ("funcfirst", ("one_decode", funcfirst));
    ("specff", ("one_decode_spec", specff));
    ("directed", ("step_all", directed));
  ]

let timing_ceilings =
  [
    ("alpha", "funcfirst", 6.8); ("arm", "funcfirst", 7.0);
    ("ppc", "funcfirst", 6.7); ("riscv", "funcfirst", 6.7);
    ("alpha", "specff", 7.6); ("arm", "specff", 7.7);
    ("ppc", "specff", 7.3); ("riscv", "specff", 7.2);
    ("alpha", "directed", 11.6); ("arm", "directed", 11.6);
    ("ppc", "directed", 11.3); ("riscv", "directed", 11.3);
  ]

let case ?run (isa, label, bs, ceiling) =
  let name = isa ^ " " ^ label in
  Alcotest.test_case ("minor words/instr: " ^ name) `Quick (fun () ->
      let w = words_per_instr ?run (Workload.find_target isa) bs in
      if w > ceiling then
        Alcotest.failf "%s allocates %.3f minor words/instr (ceiling %.2f)" name w
          ceiling)

let suite =
  List.map (fun (isa, bs, ceiling) -> case (isa, bs, bs, ceiling)) ceilings
  @ List.map
      (fun (isa, org, ceiling) ->
        let bs, run = List.assoc org organizations in
        case ~run (isa, org, bs, ceiling))
      timing_ceilings
