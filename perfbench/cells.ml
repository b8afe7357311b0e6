(* Cells: one (ISA, buildset, kernel, timing organization) combination of
   a workload, how one sample of it runs, and how its result is checked.

   Every sample starts from a freshly synthesized interface and a freshly
   loaded image, so all samples of a cell do exactly the same simulated
   work: their simulated statistics, retired counts and allocation
   counts repeat, and only host time varies. *)

module Iface = Specsim.Iface

let now () = Int64.to_int (Obs.Clock.now_ns ())

type isa = {
  target : Workload.target;  (** encoder plus the spec loaded at setup *)
  spec : Lis.Spec.t;
  kinds : Specsim.Classify.kind array;
}

(* The timing organization driving the interface: the call style its
   users have. *)
type org =
  | Fast  (** [Iface.run_n] in fast-forward slices, no consumer *)
  | Funcfirst  (** [Timing.Funcfirst] consumes one DI per instruction *)
  | Specff  (** [Timing.Specff]: run-ahead window plus rollback *)
  | Directed  (** [Timing.Directed]: seven entrypoint calls per instruction *)

type observe = Plain | Full | Profile

type goal =
  | Complete  (** run to exit; check exit status and output *)
  | Budget of int
      (** retire exactly this many; check state against a reference run *)

type kernel = {
  kname : string;
  program : Vir.Lang.program;
  expected_exit : int option;
      (** analytic exit status for kernels the VIR reference cannot run *)
}

type cell = {
  id : string;
  isa : string;
  bs : string;
  kernel : kernel;
  org : org;
  goal : goal;
  observe : observe;
  mutate : Specsim.Synth.mutation option;
}

let org_name = function
  | Fast -> "fast"
  | Funcfirst -> "funcfirst"
  | Specff -> "specff"
  | Directed -> "directed"

let observe_name = function Plain -> "" | Full -> "+obs" | Profile -> "+prof"

let make_cell ?mutate ?(observe = Plain) ~isa ~bs ~org ~goal kernel =
  {
    id =
      Printf.sprintf "%s/%s/%s%s" isa bs kernel.kname (observe_name observe);
    isa;
    bs;
    kernel;
    org;
    goal;
    observe;
    mutate;
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* Instructions per [run_n] call: the sampling interval of a fast-forward
   user, and the granularity the traced run times. *)
let ff_slice = 10_000

(* Per-cell retired budgets. Whole bench kernels take 1-2M instructions,
   too many to repeat every cell several times per run at detailed
   speeds; a budget keeps every cell's work identical across samples. *)
let ff_budget = 100_000
let detailed_budget = 20_000

(* Cap on run-to-completion cells; reaching it is a failure. *)
let complete_cap = 50_000_000

let isa_names = List.map (fun (t : Workload.target) -> t.tname) Workload.targets

let bench_kernels =
  List.map
    (fun (k : Vir.Kernels.sized) ->
      { kname = k.kname; program = k.program; expected_exit = None })
    Vir.Kernels.bench_suite

let hostile_kernels =
  List.map
    (fun (k : Workload.Hostile.kernel) ->
      { kname = k.hname; program = k.program; expected_exit = k.expected_exit })
    Workload.Hostile.bench_suite

(* Polls the cycle-dependent timer word Specff watches, so its run-ahead
   loads go wrong and get rolled back. The loaded value never reaches the
   exit status, which therefore matches the VIR reference. *)
let timer_poll =
  let open Vir.Lang in
  {
    kname = "timer_poll";
    expected_exit = None;
    program =
      [
        Li (8, 0x000F0000l);
        Li (9, 3000l);
        Li (10, 0l);
        Li (4, 0l);
        Label "loop";
        Ldw (11, 8, 0);
        Add (4, 4, 10);
        Addi (10, 10, 1);
        Bcond (Ne, 10, 9, "loop");
        Andi (4, 4, 255);
        Li (0, 0l);
        Mv (1, 4);
        Sys;
      ];
  }

let block_buildsets =
  [ "block_min"; "block_decode"; "block_decode_spec"; "block_all"; "block_all_spec" ]

(* The timing organization the paper pairs with each non-block buildset. *)
let detailed_buildsets =
  [
    ("one_min", Funcfirst);
    ("one_decode", Funcfirst);
    ("one_all", Funcfirst);
    ("one_decode_spec", Specff);
    ("one_all_spec", Specff);
    ("step_all", Directed);
    ("step_all_spec", Directed);
  ]

let product isas f = List.concat_map (fun isa -> f isa) isas

let workload_names = [ "fastforward"; "detailed"; "hostile"; "observed" ]

let cells_of_workload = function
  | "fastforward" ->
    product isa_names (fun isa ->
        List.concat_map
          (fun bs ->
            List.map
              (make_cell ~isa ~bs ~org:Fast ~goal:(Budget ff_budget))
              bench_kernels)
          block_buildsets)
  | "detailed" ->
    product isa_names (fun isa ->
        List.concat_map
          (fun (bs, org) ->
            let budgeted =
              List.map
                (make_cell ~isa ~bs ~org ~goal:(Budget detailed_budget))
                bench_kernels
            in
            if org = Specff then
              budgeted @ [ make_cell ~isa ~bs ~org ~goal:Complete timer_poll ]
            else budgeted)
          detailed_buildsets)
  | "hostile" ->
    product isa_names (fun isa ->
        List.concat_map
          (fun bs ->
            List.map
              (make_cell ~isa ~bs ~org:Fast ~goal:Complete)
              hostile_kernels)
          [ "block_min"; "block_all" ])
  | "observed" ->
    product isa_names (fun isa ->
        List.concat_map
          (fun observe ->
            List.map
              (make_cell ~observe ~isa ~bs:"block_min" ~org:Fast
                 ~goal:(Budget ff_budget))
              bench_kernels
            @ List.map
                (make_cell ~observe ~isa ~bs:"step_all" ~org:Directed
                   ~goal:(Budget detailed_budget))
                bench_kernels)
          [ Full; Profile ])
  | w -> invalid_arg ("unknown workload " ^ w)

(* The unobserved twin of an observed cell (paired overhead baseline). *)
let plain_twin c = make_cell ~isa:c.isa ~bs:c.bs ~org:c.org ~goal:c.goal c.kernel

(* Seeded cell order: a Fisher-Yates shuffle drawn from [rng]. *)
let shuffle rng cells =
  let a = Array.of_list cells in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Setup: spec load, synthesis, image load                              *)
(* ------------------------------------------------------------------ *)

let sources = function
  | "alpha" -> Isa_alpha.Alpha.sources
  | "arm" -> Isa_arm.Arm.sources
  | "ppc" -> Isa_ppc.Ppc.sources
  | "riscv" -> Isa_riscv.Riscv.sources
  | n -> invalid_arg ("unknown ISA " ^ n)

let load_isa name =
  let spec = Lis.Sema.load (sources name) in
  let t = Workload.find_target name in
  {
    target = { t with spec = Lazy.from_val spec };
    spec;
    kinds = Specsim.Classify.of_spec spec;
  }

let obs_of = function
  | Plain -> None
  | Full -> Some (Obs.create ())
  | Profile -> Some (Obs.profile_only ())

(* A fresh interface with the kernel loaded and the OS emulator installed. *)
let prepare isa c =
  let obs = obs_of c.observe in
  let iface = Specsim.Synth.make ?obs ?mutate:c.mutate isa.spec c.bs in
  let os = Workload.load_image ?obs isa.target c.kernel.program iface.st in
  (iface, os)

(* ------------------------------------------------------------------ *)
(* Running one sample                                                   *)
(* ------------------------------------------------------------------ *)

(* Retired instructions, the simulated statistics of the timing model as
   an exact string, and, for [Fast], the first slice's instructions and
   host time (where translation and cold caches fall). *)
let drive c (iface : Iface.t) =
  let st = iface.st in
  let limit = match c.goal with Budget b -> b | Complete -> complete_cap in
  match c.org with
  | Fast ->
    let n = ref 0 and first = ref (0, 0) in
    while (not st.halted) && !n < limit do
      let t0 = now () in
      let r = Iface.run_n iface (min ff_slice (limit - !n)) in
      if !n = 0 then first := (r, now () - t0);
      n := !n + r
    done;
    (!n, "", !first)
  | Funcfirst ->
    let ff = Timing.Funcfirst.create iface in
    let r = Timing.Funcfirst.run ff ~budget:limit in
    let cs (c : Timing.Cache.t) =
      let a, m = Timing.Cache.stats c in
      Printf.sprintf "%Ld/%Ld" a m
    in
    let p, mp = Timing.Predictor.stats ff.predictor in
    ( Int64.to_int r.instructions,
      Printf.sprintf "cycles=%Ld l1i=%s l1d=%s bp=%Ld/%Ld" r.cycles (cs ff.l1i)
        (cs ff.l1d) p mp,
      (0, 0) )
  | Specff ->
    let r = Timing.Specff.run iface ~budget:limit in
    ( Int64.to_int r.instructions,
      Printf.sprintf "cycles=%Ld rollbacks=%Ld" r.cycles r.rollbacks,
      (0, 0) )
  | Directed ->
    let r = Timing.Directed.run iface ~budget:limit in
    ( Int64.to_int r.instructions,
      Printf.sprintf "cycles=%Ld raw=%Ld flushes=%Ld l1i=%h l1d=%h" r.cycles
        r.raw_stall_cycles r.branch_flushes r.icache_miss_rate
        r.dcache_miss_rate,
      (0, 0) )

let stats_string (s : Iface.stats) =
  Printf.sprintf
    "compiled=%d hits=%d inval=%d sites=%d site_hits=%d chain=%d/%d exec=%Ld \
     fastpath=%d stable=%d"
    s.blocks_compiled s.block_hits s.block_invalidations s.sites_compiled
    s.site_cache_hits s.chain_taken s.chain_miss s.instrs_executed
    s.fastpath_classes s.stable_blocks

(* Architectural state: registers and pc, plus memory and OS output when
   [full]. A Directed pipeline may already have performed the memory
   step of younger in-flight instructions when it stops at its budget,
   so its cells compare registers and pc only. *)
let state_digest ~full (st : Machine.State.t) os =
  let b = Buffer.create 512 in
  for i = 0 to Machine.Regfile.total st.regs - 1 do
    Buffer.add_int64_le b (Machine.Regfile.read_flat st.regs i)
  done;
  Buffer.add_int64_le b st.pc;
  if full then begin
    Buffer.add_int64_le b (Machine.Memory.digest st.mem);
    Buffer.add_string b (Machine.Os_emu.output os)
  end;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Reference states: a one_min interface advanced with exact-count
   [run_n] (no timing model, no blocks, no speculation), one machine per
   (ISA, kernel), restarted when asked for an earlier point. *)
type ref_machine = { mutable r_iface : Iface.t; mutable r_os : Machine.Os_emu.t }

let ref_machines : (string, ref_machine) Hashtbl.t = Hashtbl.create 64
let ref_states : (string * int * bool, string) Hashtbl.t = Hashtbl.create 256

let reference_state isa c ~full n =
  let mk = c.isa ^ "/" ^ c.kernel.kname in
  let key = (mk, n, full) in
  match Hashtbl.find_opt ref_states key with
  | Some d -> d
  | None ->
    let fresh () =
      let iface = Specsim.Synth.make isa.spec "one_min" in
      let os = Workload.load_image isa.target c.kernel.program iface.st in
      { r_iface = iface; r_os = os }
    in
    let m =
      match Hashtbl.find_opt ref_machines mk with
      | Some m -> m
      | None ->
        let m = fresh () in
        Hashtbl.replace ref_machines mk m;
        m
    in
    if Int64.to_int m.r_iface.st.instr_count > n then begin
      let f = fresh () in
      m.r_iface <- f.r_iface;
      m.r_os <- f.r_os
    end;
    let todo = n - Int64.to_int m.r_iface.st.instr_count in
    if todo > 0 then ignore (Iface.run_n m.r_iface todo);
    let d = state_digest ~full m.r_iface.st m.r_os in
    Hashtbl.replace ref_states key d;
    d

let vir_refs : (string, Workload.outcome) Hashtbl.t = Hashtbl.create 16

let vir_reference k =
  match Hashtbl.find_opt vir_refs k.kname with
  | Some o -> o
  | None ->
    let o = Workload.reference k.program in
    Hashtbl.replace vir_refs k.kname o;
    o

(* The result check of one sample; [None] when it passes. *)
let check isa c (iface : Iface.t) os ~instrs =
  let st = iface.st in
  match c.goal with
  | Complete -> (
    match Machine.State.exit_status st with
    | None -> Some "did not exit"
    | Some s -> (
      let s = s land 0xff in
      match c.kernel.expected_exit with
      | Some e -> if s = e then None else Some (Printf.sprintf "exit %d, want %d" s e)
      | None ->
        let r = vir_reference c.kernel in
        if s <> r.exit_status then
          Some (Printf.sprintf "exit %d, want %d" s r.exit_status)
        else if not (String.equal (Machine.Os_emu.output os) r.output) then
          Some "output differs from the VIR reference"
        else None))
  | Budget b ->
    let n = Int64.to_int st.instr_count in
    let short = if c.org = Fast then instrs < b else instrs <> b in
    if short || st.halted then
      Some (Printf.sprintf "retired %d of budget %d%s" instrs b
              (if st.halted then " (halted)" else ""))
    else
      let full = c.org <> Directed in
      if String.equal (state_digest ~full st os) (reference_state isa c ~full n)
      then None
      else Some (Printf.sprintf "state after %d instructions differs from reference" n)

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                     *)
(* ------------------------------------------------------------------ *)

(* This host's speed drifts by 20-30% over seconds to minutes (shared
   machine), and the drift hits allocation-heavy code such as the
   simulator far more than ALU loops. A fixed, benchmark-owned probe
   with the simulator's allocation profile (short-lived boxed values,
   one minor collection per call) runs right after every timed window;
   reported times are scaled by [probe_nominal_ns / probe time], which
   cancels most of the drift. The nominal value is the probe's typical
   time on the reference host (2-core container, OCaml 5.1.1, no
   flambda), so normalized times read as that host's quiet-time times.
   The probe never calls into lib/, so no change to the simulator can
   move it. *)
let probe_nominal_ns = 400_000.

let probe () =
  let t0 = now () in
  let tot = ref 0L in
  for r = 1 to 10 do
    let l = List.init 2000 (fun i -> (Int64.of_int (i * r), Some i)) in
    tot :=
      List.fold_left
        (fun a (x, y) -> Int64.add a (Int64.add x (Int64.of_int (Option.get y))))
        !tot l
  done;
  ignore (Sys.opaque_identity !tot);
  max 1 (now () - t0)

(* The factor taking times measured while the probe took [probe_ns] to
   nominal host speed. *)
let speed ~probe_ns = probe_nominal_ns /. float_of_int probe_ns

let normalize ~probe_ns ns = float_of_int ns *. speed ~probe_ns

type sample = {
  ns : int;
  probe_ns : int;  (** the probe right after the timed window *)
  instrs : int;
  first_slice : int * int;  (** [Fast]: first slice's instructions, ns *)
  minor_words : float;
  major_words : float;
  digest : string;  (** simulated statistics; equal across samples *)
  outcome : string;  (** retired count, exit status and output hash *)
  stats : Iface.stats;
  model : string;
  failure : string option;
}

(* [wrap], when given, replaces the interface the organization drives (the
   traced run). [before] and [after] run just outside the timed window. *)
let run_sample ?wrap ?(before = ignore) ?(after = ignore) isa c =
  let iface, os = prepare isa c in
  let iface = match wrap with None -> iface | Some w -> w iface in
  Gc.minor ();
  before ();
  let minor0, _, major0 = Gc.counters () in
  let t0 = now () in
  let result = match drive c iface with r -> Ok r | exception e -> Error e in
  let ns = max 1 (now () - t0) in
  after ();
  (* OCaml 5.1 folds the minor heap into Gc.counters only at a minor
     collection; without this flush the counts depend on where the
     collections fell and are off by up to a minor heap. *)
  Gc.minor ();
  let minor1, _, major1 = Gc.counters () in
  let probe_ns = probe () in
  let instrs, model, first_slice, failure =
    match result with
    | Ok (instrs, model, first) -> (instrs, model, first, check isa c iface os ~instrs)
    | Error e -> (0, "", (0, 0), Some ("raised " ^ Printexc.to_string e))
  in
  let exit_s =
    match Machine.State.exit_status iface.st with
    | Some s -> string_of_int (s land 0xff)
    | None -> "-"
  in
  let outcome =
    Printf.sprintf "retired=%d count=%Ld exit=%s out=%s" instrs
      iface.st.instr_count exit_s
      (Digest.to_hex (Digest.string (Machine.Os_emu.output os)))
  in
  {
    ns;
    probe_ns;
    instrs;
    first_slice;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    digest =
      String.concat " " [ c.id; outcome; model; stats_string iface.stats ];
    outcome;
    stats = iface.stats;
    model;
    failure;
  }
