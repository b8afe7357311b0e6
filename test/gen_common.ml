(** Shared test harnesses and generators.

    These used to live as per-file copies in test_dispatch,
    test_isa_props and test_core_units; the generator primitives now
    belong to the fuzzer (lib/fuzz) and this module owns the harnesses
    the suites build on them.

    Seed convention (shared with [lisim fuzz] and [lisim inject]): one
    64-bit campaign seed, stretched with the splitmix finalizer
    ({!Inject.Prng.derive}) into every per-purpose stream. For the test
    binary the seed comes from the [LISIM_SEED] environment variable
    (default 42); {!init_seed} derives the qcheck stream from it and
    prints the value, so any qcheck failure is reproducible with
    [LISIM_SEED=<printed value> dune runtest]. An explicit [QCHECK_SEED]
    in the environment still wins, since that is qcheck's own replay
    knob. *)

let seed_env = "LISIM_SEED"
let default_seed = 42L

let campaign_seed () =
  match Sys.getenv_opt seed_env with
  | None | Some "" -> default_seed
  | Some s -> (
    match Int64.of_string_opt s with
    | Some v -> v
    | None -> Printf.ksprintf failwith "%s=%S is not an integer" seed_env s)

(** Install the derived qcheck seed (unless [QCHECK_SEED] is already
    set) and print the campaign seed. Must run before [Alcotest.run]
    — qcheck reads its environment lazily at the first test. *)
let init_seed () =
  let seed = campaign_seed () in
  (match Sys.getenv_opt "QCHECK_SEED" with
  | Some s when s <> "" -> ()
  | _ ->
    let q =
      Int64.to_int
        (Int64.logand (Inject.Prng.derive ~seed ~salt:0) 0x3FFFFFFFL)
    in
    Unix.putenv "QCHECK_SEED" (string_of_int q));
  Printf.printf "lisim tests: campaign seed %Ld (%s=%Ld reproduces)\n%!" seed
    seed_env seed

(* ----------------------------------------------------------------- *)
(* Spec-derived encoding generators (re-exported from the fuzzer)      *)
(* ----------------------------------------------------------------- *)

(** [encoding_with_noise spec i noise] — an encoding of instruction [i]
    with every decoder-free bit taken from [noise]. *)
let encoding_with_noise = Fuzz.Gen.encoding_with_noise

let free_runs = Fuzz.Gen.free_runs

(* ----------------------------------------------------------------- *)
(* Demo-ISA program harness                                            *)
(* ----------------------------------------------------------------- *)

let demo_spec () = Lazy.force Demo_isa.spec

(** Run [program] under buildset [bs]; returns the interface (for stats)
    plus (exit status, instructions retired). [patch] runs after the
    image is loaded, before execution — used to pre-stage data. *)
let run_demo ?(patch = fun _ -> ()) ?(drive = Specsim.Iface.run_n) bs program =
  let spec = demo_spec () in
  let iface = Specsim.Synth.make spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "demo ISA has no abi");
  Demo_isa.load_program st ~base:0x1000L program;
  patch st;
  let budget = 1_000_000 in
  let executed = drive iface budget in
  if executed >= budget && not st.halted then
    Alcotest.fail "program did not terminate";
  (iface, Machine.State.exit_status st, st.instr_count)

(** [step_n iface budget] drives [iface] the way a timing model does:
    every entrypoint of every instruction in order on one DI record,
    then retire; returns the number retired. *)
let step_n (iface : Specsim.Iface.t) budget =
  let st = iface.st in
  let start = st.instr_count in
  let n_eps = Specsim.Iface.n_entrypoints iface in
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

(* ----------------------------------------------------------------- *)
(* Single-instruction harness (ISA semantics property tests)           *)
(* ----------------------------------------------------------------- *)

(** One interface per spec, shared across all properties of a suite —
    synthesis is the expensive part, resets are cheap. *)
let one_all spec = lazy (Specsim.Synth.make (Lazy.force spec) "one_all")

(** [run_single iface ~pre word] stages register state with [pre],
    places the 4-byte instruction [word] at 0x1000, runs exactly one
    instruction and returns the machine state for inspection. *)
let run_single (iface : Specsim.Iface.t Lazy.t) ~pre word : Machine.State.t =
  let iface = Lazy.force iface in
  let st = iface.st in
  pre st;
  Machine.Memory.write st.mem ~addr:0x1000L ~width:4 word;
  Machine.State.reset st ~pc:0x1000L;
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  iface.run_one di;
  st

(* ----------------------------------------------------------------- *)
(* Random terminating VIR loops                                        *)
(* ----------------------------------------------------------------- *)

(** Small terminating VIR programs: a random straight-line body inside a
    counted loop, with aligned word loads/stores into a scratch buffer,
    exiting with the accumulator's low byte. *)
let vir_of_choices (choices : int list) ~iters : Vir.Lang.program =
  let open Vir.Lang in
  let body =
    List.map
      (fun n ->
        let d = 1 + ((n lsr 4) land 3) in
        let a = 1 + ((n lsr 6) land 3) in
        let b = 1 + ((n lsr 8) land 3) in
        let imm = (n lsr 10) land 0xFFF in
        match n land 7 with
        | 0 -> Add (d, a, b)
        | 1 -> Sub (d, a, b)
        | 2 -> Mul (d, a, b)
        | 3 -> Xor_ (d, a, b)
        | 4 -> Addi (d, a, imm - 2048)
        | 5 -> Shli (d, a, imm land 15)
        | 6 -> Stw (a, 5, 4 * (imm land 31))
        | _ -> Ldw (d, 5, 4 * (imm land 31)))
      choices
  in
  [
    Li (1, 3l); Li (2, 5l); Li (3, 7l); Li (4, 11l);
    Li (5, 0x4000l) (* scratch buffer *);
    Li (6, Int32.of_int iters);
    Li (7, 0l) (* accumulator *);
    Li (8, 0l);
    Label "loop";
  ]
  @ body
  @ [
      Add (7, 7, 1);
      Xor_ (7, 7, 2);
      Addi (6, 6, -1);
      Bcond (Ne, 6, 8, "loop");
      Andi (7, 7, 0xff);
      Li (0, 0l);
      Mv (1, 7);
      Sys;
    ]

let outcome_pair (o : Workload.outcome) = (o.exit_status, o.output)
