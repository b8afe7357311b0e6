(** Workload harness: builds program images for every simulated ISA and
    runs them through synthesized interfaces.

    This is the "benchmark programs" layer of the paper's validation
    (§V-D): the same kernels run on every ISA and every interface, and the
    observable behaviour (exit status, emulated-OS output) must agree with
    the VIR reference executor. *)

(* [workload.ml] is the library's interface module; re-export the
   hostile-kernel corpus so clients see it as [Workload.Hostile]. *)
module Hostile = Hostile

let code_base = 0x1000L

type target = {
  tname : string;
  spec : Lis.Spec.t Lazy.t;
  encode : base:int64 -> Vir.Lang.program -> int64 list;
}

let alpha =
  {
    tname = "alpha";
    spec = Isa_alpha.Alpha.spec;
    encode = Isa_alpha.Alpha_asm.encode;
  }

let arm =
  { tname = "arm"; spec = Isa_arm.Arm.spec; encode = Isa_arm.Arm_asm.encode }

let ppc =
  { tname = "ppc"; spec = Isa_ppc.Ppc.spec; encode = Isa_ppc.Ppc_asm.encode }

let riscv =
  {
    tname = "riscv";
    spec = Isa_riscv.Riscv.spec;
    encode = Isa_riscv.Riscv_asm.encode;
  }

let targets = [ alpha; arm; ppc; riscv ]

let find_target name =
  match List.find_opt (fun t -> String.equal t.tname name) targets with
  | Some t -> t
  | None ->
    Machine.Sim_error.raisef ~component:"workload" ~context:[ ("isa", name) ]
      "unknown ISA"

(** A machine loaded with a program and connected to a fresh OS emulator,
    ready to run. *)
type loaded = {
  iface : Specsim.Iface.t;
  os : Machine.Os_emu.t;
  image_words : int;
}

(** [load_image ?input t program st] prepares a machine for [program]:
    fresh OS emulator installed, code words written at {!code_base}, pc
    reset. Returns the OS emulator (its output buffer is per-machine).
    This is {!load} without the interface synthesis — the supervised
    runtime uses it to prepare several machines identically. *)
let load_image ?obs ?input (t : target) (program : Vir.Lang.program)
    (st : Machine.State.t) : Machine.Os_emu.t =
  let spec = Lazy.force t.spec in
  let os = Machine.Os_emu.create ?obs ?input () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None ->
    Machine.Sim_error.raisef ~component:"workload" ~context:[ ("isa", t.tname) ]
      "ISA has no abi declaration");
  let words = t.encode ~base:code_base program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add code_base (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:code_base;
  os

(** [load target ~buildset kernel] synthesizes the interface, assembles the
    kernel and installs it at the code base with the OS emulator hooked up.
    [obs] compiles instrumentation into the interface (see
    {!Specsim.Synth.make}); omitted, the interface is uninstrumented. *)
let load ?(backend = Specsim.Synth.Compiled) ?absint ?obs
    ?input (t : target) ~buildset (program : Vir.Lang.program) : loaded =
  let iface =
    Specsim.Synth.make ~backend ?absint ?obs (Lazy.force t.spec) buildset
  in
  let os = load_image ?obs ?input t program iface.st in
  { iface; os; image_words = List.length (t.encode ~base:code_base program) }

type outcome = {
  exit_status : int;  (** low byte, as in the VIR reference *)
  output : string;
  instructions : int64;
}

(* Non-termination and configuration problems surface as structured
   {!Machine.Sim_error.Error} values, not ad-hoc exceptions. *)
let did_not_terminate ~why (st : Machine.State.t) =
  Machine.Sim_error.raisef ~component:"workload"
    ~context:
      [ ("instructions", Int64.to_string st.instr_count);
        ("pc", Printf.sprintf "0x%Lx" st.pc) ]
    "%s" why

(** [run_to_completion ?budget loaded] drives the interface until the
    program exits. *)
let run_to_completion ?(budget = 1_000_000_000) (l : loaded) : outcome =
  let st = l.iface.st in
  let _ = Specsim.Iface.run_n l.iface budget in
  if not st.halted then did_not_terminate ~why:"instruction budget exhausted" st;
  match Machine.State.exit_status st with
  | Some s ->
    {
      exit_status = s land 0xff;
      output = Machine.Os_emu.output l.os;
      instructions = st.instr_count;
    }
  | None ->
    did_not_terminate st
      ~why:
        (match st.fault with
        | Some f -> "faulted: " ^ Machine.Fault.to_string f
        | None -> "halted without exit status")

(** [run target ~buildset kernel] — load and run in one step. *)
let run ?backend ?obs ?input ?budget (t : target) ~buildset program : outcome =
  run_to_completion ?budget (load ?backend ?obs ?input t ~buildset program)

(** [reference kernel] runs the VIR reference executor. *)
let reference ?input (program : Vir.Lang.program) : outcome =
  let r = Vir.Lang.run ?input program in
  {
    exit_status = r.exit_status;
    output = r.output;
    instructions = Int64.of_int r.dyn_instrs;
  }

(** [agrees a b] compares the observable behaviour (not instruction counts,
    which legitimately differ between ISAs). *)
let agrees (a : outcome) (b : outcome) =
  a.exit_status = b.exit_status && String.equal a.output b.output

(* ------------------------------------------------------------------ *)
(* Rotating-interface validation (paper §V-D)                           *)
(* ------------------------------------------------------------------ *)

(** [run_rotating target ~buildsets kernel] validates all the interfaces at
    once the way the paper does: every dynamic instruction (or basic
    block, for block-semantic interfaces) is executed through a different
    interface than the previous one, all interfaces sharing one machine.
    This "ensures the validity of all of the interfaces without requiring
    a complete validation run per interface". *)
let run_rotating ?input ?(budget = 100_000_000) (t : target) ~buildsets
    (program : Vir.Lang.program) : outcome =
  let spec = Lazy.force t.spec in
  let st = Lis.Spec.make_machine spec in
  let ifaces =
    List.map (fun bs -> Specsim.Synth.make ~st spec bs) buildsets
  in
  let ifaces = Array.of_list ifaces in
  if Array.length ifaces = 0 then
    Machine.Sim_error.raisef ~component:"workload" "run_rotating: no buildsets";
  let os = Machine.Os_emu.create ?input () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None ->
    Machine.Sim_error.raisef ~component:"workload" ~context:[ ("isa", t.tname) ]
      "ISA has no abi declaration");
  let words = t.encode ~base:code_base program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add code_base (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:code_base;
  let dis =
    Array.map
      (fun (i : Specsim.Iface.t) ->
        Specsim.Di.create ~info_slots:i.slots.di_size)
      ifaces
  in
  let k = ref 0 in
  let steps = ref 0 in
  while (not st.halted) && Int64.to_int st.instr_count < budget do
    let i = !k mod Array.length ifaces in
    let iface = ifaces.(i) in
    (* Block-semantic interfaces advance by a whole basic block; the
       others by one instruction — exactly the paper's procedure. *)
    if iface.bs.bs_block then ignore (iface.run_block ())
    else begin
      (* A Step interface is driven through all its entrypoints. *)
      let n = Specsim.Iface.n_entrypoints iface in
      if n = 1 then iface.run_one dis.(i)
      else begin
        let di = dis.(i) in
        di.pc <- st.pc;
        di.instr_index <- -1;
        di.fault <- None;
        let e = ref 0 in
        while !e < n && not st.halted do
          iface.step di !e;
          incr e
        done;
        if not st.halted then iface.retire di
      end
    end;
    incr k;
    incr steps;
    if !steps > budget then st.halted <- true
  done;
  if not st.halted then did_not_terminate ~why:"rotating budget exhausted" st;
  match Machine.State.exit_status st with
  | Some s ->
    {
      exit_status = s land 0xff;
      output = Machine.Os_emu.output os;
      instructions = st.instr_count;
    }
  | None -> did_not_terminate ~why:"halted without exit status" st
