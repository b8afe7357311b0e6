(** Differential oracle: run one testcase through a candidate interface
    in lockstep with the Step/All reference and compare everything
    observable.

    The reference is the highest-detail interface ([step_all] — every
    entrypoint exposed, every cell visible, no block engine), so any
    candidate disagreement is attributable to the candidate's
    synthesis / caching machinery. Sync points are candidate units: a
    basic block for Block interfaces, one instruction for One / Step
    interfaces; the reference is advanced by the same number of retired
    instructions. At each sync point the oracle compares halt state,
    fault, pc, retired-instruction count, a register digest and the Obs
    crossing count; memory digests are compared every [mem_interval]
    retired instructions and at halt (they cost a full page walk). *)

type config = {
  reference : string;
  buildsets : string list;  (** candidates to check *)
  mutate : Specsim.Synth.mutation option;  (** candidate-only defect *)
  max_instrs : int;  (** per-run retirement budget *)
  mem_interval : int;
  check_crossings : bool;
}

let default_config =
  {
    reference = "step_all";
    buildsets =
      List.map Specsim.Detail.buildset_name Specsim.Detail.table2_interfaces;
    mutate = None;
    max_instrs = 2048;
    mem_interval = 16;
    check_crossings = true;
  }

type divergence = {
  d_buildset : string;
  d_kind : string;
      (** "halt" | "fault" | "pc" | "count" | "regs" | "mem" |
          "crossings" | "stuck" *)
  d_retired : int64;  (** candidate retirements at detection *)
  d_detail : string;
}

let pp_divergence d =
  Printf.sprintf "%s: %s after %Ld instruction(s): %s" d.d_buildset d.d_kind
    d.d_retired d.d_detail

(* Deterministic pseudo-OS: syscall 0 exits with arg0's low byte, any
   other number just mixes the inputs into the return register. Unlike
   {!Machine.Os_emu}, no syscall loops over a register-supplied byte
   count, so wild generated register values stay cheap. *)
let install_pseudo_os (spec : Lis.Spec.t) (st : Machine.State.t) =
  match spec.abi with
  | None -> ()
  | Some abi ->
    st.syscall_handler <-
      (fun st ->
        let rd (c, i) = Machine.Regfile.read st.regs ~cls:c ~idx:i in
        let nr = rd abi.nr in
        if Int64.equal nr 0L then
          let a0 = if Array.length abi.args > 0 then rd abi.args.(0) else 0L in
          Machine.State.raise_fault st
            (Machine.Fault.Exit (Int64.to_int (Int64.logand a0 0xFFL)))
        else begin
          let h = ref (Inject.Prng.mix nr) in
          Array.iter
            (fun a -> h := Inject.Prng.mix (Int64.logxor !h (rd a)))
            abi.args;
          let rc, ri = abi.ret in
          Machine.Regfile.write st.regs ~cls:rc ~idx:ri !h
        end)

(** [load_image spec tc st] loads a testcase image into [st]: data
    words, code words at {!Gen.code_base}, initial registers, the
    pseudo-OS, and a reset with the pc at the code base. Shared by
    {!boot} and by the supervised runtime's degradation sessions, which
    need to prepare several machines identically. *)
let load_image (spec : Lis.Spec.t) (tc : Gen.testcase) (st : Machine.State.t) =
  Array.iter
    (fun (addr, w) -> Machine.Memory.write st.mem ~addr ~width:8 w)
    tc.Gen.tc_mem;
  let offsets = Gen.code_offsets spec tc.Gen.tc_code in
  Array.iteri
    (fun i w ->
      let width = offsets.(i + 1) - offsets.(i) in
      Machine.Memory.write st.mem
        ~addr:(Int64.add Gen.code_base (Int64.of_int offsets.(i)))
        ~width w)
    tc.tc_code;
  Array.iter
    (fun (c, i, v) -> Machine.Regfile.write st.regs ~cls:c ~idx:i v)
    tc.tc_regs;
  install_pseudo_os spec st;
  Machine.State.reset st ~pc:Gen.code_base

(** [boot spec tc ...] synthesizes an interface on a fresh machine loaded
    with the testcase image, pseudo-OS installed, pc at the code base. *)
let boot (spec : Lis.Spec.t) (tc : Gen.testcase) ~buildset ?mutate ?obs () :
    Specsim.Iface.t =
  let iface = Specsim.Synth.make ?mutate ?obs spec buildset in
  load_image spec tc iface.st;
  iface

(* One lockstep participant: interface plus its call-style driver. *)
type style = Block | One | Step

type drv = { iface : Specsim.Iface.t; style : style; di : Specsim.Di.t }

let driver (iface : Specsim.Iface.t) : drv =
  let style =
    if iface.bs.bs_block then Block
    else if Specsim.Iface.n_entrypoints iface = 1 then One
    else Step
  in
  { iface; style; di = Specsim.Di.create ~info_slots:iface.slots.Specsim.Slots.di_size }

(** [advance d] runs one unit (block / instruction) and returns
    [(retired, entrypoint_calls)] — the latter is what the compiled-in
    "synth.entrypoint_calls" counter must have grown by. *)
let advance (d : drv) : int * int =
  let st = d.iface.st in
  if st.halted then (0, 0)
  else begin
    let before = st.instr_count in
    let eps =
      match d.style with
      | Block ->
        ignore (d.iface.run_block ());
        Int64.to_int (Int64.sub st.instr_count before)
      | One ->
        d.iface.run_one d.di;
        1
      | Step ->
        let di = d.di in
        di.pc <- st.pc;
        di.instr_index <- -1;
        di.fault <- None;
        let n = Specsim.Iface.n_entrypoints d.iface in
        let e = ref 0 in
        while !e < n && not st.halted do
          d.iface.step di !e;
          incr e
        done;
        if not st.halted then d.iface.retire di;
        !e
    in
    (Int64.to_int (Int64.sub st.instr_count before), eps)
  end

let fault_str (st : Machine.State.t) =
  match st.fault with None -> "-" | Some f -> Machine.Fault.to_string f

(** [run_pair spec cfg tc ~buildset] — lockstep one candidate against the
    reference; [None] means full agreement within the budget. [?prof]
    attaches a shared hot-region profiler to every candidate boot, so a
    whole campaign accumulates into one region table (the flame view of
    the campaign). *)
let run_pair (spec : Lis.Spec.t) ?prof (cfg : config) (tc : Gen.testcase)
    ~buildset : divergence option =
  let obs =
    if cfg.check_crossings then Some (Obs.create ?prof ())
    else Option.map (fun p -> Obs.profile_only ~prof:p ()) prof
  in
  let cand =
    driver
      (boot spec tc ~buildset ?mutate:cfg.mutate ?obs ())
  in
  let refd =
    driver (boot spec tc ~buildset:cfg.reference ())
  in
  (* only a fully-instrumented context counts crossings; a profile-only
     one builds seed closures and its registry would read a false 0 *)
  let crossings =
    if cfg.check_crossings then
      Option.map
        (fun (o : Obs.t) ->
          Obs.Registry.counter o.Obs.reg "synth.entrypoint_calls")
        obs
    else None
  in
  let cst = cand.iface.st and rst = refd.iface.st in
  let expected = ref 0 in
  let total = ref 0 in
  let stuck = ref 0 in
  let next_mem = ref cfg.mem_interval in
  let div = ref None in
  let diverge kind detail =
    if !div = None then
      div :=
        Some
          {
            d_buildset = buildset;
            d_kind = kind;
            d_retired = cst.instr_count;
            d_detail = detail;
          }
  in
  let compare_mem () =
    let mc = Machine.Memory.digest cst.mem
    and mr = Machine.Memory.digest rst.mem in
    if not (Int64.equal mc mr) then
      diverge "mem"
        (Printf.sprintf "memory digest 0x%Lx, reference 0x%Lx" mc mr)
  in
  let compare_sync ~mem =
    if cst.halted <> rst.halted then
      diverge "halt"
        (Printf.sprintf "candidate %s, reference %s"
           (if cst.halted then "halted (" ^ fault_str cst ^ ")" else "running")
           (if rst.halted then "halted (" ^ fault_str rst ^ ")" else "running"))
    else if cst.halted && not (String.equal (fault_str cst) (fault_str rst))
    then
      diverge "fault"
        (Printf.sprintf "candidate fault %s, reference %s" (fault_str cst)
           (fault_str rst))
    else if (not cst.halted) && not (Int64.equal cst.pc rst.pc) then
      diverge "pc"
        (Printf.sprintf "fetch pc 0x%Lx, reference 0x%Lx" cst.pc rst.pc);
    if !div = None && not (Int64.equal cst.instr_count rst.instr_count) then
      diverge "count"
        (Printf.sprintf "retired %Ld, reference %Ld" cst.instr_count
           rst.instr_count);
    if !div = None then begin
      let rc = Inject.Watchdog.regs_digest cst.regs
      and rr = Inject.Watchdog.regs_digest rst.regs in
      if not (Int64.equal rc rr) then
        diverge "regs"
          (Printf.sprintf "register digest 0x%Lx, reference 0x%Lx" rc rr)
    end;
    (match crossings with
    | Some c when !div = None && c.Obs.Registry.n <> !expected ->
      diverge "crossings"
        (Printf.sprintf "entrypoint crossings %d, expected %d"
           c.Obs.Registry.n !expected)
    | _ -> ());
    if !div = None && mem then compare_mem ()
  in
  let rec loop () =
    if !div <> None then ()
    else if cst.halted && rst.halted then ()
    else if !total >= cfg.max_instrs then ()
    else begin
      let n, eps = advance cand in
      expected := !expected + eps;
      total := !total + n;
      if n = 0 && not cst.halted then begin
        incr stuck;
        if !stuck > 4 then
          diverge "stuck"
            (Printf.sprintf
               "no forward progress at pc 0x%Lx (invalid block dispatched?)"
               cst.pc)
      end
      else stuck := 0;
      (* the reference follows, one instruction per unit *)
      let fed = ref 0 in
      while !div = None && !fed < n && not rst.halted do
        let m, _ = advance refd in
        if m = 0 && not rst.halted then
          diverge "stuck" "reference made no progress"
        else fed := !fed + m
      done;
      (* a halting instruction retires nothing, so when the candidate
         halts the reference needs one extra unit to take the same fault *)
      if !div = None && cst.halted && not rst.halted then ignore (advance refd);
      if !div = None then
        compare_sync
          ~mem:
            (cst.halted
            ||
            if !total >= !next_mem then begin
              next_mem := !total + cfg.mem_interval;
              true
            end
            else false);
      loop ()
    end
  in
  loop ();
  (* end of budget with both still running: full final comparison,
     including the canonical whole-state digest. Skipped on halt: a
     halted machine's fetch pc is unspecified (a block engine leaves it
     at the block entry), and {!Machine.Checkpoint.digest} includes it. *)
  if !div = None && not cst.halted then begin
    compare_sync ~mem:true;
    if !div = None then begin
      let dc = Machine.Checkpoint.digest cst
      and dr = Machine.Checkpoint.digest rst in
      if not (Int64.equal dc dr) then
        diverge "state"
          (Printf.sprintf "state digest 0x%Lx, reference 0x%Lx" dc dr)
    end
  end;
  !div

(** [run_all spec cfg tc] checks every configured candidate buildset;
    returns all divergences found (empty = conforming testcase). *)
let run_all (spec : Lis.Spec.t) (cfg : config) (tc : Gen.testcase) :
    divergence list =
  List.filter_map (fun bs -> run_pair spec cfg tc ~buildset:bs) cfg.buildsets
