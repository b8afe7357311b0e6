(** Timing-first simulator (paper §II-D), hardened.

    An integrated timing simulator executes instructions itself (here: a
    synthesized One-detail simulator standing in for the timing model's
    own functional code, with an optional injected bug to exercise the
    checking machinery); after every instruction a separate functional
    simulator executes the same instruction and the architectural states
    are compared. On a mismatch the timing simulator's state is reloaded
    from the functional simulator and the mismatch is counted — the
    paper's argument is that a low mismatch count justifies trusting the
    timing model's functional behaviour.

    Beyond the paper's register + PC comparison, this checker also:

    - compares {e memories} via sparse page digests every
      [mem_check_interval] instructions (and once at the end of the run),
      so a memory-corrupting bug is detected within a bounded latency and
      {e repaired} rather than silently persisting;
    - treats halt/fault divergence (the timing simulator faulting or
      exiting when the functional simulator did not, or vice versa) as a
      detectable mismatch instead of ending the run;
    - keeps per-mismatch diagnostics: which site diverged and how many
      instructions the divergence could have been latent;
    - snapshots the (trusted) functional simulator periodically with
      {!Machine.Checkpoint} and, when mismatches cluster (a divergence
      storm), restores the timing machine from the snapshot and replays it
      forward — the checkpoint-based recovery path — verifying that the
      recovered state is exactly the checker's.

    The interface still needs only low semantic and informational detail:
    one call per instruction, no per-instruction information (state is
    compared directly), exactly as TFsim does. *)

(** Where a divergence was first observed. *)
type site = Regs | Pc | Memory | Halt

let site_to_string = function
  | Regs -> "regs"
  | Pc -> "pc"
  | Memory -> "memory"
  | Halt -> "halt"

(** One detected divergence. [latency_bound] is the number of instructions
    since the diverged site was last verified clean — an upper bound on
    the detection latency (registers and the PC are checked every
    instruction; memory every [mem_check_interval]). *)
type mismatch = { at_instr : int64; msite : site; latency_bound : int64 }

type result = {
  instructions : int64;
  mismatches : int64;
  cycles : int64;
  ipc : float;
  diagnostics : mismatch list;  (** chronological *)
  repairs : int;  (** direct state reloads from the functional simulator *)
  restores : int;  (** successful checkpoint restore-and-replay recoveries *)
  restore_failures : int;
      (** restore-and-replay attempts whose replay did not reconverge
          (the checker then fell back to a direct reload) *)
}

(** [run ~timing ~checker ~budget] — [timing] and [checker] are interfaces
    over two different machines loaded with the same program. [bug], if
    given, corrupts the timing machine after each instruction (fault
    injectors plug in here). [mem_check_interval] bounds memory-divergence
    detection latency; [ckpt_interval] is the checkpoint cadence of the
    recovery path; more than [storm_threshold] mismatches within
    [storm_window] instructions trigger restore-and-replay instead of a
    direct reload. A replay that does not reconverge falls back to a
    direct reload too. *)
let run ?(bug = fun (_ : Machine.State.t) (_ : Specsim.Di.t) -> ())
    ?(timing_model = Funcfirst.default_config) ?(mem_check_interval = 64)
    ?(ckpt_interval = 8192) ?(storm_window = 64) ?(storm_threshold = 8)
    ?obs
    ~(timing : Specsim.Iface.t) ~(checker : Specsim.Iface.t) ~budget () :
    result =
  if timing.st == checker.st then
    Machine.Sim_error.raisef ~component:"timing"
      "Timingfirst.run: timing and checker must be separate machines";
  let ff = Funcfirst.create ~config:timing_model timing in
  (match obs with Some o -> Funcfirst.register_obs ff o | None -> ());
  let t_di = Specsim.Di.create ~info_slots:timing.slots.di_size in
  let c_di = Specsim.Di.create ~info_slots:checker.slots.di_size in
  let mismatches = ref 0L in
  let diagnostics = ref [] in
  let repairs = ref 0 in
  let restores = ref 0 in
  let restore_failures = ref 0 in
  let retired = ref 0 in
  let last_mem_check = ref 0 in
  let tst = timing.st and cst = checker.st in
  (* Memory digests are the checker's one potentially-expensive compare;
     when observed, each one is timed (the "digest time" attribution).
     The comparison closure is selected once — unobserved runs keep the
     direct call. *)
  let mem_digests = ref 0 in
  let mem_digest_ns = ref 0 in
  let mem_agrees =
    match obs with
    | None -> fun () -> Machine.Memory.equal_contents tst.mem cst.mem
    | Some _ ->
      fun () ->
        let t0 = Obs.Clock.now_ns () in
        let r = Machine.Memory.equal_contents tst.mem cst.mem in
        mem_digest_ns := !mem_digest_ns + Obs.Clock.elapsed_ns t0;
        incr mem_digests;
        r
  in
  (* Recovery checkpoints are taken from the *functional* simulator — the
     trusted side — and restored into the timing machine (same spec, so
     the layouts match). *)
  let ckpt = ref (Machine.Checkpoint.save cst) in
  let ckpt_at = ref 0 in
  let storm_start = ref 0 in
  let storm_count = ref 0 in
  let states_agree () =
    Bool.equal tst.halted cst.halted
    && Option.equal Machine.Fault.equal tst.fault cst.fault
    && Machine.Regfile.equal tst.regs cst.regs
    && Int64.equal tst.pc cst.pc
    && Machine.Memory.equal_contents tst.mem cst.mem
  in
  (* Direct repair: reload the timing machine's architectural state from
     the functional simulator. Memory is copied only when the digests
     disagree (the common register-divergence case keeps O(regs) cost). *)
  let repair () =
    Machine.Regfile.blit ~src:cst.regs ~dst:tst.regs;
    tst.pc <- cst.pc;
    tst.next_pc <- cst.next_pc;
    tst.instr_count <- cst.instr_count;
    tst.fault <- cst.fault;
    tst.halted <- cst.halted;
    if not (mem_agrees ()) then
      Machine.Memory.blit_all ~src:cst.mem ~dst:tst.mem;
    timing.flush_code_cache ();
    incr repairs
  in
  (* Checkpoint recovery: rewind the timing machine to the last trusted
     snapshot and replay it forward (without the bug callback — replay is
     clean re-execution) until it catches up with the functional
     simulator; verify exact reconvergence, else reload directly. *)
  let restore_and_replay () =
    Machine.Checkpoint.restore tst !ckpt;
    timing.flush_code_cache ();
    while
      Int64.compare tst.instr_count cst.instr_count < 0 && not tst.halted
    do
      timing.run_one t_di
    done;
    if states_agree () then incr restores
    else begin
      incr restore_failures;
      repair ()
    end
  in
  let record msite latency_bound =
    mismatches := Int64.add !mismatches 1L;
    diagnostics :=
      { at_instr = Int64.of_int !retired; msite; latency_bound }
      :: !diagnostics;
    if !retired - !storm_start > storm_window then begin
      storm_start := !retired;
      storm_count := 0
    end;
    incr storm_count;
    if !storm_count > storm_threshold then begin
      restore_and_replay ();
      storm_count := 0
    end
    else repair ();
    (* after recovery every site is known clean *)
    last_mem_check := !retired
  in
  while (not cst.halted) && !retired < budget do
    if not tst.halted then begin
      timing.run_one t_di;
      bug tst t_di;
      Funcfirst.consume ff t_di
    end;
    checker.run_one c_di;
    incr retired;
    (* compare architectural state, cheapest sites first *)
    if
      (not (Bool.equal tst.halted cst.halted))
      || not (Option.equal Machine.Fault.equal tst.fault cst.fault)
    then record Halt 0L
    else if not (Machine.Regfile.equal tst.regs cst.regs) then record Regs 0L
    else if not (Int64.equal tst.pc cst.pc) then record Pc 0L
    else if !retired - !last_mem_check >= mem_check_interval then
      if mem_agrees () then last_mem_check := !retired
      else record Memory (Int64.of_int (!retired - !last_mem_check));
    (* periodic recovery checkpoint of the trusted side *)
    if (not cst.halted) && !retired - !ckpt_at >= ckpt_interval then begin
      ckpt := Machine.Checkpoint.save cst;
      ckpt_at := !retired
    end
  done;
  (* final sweep: catch corruption injected after the last periodic
     memory check (otherwise tail-end faults would escape detection) *)
  if !retired > !last_mem_check && not (mem_agrees ()) then
    record Memory (Int64.of_int (!retired - !last_mem_check));
  let cycles = Funcfirst.current_cycles ff in
  (* flush checker counters into the registry (cold path: once per run) *)
  (match obs with
  | None -> ()
  | Some (o : Obs.t) ->
    let module R = Obs.Registry in
    R.add (R.counter o.reg "checker.compares") !retired;
    R.add (R.counter o.reg "checker.mem_digests") !mem_digests;
    R.add (R.counter o.reg "checker.mem_digest_ns") !mem_digest_ns;
    R.add (R.counter o.reg "checker.mismatches") (Int64.to_int !mismatches);
    R.add (R.counter o.reg "checker.repairs") !repairs;
    R.add (R.counter o.reg "checker.restores") !restores;
    R.add (R.counter o.reg "checker.restore_failures") !restore_failures);
  {
    instructions = Int64.of_int !retired;
    mismatches = !mismatches;
    cycles;
    ipc =
      (if Int64.equal cycles 0L then 0.
       else Int64.to_float (Int64.of_int !retired) /. Int64.to_float cycles);
    diagnostics = List.rev !diagnostics;
    repairs = !repairs;
    restores = !restores;
    restore_failures = !restore_failures;
  }
