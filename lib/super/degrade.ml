(** Graceful block-engine degradation.

    A degradation session runs a workload through a checked primary
    interface while a [step_all] shadow machine executes the same image
    in lockstep at slice granularity. At every verified slice boundary
    (architectural states byte-agree) a whole-machine checkpoint is
    taken. When the primary misbehaves — an engine invariant trips, it
    stops making progress, or its state diverges from the shadow — the
    session does not abort: it restores both machines to the last
    verified boundary and re-synthesizes the primary one rung down the
    demotion ladder

    {v full  →  step_all v}

    then replays the slice. The ladder always ends at the reference
    buildset, whose semantics are the conformance oracle itself, so a
    defective translation cache degrades a campaign to interpreter speed
    instead of killing it. Exhausting the ladder (the reference level
    itself fails) raises a ["super"] {!Machine.Sim_error} — exit code 6.

    [force_demote_at] demotes once at the first verified boundary after
    the given instruction count even when nothing is wrong. The
    conformance property behind it: a session demoted at an arbitrary
    boundary must finish with the same architectural digest as an
    uninterrupted run. *)

open Machine

type level = {
  lv_name : string;
  lv_buildset : string;
  lv_mutate : Specsim.Synth.mutation option;
      (** a seeded defect stays with the primary interface and drops off
          at the reference level *)
}

(** The demotion ladder for [buildset]: the buildset itself, then the
    reference. A reference-level session has nothing to fall back to. *)
let ladder ~buildset ~mutate ~reference : level list =
  let reference_level =
    { lv_name = reference; lv_buildset = reference; lv_mutate = None }
  in
  if String.equal buildset reference then [ reference_level ]
  else
    [ { lv_name = "full"; lv_buildset = buildset; lv_mutate = mutate };
      reference_level ]

type t = {
  d_spec : Lis.Spec.t;
  d_levels : level array;
  mutable d_idx : int;
  d_st : State.t;  (** primary machine *)
  mutable d_iface : Specsim.Iface.t;  (** primary interface, re-synthesized on demote *)
  d_shadow_st : State.t;
  d_shadow : Specsim.Iface.t;  (** trusted [reference] lockstep shadow *)
  mutable d_ckpt : string;  (** state at the last verified slice boundary *)
  d_obs : Obs.t option;
  d_stats : Supervisor.stats option;
}

let level_name t = t.d_levels.(t.d_idx).lv_name

(** The primary machine (re-synthesized interfaces share it). *)
let primary_state t = t.d_st

(** The trusted shadow machine; its architectural state is the session's
    verified result (exit status, output, digest). *)
let shadow_state t = t.d_shadow_st

let synth_level ?obs ~st spec (lv : level) =
  Specsim.Synth.make ?obs ?mutate:lv.lv_mutate ~st spec lv.lv_buildset

(** [create ~spec ~buildset ~load ()] prepares a session. [load] must
    fully prepare a machine for the workload — image, OS emulation,
    reset — and is applied identically to the primary and the shadow. *)
let create ?obs ?stats ?mutate ?(reference = "step_all") ~spec ~buildset
    ~(load : State.t -> unit) () : t =
  let levels = Array.of_list (ladder ~buildset ~mutate ~reference) in
  let st = Lis.Spec.make_machine spec in
  let sst = Lis.Spec.make_machine spec in
  load st;
  load sst;
  {
    d_spec = spec;
    d_levels = levels;
    d_idx = 0;
    d_st = st;
    d_iface = synth_level ?obs ~st spec levels.(0);
    d_shadow_st = sst;
    d_shadow = Specsim.Synth.make ~st:sst spec reference;
    d_ckpt = Checkpoint.save sst;
    d_obs = obs;
    d_stats = stats;
  }

let states_agree (p : State.t) (s : State.t) =
  Bool.equal p.halted s.halted
  && Option.equal Fault.equal p.fault s.fault
  && Int64.equal p.instr_count s.instr_count
  && Regfile.equal p.regs s.regs
  && Memory.equal_contents p.mem s.mem
  (* the block engine leaves the pc at the block entry on halt *)
  && (p.halted || Int64.equal p.pc s.pc)

(** Bring the shadow up to the primary's retirement count. The block
    engine overshoots slice requests to block boundaries; the shadow
    executes exact counts, so catching up is one-directional — except
    that a halting instruction retires nothing, so at equal counts the
    still-running machine owes exactly one more (halting) instruction. *)
let sync t =
  let p = t.d_st and s = t.d_shadow_st in
  let continue = ref true in
  while !continue do
    let d = Int64.sub p.instr_count s.instr_count in
    if Int64.compare d 0L > 0 && not s.halted then
      ignore (t.d_shadow.Specsim.Iface.run_fast (Int64.to_int d))
    else if Int64.equal d 0L && p.halted && not s.halted then
      ignore (t.d_shadow.Specsim.Iface.run_fast 1)
    else if Int64.equal d 0L && s.halted && not p.halted then
      ignore (t.d_iface.Specsim.Iface.run_fast 1)
    else continue := false
  done

let demote t ~detail =
  if t.d_idx + 1 >= Array.length t.d_levels then
    Sim_error.raisef ~component:"super"
      ~context:
        [
          ("level", level_name t);
          ("instructions", Int64.to_string t.d_shadow_st.State.instr_count);
          ("detail", detail);
        ]
      "degradation ladder exhausted: the reference level itself failed";
  Checkpoint.restore t.d_st t.d_ckpt;
  Checkpoint.restore t.d_shadow_st t.d_ckpt;
  (* a restore replaces memory wholesale: the shadow's cached units may
     no longer match it *)
  t.d_shadow.Specsim.Iface.flush_code_cache ();
  t.d_idx <- t.d_idx + 1;
  t.d_iface <- synth_level ?obs:t.d_obs ~st:t.d_st t.d_spec t.d_levels.(t.d_idx);
  Option.iter
    (fun s ->
      Obs.Registry.incr s.Supervisor.s_demotions;
      Obs.Registry.incr s.Supervisor.s_replays)
    t.d_stats

type result = {
  r_final_level : string;
  r_demotions : int;
  r_replays : int;  (** slices re-executed after a restore *)
  r_slices : int;  (** verified slice boundaries *)
  r_instructions : int64;  (** retired on the trusted shadow *)
  r_digest : int64;  (** {!Machine.Checkpoint.digest} of the shadow *)
  r_halted : bool;
}

(** [run ~budget t] executes until the workload halts or [budget]
    verified instructions retire (block slack may overshoot slightly).
    [deadline] is polled at slice boundaries via the watchdog.
    @raise Machine.Sim_error.Error on ladder exhaustion or deadline. *)
let run ?(slice = 256) ?deadline ?force_demote_at ~budget t : result =
  let slice = max 1 slice in
  let demotions = ref 0 and replays = ref 0 and slices = ref 0 in
  let force_pending = ref (force_demote_at <> None) in
  let finished = ref false in
  let do_demote detail =
    demote t ~detail;
    incr demotions;
    incr replays
  in
  while not !finished do
    Inject.Watchdog.check_deadline ?deadline t.d_st;
    let verified = Int64.to_int t.d_shadow_st.State.instr_count in
    if verified >= budget || (t.d_st.State.halted && t.d_shadow_st.State.halted)
    then finished := true
    else begin
      let want = min slice (budget - verified) in
      match t.d_iface.Specsim.Iface.run_fast want with
      | exception Sim_error.Error e when not (String.equal e.component "super")
        ->
        do_demote (Sim_error.one_line e)
      | 0 when not t.d_st.State.halted ->
        do_demote "no forward progress through the primary interface"
      | _executed ->
        let forced =
          !force_pending
          && (t.d_st.State.halted
             || match force_demote_at with
                | Some k -> Int64.compare t.d_st.State.instr_count (Int64.of_int k) >= 0
                | None -> false)
        in
        if forced then begin
          force_pending := false;
          (* forced demotion discards the unverified slice entirely *)
          if t.d_idx + 1 < Array.length t.d_levels then do_demote "forced"
        end
        else begin
          sync t;
          if states_agree t.d_st t.d_shadow_st then begin
            t.d_ckpt <- Checkpoint.save t.d_shadow_st;
            incr slices;
            Option.iter
              (fun s -> Obs.Registry.incr s.Supervisor.s_slices)
              t.d_stats
          end
          else
            do_demote
              (Printf.sprintf "state divergence from %s at %Ld instructions"
                 t.d_shadow.Specsim.Iface.bs.Lis.Spec.bs_name
                 t.d_shadow_st.State.instr_count)
        end
    end
  done;
  {
    r_final_level = level_name t;
    r_demotions = !demotions;
    r_replays = !replays;
    r_slices = !slices;
    r_instructions = t.d_shadow_st.State.instr_count;
    r_digest = Checkpoint.digest t.d_shadow_st;
    r_halted = t.d_shadow_st.State.halted;
  }
