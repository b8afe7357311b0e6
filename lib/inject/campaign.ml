(** Deterministic fault-injection campaigns.

    A campaign runs a benchmark kernel on the timing-first organization
    (hardened checker, {!Timing.Timingfirst}) with an {!Injector}
    corrupting the timing machine, then cross-references the injector's
    event log with the checker's mismatch diagnostics to compute:

    - {b detection coverage} — the fraction of architectural injections
      (register / memory / PC / fault) the checker caught;
    - {b mean detection latency} — instructions between injection and
      detection;
    - {b repair and restore counts} — how divergences were recovered;
    - {b outcome correctness} — whether the recovered run still produces
      the reference output (the checker side is the ground truth the
      paper's §II-D argues for).

    Separately, each campaign cell drives the speculation journal under
    journaled corruption — checkpoint, corrupt through {!Specsim.Specul}
    like a wrong-path write, roll back — and counts byte-exact restores.

    Everything is keyed on the campaign seed: the same (seed, rate, sites,
    kernel, budget) replays instruction-for-instruction. *)

type config = {
  seed : int64;
  rate : float;
  sites : Injector.site list;
  budget : int;
  buildset : string;
  mem_check_interval : int;
  ckpt_interval : int;
  storm_window : int;
  storm_threshold : int;
  spec_trials : int;
}

let default_config =
  {
    seed = 42L;
    rate = 1e-4;
    sites = Injector.all_sites;
    budget = 300_000;
    buildset = "one_min";
    mem_check_interval = 64;
    ckpt_interval = 4096;
    storm_window = 64;
    storm_threshold = 8;
    spec_trials = 16;
  }

type site_stat = {
  ss_injected : int;
  ss_detected : int;
  ss_latency_sum : int64;
}

type report = {
  r_isa : string;
  r_kernel : string;
  r_buildset : string;
  r_injected : int;  (** total injections, all sites *)
  r_architectural : int;  (** injections a state checker can see *)
  r_detected : int;
  r_undetected : int;
  r_timing_only : int;  (** DI-slot injections (not architecturally visible) *)
  r_latency_sum : int64;
  r_mismatches : int64;
  r_repairs : int;
  r_restores : int;
  r_restore_failures : int;
  r_outcome_ok : bool;
  r_per_site : (Injector.site * site_stat) list;
  r_rollback_trials : int;
  r_rollback_exact : int;
}

(** Detection coverage over architectural injections; 1.0 when nothing
    was injected. *)
let coverage r =
  if r.r_architectural = 0 then 1.0
  else float_of_int r.r_detected /. float_of_int r.r_architectural

let mean_latency r =
  if r.r_detected = 0 then 0.0
  else Int64.to_float r.r_latency_sum /. float_of_int r.r_detected

(* ------------------------------------------------------------------ *)
(* Speculation-rollback trials                                         *)
(* ------------------------------------------------------------------ *)

let spec_buildset = "one_decode_spec"

(* Checkpoint, run, corrupt through the journal, run, roll back; the
   restore must be byte-exact. Window kept well under the engine's
   auto-trim horizon so the manual token stays rollbackable. *)
let run_spec_trials (t : Workload.target) (kernel : Vir.Kernels.sized)
    (cfg : config) =
  let spec = Lazy.force t.spec in
  if not (List.mem spec_buildset (Lis.Spec.buildset_names spec)) then (0, 0)
  else begin
    let l = Workload.load t ~buildset:spec_buildset kernel.program in
    let iface = l.iface in
    match iface.journal with
    | None -> (0, 0)
    | Some j ->
      let inj = Injector.create ~seed:cfg.seed ~rate:1.0 () in
      let st = iface.st in
      let trials = ref 0 and exact = ref 0 in
      (try
         for trial = 1 to cfg.spec_trials do
           if not st.halted then begin
             let tok = iface.checkpoint () in
             let regs0 = Machine.Regfile.copy st.regs in
             let pc0 = st.pc and count0 = st.instr_count in
             let mem0 = Machine.Memory.digest st.mem in
             ignore (Specsim.Iface.run_n iface 20);
             Injector.journaled_corrupt inj ~trial j st;
             ignore (Specsim.Iface.run_n iface 20);
             iface.rollback tok;
             incr trials;
             if
               Machine.Regfile.equal st.regs regs0
               && Int64.equal st.pc pc0
               && Int64.equal st.instr_count count0
               && Int64.equal (Machine.Memory.digest st.mem) mem0
             then incr exact;
             ignore (Specsim.Iface.run_n iface 64)
           end
         done
       with Machine.Sim_error.Error _ -> ());
      (!trials, !exact)
  end

(* ------------------------------------------------------------------ *)
(* One campaign cell: (ISA, buildset, kernel)                          *)
(* ------------------------------------------------------------------ *)

let run_cell ?obs (t : Workload.target) ~(kernel : Vir.Kernels.sized)
    (cfg : config) : report =
  let lt = Workload.load t ~buildset:cfg.buildset kernel.program in
  let lc = Workload.load t ~buildset:cfg.buildset kernel.program in
  let inj = Injector.create ~seed:cfg.seed ~rate:cfg.rate ~sites:cfg.sites () in
  let r =
    Timing.Timingfirst.run ~bug:(Injector.bug inj)
      ~mem_check_interval:cfg.mem_check_interval
      ~ckpt_interval:cfg.ckpt_interval ~storm_window:cfg.storm_window
      ~storm_threshold:cfg.storm_threshold ?obs ~timing:lt.iface
      ~checker:lc.iface ~budget:cfg.budget ()
  in
  (* Attribute detections: a mismatch at instruction [d] resolves every
     architectural injection at or before [d] (recovery resynchronizes the
     whole state, ending the divergence episode). *)
  let events = Injector.events inj in
  let stats = Hashtbl.create 8 in
  let stat site =
    match Hashtbl.find_opt stats site with
    | Some s -> s
    | None ->
      let s = ref { ss_injected = 0; ss_detected = 0; ss_latency_sum = 0L } in
      Hashtbl.add stats site s;
      s
  in
  List.iter
    (fun (e : Injector.event) ->
      let s = stat e.e_site in
      s := { !s with ss_injected = !s.ss_injected + 1 })
    events;
  let pending =
    ref (List.filter (fun (e : Injector.event) -> Injector.is_architectural e.e_site) events)
  in
  let detected = ref 0 and latency_sum = ref 0L in
  List.iter
    (fun (d : Timing.Timingfirst.mismatch) ->
      let resolved, rest =
        List.partition
          (fun (e : Injector.event) -> Int64.compare e.e_index d.at_instr <= 0)
          !pending
      in
      pending := rest;
      List.iter
        (fun (e : Injector.event) ->
          let lat = Int64.sub d.at_instr e.e_index in
          incr detected;
          latency_sum := Int64.add !latency_sum lat;
          let s = stat e.e_site in
          s :=
            {
              !s with
              ss_detected = !s.ss_detected + 1;
              ss_latency_sum = Int64.add !s.ss_latency_sum lat;
            })
        resolved)
    r.diagnostics;
  let timing_only =
    List.length
      (List.filter (fun (e : Injector.event) -> not (Injector.is_architectural e.e_site)) events)
  in
  let architectural = Injector.n_injected inj - timing_only in
  (* The checker side is ground truth: the recovered run must still match
     the VIR reference observably. *)
  let outcome_ok =
    lc.iface.st.halted
    &&
    let expected = Workload.reference kernel.program in
    match Machine.State.exit_status lc.iface.st with
    | Some s ->
      s land 0xff = expected.exit_status
      && String.equal (Machine.Os_emu.output lc.os) expected.output
    | None -> false
  in
  let trials, exact = run_spec_trials t kernel cfg in
  {
    r_isa = t.tname;
    r_kernel = kernel.kname;
    r_buildset = cfg.buildset;
    r_injected = Injector.n_injected inj;
    r_architectural = architectural;
    r_detected = !detected;
    r_undetected = architectural - !detected;
    r_timing_only = timing_only;
    r_latency_sum = !latency_sum;
    r_mismatches = r.mismatches;
    r_repairs = r.repairs;
    r_restores = r.restores;
    r_restore_failures = r.restore_failures;
    r_outcome_ok = outcome_ok;
    r_per_site =
      List.filter_map
        (fun site ->
          Option.map (fun s -> (site, !s)) (Hashtbl.find_opt stats site))
        Injector.all_sites;
    r_rollback_trials = trials;
    r_rollback_exact = exact;
  }

(** [register_obs reports obs] exports a finished campaign's aggregate
    detection statistics as "inject.*" counters. *)
let register_obs (reports : report list) (obs : Obs.t) =
  let module R = Obs.Registry in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let set name v = R.add (R.counter obs.reg name) v in
  set "inject.injected" (sum (fun r -> r.r_injected));
  set "inject.architectural" (sum (fun r -> r.r_architectural));
  set "inject.detected" (sum (fun r -> r.r_detected));
  set "inject.undetected" (sum (fun r -> r.r_undetected));
  set "inject.timing_only" (sum (fun r -> r.r_timing_only));
  set "inject.latency_sum"
    (Int64.to_int
       (List.fold_left (fun a r -> Int64.add a r.r_latency_sum) 0L reports));
  set "inject.rollback_trials" (sum (fun r -> r.r_rollback_trials));
  set "inject.rollback_exact" (sum (fun r -> r.r_rollback_exact))

(** [run ?isas ?kernel ?obs cfg] — one cell per requested ISA. [obs]
    instruments the checker of every cell and, at the end, exports the
    aggregate "inject.*" detection counters. *)
let run ?(isas = [ "alpha"; "arm"; "ppc" ]) ?(kernel = "sort") ?obs
    (cfg : config) : report list =
  let k =
    match
      List.find_opt
        (fun (k : Vir.Kernels.sized) -> String.equal k.kname kernel)
        Vir.Kernels.test_suite
    with
    | Some k -> k
    | None ->
      Machine.Sim_error.raisef ~component:"inject"
        ~context:[ ("kernel", kernel) ]
        "unknown campaign kernel"
  in
  let reports =
    List.map (fun isa -> run_cell ?obs (Workload.find_target isa) ~kernel:k cfg) isas
  in
  (match obs with Some o -> register_obs reports o | None -> ());
  reports

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  Format.fprintf ppf
    "%s/%s on %s: injected %d (architectural %d, timing-only %d)@\n" r.r_isa
    r.r_buildset r.r_kernel r.r_injected r.r_architectural r.r_timing_only;
  Format.fprintf ppf
    "  detected %d/%d (coverage %.1f%%), mean detection latency %.2f instrs@\n"
    r.r_detected r.r_architectural (100. *. coverage r) (mean_latency r);
  Format.fprintf ppf
    "  mismatches %Ld, repairs %d, checkpoint restores %d (failed %d)@\n"
    r.r_mismatches r.r_repairs r.r_restores r.r_restore_failures;
  List.iter
    (fun (site, s) ->
      Format.fprintf ppf "    %-5s injected %3d  detected %3d  mean latency %s@\n"
        (Injector.site_to_string site)
        s.ss_injected s.ss_detected
        (if s.ss_detected = 0 then "-"
         else
           Printf.sprintf "%.2f"
             (Int64.to_float s.ss_latency_sum /. float_of_int s.ss_detected)))
    r.r_per_site;
  Format.fprintf ppf "  speculation rollback: %d/%d byte-exact@\n"
    r.r_rollback_exact r.r_rollback_trials;
  Format.fprintf ppf "  recovered run matches reference: %b@\n" r.r_outcome_ok

let pp_summary ppf (reports : report list) =
  let arch = List.fold_left (fun a r -> a + r.r_architectural) 0 reports in
  let det = List.fold_left (fun a r -> a + r.r_detected) 0 reports in
  let cov = if arch = 0 then 1.0 else float_of_int det /. float_of_int arch in
  Format.fprintf ppf
    "campaign total: %d architectural injections, %d detected (%.1f%%), all \
     outcomes correct: %b@\n"
    arch det (100. *. cov)
    (List.for_all (fun r -> r.r_outcome_ok) reports)
