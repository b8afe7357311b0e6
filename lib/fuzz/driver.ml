(** Campaign driver: generate → 12-way oracle → shrink → reproducer.

    The budget is counted in oracle executions (one candidate/reference
    lockstep run); shrinking does not consume it. Everything downstream
    of [(isa, seed)] is deterministic. *)

let spec_of_isa = function
  | "tiny" -> Lazy.force Tiny.spec
  | name -> Lazy.force (Workload.find_target name).Workload.spec

(** ISAs a campaign covers with --isa all: the four real ISAs plus the
    2-byte tiny16. A stride defect is observable only where real strides
    differ from 4 — tiny16 everywhere, riscv wherever RVC parcels mix
    into a block. *)
let all_isas = [ "alpha"; "arm"; "ppc"; "riscv"; "tiny" ]

type outcome = {
  o_isa : string;
  o_programs : int;  (** testcases generated *)
  o_execs : int;  (** oracle executions spent searching *)
  o_found : (Gen.testcase * Oracle.divergence) option;
  o_shrunk : (Gen.testcase * Oracle.divergence) option;
      (** minimized testcase and its (re-verified) divergence *)
  o_shrink_tests : int;
}

exception Hit of int * Gen.testcase * Oracle.divergence

(** [hunt ?cfg ?fleet ~isa ~seed ~budget ()] searches for a divergence,
    stopping at the first one found (then shrinking it) or when [budget]
    oracle executions are spent.

    Budget slot [k] regenerates its program from [(seed, k / nbs)] —
    pure, so any worker can own any slot. The window is scanned in
    rounds of a few programs' worth of slots on the {!Super.Campaign}
    skeleton; a diverging slot raises [Hit], and the fleet re-raises the
    lowest-indexed one, so the first divergence in slot order wins at
    every job count. With one job (or no [fleet]) a round runs inline
    and stops at the hit; with more, a round may execute a few slots
    past it, but the outcome is the same. *)
let hunt ?(cfg = Oracle.default_config) ?fleet ~isa ~seed ~budget () : outcome
    =
  let spec = spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let budget = max 0 budget in
  let buildsets = Array.of_list cfg.Oracle.buildsets in
  let nbs = Array.length buildsets in
  let slot k _ =
    let tc = Gen.generate cx ~seed ~index:(k / nbs) in
    match Oracle.run_pair spec cfg tc ~buildset:buildsets.(k mod nbs) with
    | Some d -> raise (Hit (k, tc, d))
    | None -> ()
  in
  let found =
    Super.Campaign.with_fleet ?fleet (fun fl ->
        let chunk = nbs * max 2 (Fleet.jobs fl) in
        let rec round base =
          if base >= budget then None
          else
            match
              Super.Campaign.map ~fleet:fl
                (Array.init (min chunk (budget - base)) (fun i ->
                     slot (base + i)))
            with
            | _ -> round (base + chunk)
            | exception Hit (k, tc, d) -> Some (k, tc, d)
        in
        round 0)
  in
  match found with
  | None ->
    {
      o_isa = isa;
      o_programs = (budget + nbs - 1) / nbs;
      o_execs = budget;
      o_found = None;
      o_shrunk = None;
      o_shrink_tests = 0;
    }
  | Some (k, tc, d) ->
    let bs = d.Oracle.d_buildset in
    let { Shrink.s_tc; s_tests } = Shrink.shrink spec cfg ~buildset:bs tc in
    let d' =
      match Oracle.run_pair spec cfg s_tc ~buildset:bs with
      | Some d' -> d'
      | None -> d (* cannot happen: shrinking preserves divergence *)
    in
    {
      o_isa = isa;
      o_programs = (k / nbs) + 1;
      o_execs = k + 1;
      o_found = Some (tc, d);
      o_shrunk = Some (s_tc, d');
      o_shrink_tests = s_tests;
    }

(** [replay r] re-runs a reproducer through every buildset its config
    names and returns the per-buildset verdicts, recorded-buildset
    first. Deterministic: same file, same verdicts, same strings. *)
let replay (r : Repro.t) : (string * Oracle.divergence option) list =
  let spec = spec_of_isa r.Repro.r_tc.Gen.tc_isa in
  let buildsets =
    match r.r_buildset with
    | Some bs ->
      bs :: List.filter (fun b -> not (String.equal b bs)) r.r_cfg.Oracle.buildsets
    | None -> r.r_cfg.Oracle.buildsets
  in
  List.map
    (fun bs -> (bs, Oracle.run_pair spec r.r_cfg r.r_tc ~buildset:bs))
    buildsets
