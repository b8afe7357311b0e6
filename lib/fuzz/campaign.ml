(** Supervised fuzz campaign: the {!Driver} search loop ported onto the
    supervised execution runtime ({!Super}).

    Differences from the bare {!Driver.hunt}:

    - every oracle execution is a supervised {e case} with a stable id
      ([fuzz/<isa>/0x<seed>/<index>/<buildset>]), run under the
      supervisor's deadline/retry policy;
    - a divergence does not end the campaign: the testcase is shrunk,
      persisted to the quarantine directory as a replayable reproducer
      (same format as [--repro-out]), demonstrated to degrade gracefully
      down the demotion ladder, and the campaign moves on;
    - every case outcome is appended to a durable journal; a rerun with
      the same (seed, budget) and [resume] skips completed cases while
      consuming their budget slots, so the case window is identical.

    Everything downstream of (isa, seed) stays deterministic — the
    supervisor's retry jitter comes from the same splitmix stream. *)

type report = {
  p_isa : string;
  p_programs : int;  (** testcases generated *)
  p_execs : int;  (** budget slots consumed (executed + skipped) *)
  p_cases : int;  (** cases actually executed this run *)
  p_skipped : int;  (** cases skipped because the journal has them *)
  p_clean : int;
  p_quarantined : int;
  p_gave_up : int;  (** transient failures that exhausted their retries *)
  p_retries : int;
  p_demotions : int;  (** ladder steps across all degradation sessions *)
  p_torn : int;  (** unparsable journal lines tolerated on resume *)
}

let case_id ~isa ~seed ~index ~buildset =
  Printf.sprintf "fuzz/%s/0x%Lx/%d/%s" isa seed index buildset

(* After a divergence is quarantined, demonstrate that a supervised
   session over the same (shrunk) testcase completes by demoting down
   the ladder — the degraded-but-alive path a campaign takes when the
   block engine itself is defective. *)
let degrade_session ?obs ?stats (cfg : Oracle.config) spec ~buildset tc =
  let session =
    Super.Degrade.create ?obs ?stats ?mutate:cfg.Oracle.mutate
      ~reference:cfg.reference ~spec ~buildset
      ~load:(Oracle.load_image spec tc)
      ()
  in
  Super.Degrade.run ~slice:64 ~budget:cfg.max_instrs session

(** [metrics] attaches a periodic-telemetry series: after every executed
    case the series is ticked against the campaign's observability
    context (registry counters, plus the profiler when one is attached),
    so long campaigns emit durable wall-clock-interval progress
    snapshots alongside the journal.

    Budget slot [k] is (program [k / nbs], buildset [k mod nbs]); a
    case regenerates its program from [Gen.case_seed (seed, k / nbs)],
    which is pure, so the case set is schedule-independent. The slots
    run on the {!Super.Campaign} skeleton: [fleet] spreads them over a
    domain pool (absent: one inline job, in slot order). Workers run
    cases against domain-local state, the calling domain journals and
    quarantines completions, so the quarantined-reproducer set, report
    and merged counter totals are the same at every job count (journal
    line {e order} follows completion order). *)
let run ?(cfg = Oracle.default_config) ?obs ?stats ?metrics
    ?(super = Super.Supervisor.default) ?fleet ~isa ~seed ~budget ~journal
    ~quarantine ?(resume = false) () : report =
  (* force every lazy this campaign touches before fan-out: concurrent
     [Lazy.force] is undefined in OCaml 5 *)
  let spec = Driver.spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let budget = max 0 budget in
  let scfg = { super with Super.Supervisor.seed } in
  let buildsets = Array.of_list cfg.Oracle.buildsets in
  let nbs = Array.length buildsets in
  let cases =
    Array.init budget (fun k ->
        case_id ~isa ~seed ~index:(k / nbs) ~buildset:buildsets.(k mod nbs))
  in
  (* a worker ships back the verdict and the demotions its degradation
     session took: strings and scalars only *)
  let task k (ws : Super.Campaign.worker) =
    let tc = Gen.generate cx ~seed ~index:(k / nbs) in
    let bs = buildsets.(k mod nbs) in
    let prof = Option.bind ws.wc_obs (fun o -> o.Obs.prof) in
    match
      Super.Supervisor.run_case ?stats:ws.wc_stats scfg
        ~index:(Int64.of_int (k + 1))
        (fun ~deadline:_ -> Oracle.run_pair spec ?prof cfg tc ~buildset:bs)
    with
    | Super.Supervisor.Done (None, attempts) ->
      (Super.Campaign.Pass { attempts; detail = None }, 0)
    | Super.Supervisor.Done (Some d, attempts) ->
      (* shrink, persist, then prove graceful degradation *)
      let { Shrink.s_tc; s_tests = _ } =
        Shrink.shrink spec cfg ~buildset:bs tc
      in
      let r =
        degrade_session ?obs:ws.wc_obs ?stats:ws.wc_stats cfg spec ~buildset:bs
          s_tc
      in
      ( Super.Campaign.Quarantine
          {
            attempts;
            detail = Oracle.pp_divergence d;
            artifact = Repro.to_string cfg ~buildset:bs s_tc;
            digest = Some r.Super.Degrade.r_digest;
            level = Some r.Super.Degrade.r_final_level;
          },
        r.Super.Degrade.r_demotions )
    | Super.Supervisor.Gave_up (f, attempts) -> (
      match f.Super.Taxonomy.f_severity with
      | Super.Taxonomy.Deterministic ->
        (* deterministic crash: no verified divergence to shrink
           against, quarantine the testcase as-is *)
        ( Super.Campaign.Quarantine
            {
              attempts;
              detail =
                f.Super.Taxonomy.f_kind ^ ": " ^ f.Super.Taxonomy.f_detail;
              artifact = Repro.to_string cfg ~buildset:bs tc;
              digest = None;
              level = None;
            },
          0 )
      | _ ->
        ( Super.Campaign.Gave_up { attempts; detail = f.Super.Taxonomy.f_kind },
          0 ))
  in
  let demotions = ref 0 in
  let settle _ (verdict, d) =
    demotions := !demotions + d;
    verdict
  in
  let s =
    Super.Campaign.run ?fleet ?obs ?stats ?metrics ~journal ~quarantine
      ~resume
      ~meta:
        [
          ("campaign", Obs.Export.Str "fuzz");
          ("isa", Obs.Export.Str isa);
          ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" seed));
          ("budget", Obs.Export.Int (Int64.of_int budget));
        ]
      ~ext:".repro" ~cases ~task ~settle ()
  in
  {
    p_isa = isa;
    p_programs = (budget + nbs - 1) / nbs;
    p_execs = budget;
    p_cases = s.executed;
    p_skipped = s.skipped;
    p_clean = s.passed;
    p_quarantined = s.quarantined;
    p_gave_up = s.gave_up;
    p_retries = s.retries;
    p_demotions = !demotions;
    p_torn = s.torn;
  }

let pp_report ppf (p : report) =
  Format.fprintf ppf
    "%s: %d programs, %d budget slots (%d executed, %d resumed)@\n" p.p_isa
    p.p_programs p.p_execs p.p_cases p.p_skipped;
  Format.fprintf ppf
    "  clean %d, quarantined %d, gave up %d; retries %d, demotions %d@\n"
    p.p_clean p.p_quarantined p.p_gave_up p.p_retries p.p_demotions;
  if p.p_torn > 0 then
    Format.fprintf ppf "  (tolerated %d torn journal line(s) on resume)@\n"
      p.p_torn
