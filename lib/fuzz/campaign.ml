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
let degrade_session ?obs ?stats (cfg : Oracle.config) spec ~buildset tc
    ~deadline =
  let session =
    Super.Degrade.create ?obs ?stats ?mutate:cfg.Oracle.mutate
      ~reference:cfg.reference ~spec ~buildset
      ~load:(Oracle.load_image spec tc)
      ()
  in
  Super.Degrade.run ?deadline ~slice:64 ~budget:cfg.max_instrs session

(* The one-core driver loop, kept verbatim as the [--jobs 1] path: its
   journal bytes, quarantine names and stats are the reference output a
   parallel run must reproduce. *)
let run_seq ~cfg ?obs ?stats ?metrics ~super ~isa ~seed ~budget ~journal
    ~quarantine ~resume () : report =
  let spec = Driver.spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let view =
    if resume then Super.Journal.load ~path:journal
    else Super.Journal.empty_view ()
  in
  let q = Super.Quarantine.create ~dir:quarantine in
  let w =
    Super.Journal.open_ ~path:journal
      ~meta:
        [
          ("campaign", Obs.Export.Str "fuzz");
          ("isa", Obs.Export.Str isa);
          ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" seed));
          ("budget", Obs.Export.Int (Int64.of_int budget));
        ]
  in
  let scfg = { super with Super.Supervisor.seed } in
  (* the context the metrics series samples: the campaign's own when
     instrumented, otherwise an empty stand-in (timestamps still flow) *)
  let mobs = match obs with Some o -> o | None -> Obs.create () in
  (* a profiler on the campaign context is shared into every oracle
     candidate boot, accumulating one campaign-wide region table *)
  let prof = mobs.Obs.prof in
  let tick_metrics () =
    match metrics with Some m -> Obs.metrics_tick m mobs | None -> ()
  in
  let execs = ref 0 in
  let programs = ref 0 in
  let cases = ref 0 and skipped = ref 0 in
  let clean = ref 0 and quarantined = ref 0 and gave_up = ref 0 in
  let retries = ref 0 and demotions = ref 0 in
  let index = ref 0 in
  let quarantine_case ?digest ?level ~case ~attempts ~detail contents =
    let path =
      Super.Quarantine.put q ~name:(case ^ ".repro") ~contents
    in
    Option.iter
      (fun s -> Obs.Registry.incr s.Super.Supervisor.s_quarantined)
      stats;
    incr quarantined;
    Super.Journal.record w
      (Super.Journal.entry ?digest ?level ~attempts
         ~outcome:Super.Journal.Quarantined
         ~detail:(detail ^ " -> " ^ path) case)
  in
  (try
     while !execs < budget do
       let tc = Gen.generate cx ~seed ~index:!index in
       incr programs;
       let tc_index = !index in
       incr index;
       List.iter
         (fun bs ->
           if !execs < budget then begin
             incr execs;
             let case = case_id ~isa ~seed ~index:tc_index ~buildset:bs in
             if Super.Journal.is_complete view case then incr skipped
             else begin
               incr cases;
               match
                 Super.Supervisor.run_case ?stats scfg
                   ~index:(Int64.of_int !execs)
                   (fun ~deadline:_ ->
                     Oracle.run_pair spec ?prof cfg tc ~buildset:bs)
               with
               | Super.Supervisor.Done (None, attempts) ->
                 incr clean;
                 retries := !retries + attempts - 1;
                 Super.Journal.record w
                   (Super.Journal.entry ~attempts ~outcome:Super.Journal.Pass
                      case)
               | Super.Supervisor.Done (Some d, attempts) ->
                 retries := !retries + attempts - 1;
                 (* shrink, persist, then prove graceful degradation *)
                 let { Shrink.s_tc; s_tests = _ } =
                   Shrink.shrink spec cfg ~buildset:bs tc
                 in
                 let r =
                   degrade_session ?obs ?stats cfg spec ~buildset:bs s_tc
                     ~deadline:None
                 in
                 demotions := !demotions + r.Super.Degrade.r_demotions;
                 quarantine_case ~digest:r.Super.Degrade.r_digest
                   ~level:r.Super.Degrade.r_final_level ~case ~attempts
                   ~detail:(Oracle.pp_divergence d)
                   (Repro.to_string cfg ~buildset:bs s_tc)
               | Super.Supervisor.Gave_up (f, attempts) -> (
                 retries := !retries + attempts - 1;
                 match f.Super.Taxonomy.f_severity with
                 | Super.Taxonomy.Deterministic ->
                   (* deterministic crash: no verified divergence to
                      shrink against, quarantine the testcase as-is *)
                   quarantine_case ~case ~attempts
                     ~detail:
                       (f.Super.Taxonomy.f_kind ^ ": "
                      ^ f.Super.Taxonomy.f_detail)
                     (Repro.to_string cfg ~buildset:bs tc)
                 | _ ->
                   incr gave_up;
                   Super.Journal.record w
                     (Super.Journal.entry ~attempts
                        ~outcome:Super.Journal.Gave_up
                        ~detail:f.Super.Taxonomy.f_kind case))
             end;
             tick_metrics ()
           end)
         cfg.Oracle.buildsets
     done
   with exn ->
     Super.Journal.close w;
     raise exn);
  Super.Journal.close w;
  {
    p_isa = isa;
    p_programs = !programs;
    p_execs = !execs;
    p_cases = !cases;
    p_skipped = !skipped;
    p_clean = !clean;
    p_quarantined = !quarantined;
    p_gave_up = !gave_up;
    p_retries = !retries;
    p_demotions = !demotions;
    p_torn = view.Super.Journal.v_torn;
  }

(* ------------------------------------------------------------------ *)
(* Parallel path (domain fleet)                                        *)
(* ------------------------------------------------------------------ *)

(* Budget slot [k] of the sequential loop is (program [k / nbs],
   buildset [k mod nbs]) — regenerating the program from
   [Gen.case_seed (seed, k / nbs)] is pure, so any worker can own any
   slot and the case set is schedule-independent. *)

(* What a worker ships back for one executed case. Strings and scalars
   only: every journal append and quarantine write happens on the
   collector, so the JSONL tail stays torn-safe and artifact naming is
   single-writer. *)
type case_out =
  | C_pass of int  (** attempts *)
  | C_diverged of {
      co_attempts : int;
      co_detail : string;
      co_contents : string;
      co_digest : int64;
      co_level : string;
      co_demotions : int;
    }
  | C_det_crash of {
      cd_attempts : int;
      cd_detail : string;
      cd_contents : string;
    }
  | C_gave_up of { cg_attempts : int; cg_kind : string }

let run_fleet ~cfg ?obs ?stats ?metrics ~super fl ~isa ~seed ~budget ~journal
    ~quarantine ~resume () : report =
  (* Force every lazy this campaign touches on the collector, before
     fan-out: concurrent [Lazy.force] is undefined in OCaml 5. *)
  let spec = Driver.spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let view =
    if resume then Super.Journal.load ~path:journal
    else Super.Journal.empty_view ()
  in
  let q = Super.Quarantine.create ~dir:quarantine in
  let w =
    Super.Journal.open_ ~path:journal
      ~meta:
        [
          ("campaign", Obs.Export.Str "fuzz");
          ("isa", Obs.Export.Str isa);
          ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" seed));
          ("budget", Obs.Export.Int (Int64.of_int budget));
        ]
  in
  let scfg = { super with Super.Supervisor.seed } in
  let mobs = match obs with Some o -> o | None -> Obs.create () in
  let tick_metrics () =
    match metrics with Some m -> Obs.metrics_tick m mobs | None -> ()
  in
  let buildsets = Array.of_list cfg.Oracle.buildsets in
  let nbs = Array.length buildsets in
  let case_of_slot k =
    case_id ~isa ~seed ~index:(k / nbs) ~buildset:buildsets.(k mod nbs)
  in
  (* resume filtering happens here, on the collector: skipped slots
     consume budget without being submitted *)
  let todo = ref [] in
  let skipped = ref 0 in
  for k = budget - 1 downto 0 do
    if Super.Journal.is_complete view (case_of_slot k) then incr skipped
    else todo := k :: !todo
  done;
  let todo = Array.of_list !todo in
  let clean = ref 0 and quarantined = ref 0 and gave_up = ref 0 in
  let retries = ref 0 and demotions = ref 0 in
  let quarantine_case ?digest ?level ~case ~attempts ~detail contents =
    let path = Super.Quarantine.put q ~name:(case ^ ".repro") ~contents in
    Option.iter
      (fun s -> Obs.Registry.incr s.Super.Supervisor.s_quarantined)
      stats;
    incr quarantined;
    Super.Journal.record w
      (Super.Journal.entry ?digest ?level ~attempts
         ~outcome:Super.Journal.Quarantined
         ~detail:(detail ^ " -> " ^ path)
         case)
  in
  let workers =
    Array.init (Fleet.jobs fl) (fun _ ->
        Super.Supervisor.worker_ctx ?obs ?stats ())
  in
  let task k (ws : Super.Supervisor.worker_ctx) : case_out =
    let tc = Gen.generate cx ~seed ~index:(k / nbs) in
    let bs = buildsets.(k mod nbs) in
    let prof =
      match ws.Super.Supervisor.wc_obs with
      | Some o -> o.Obs.prof
      | None -> None
    in
    match
      Super.Supervisor.run_case ?stats:ws.Super.Supervisor.wc_stats scfg
        ~index:(Int64.of_int (k + 1))
        (fun ~deadline:_ -> Oracle.run_pair spec ?prof cfg tc ~buildset:bs)
    with
    | Super.Supervisor.Done (None, attempts) -> C_pass attempts
    | Super.Supervisor.Done (Some d, attempts) ->
      let { Shrink.s_tc; s_tests = _ } =
        Shrink.shrink spec cfg ~buildset:bs tc
      in
      let r =
        degrade_session ?obs:ws.Super.Supervisor.wc_obs
          ?stats:ws.Super.Supervisor.wc_stats cfg spec ~buildset:bs s_tc
          ~deadline:None
      in
      C_diverged
        {
          co_attempts = attempts;
          co_detail = Oracle.pp_divergence d;
          co_contents = Repro.to_string cfg ~buildset:bs s_tc;
          co_digest = r.Super.Degrade.r_digest;
          co_level = r.Super.Degrade.r_final_level;
          co_demotions = r.Super.Degrade.r_demotions;
        }
    | Super.Supervisor.Gave_up (f, attempts) -> (
      match f.Super.Taxonomy.f_severity with
      | Super.Taxonomy.Deterministic ->
        C_det_crash
          {
            cd_attempts = attempts;
            cd_detail =
              f.Super.Taxonomy.f_kind ^ ": " ^ f.Super.Taxonomy.f_detail;
            cd_contents = Repro.to_string cfg ~buildset:bs tc;
          }
      | _ -> C_gave_up { cg_attempts = attempts; cg_kind = f.Super.Taxonomy.f_kind })
  in
  let complete i out =
    let k = todo.(i) in
    let case = case_of_slot k in
    (match out with
    | C_pass attempts ->
      incr clean;
      retries := !retries + attempts - 1;
      Super.Journal.record w
        (Super.Journal.entry ~attempts ~outcome:Super.Journal.Pass case)
    | C_diverged o ->
      retries := !retries + o.co_attempts - 1;
      demotions := !demotions + o.co_demotions;
      quarantine_case ~digest:o.co_digest ~level:o.co_level ~case
        ~attempts:o.co_attempts ~detail:o.co_detail o.co_contents
    | C_det_crash o ->
      retries := !retries + o.cd_attempts - 1;
      quarantine_case ~case ~attempts:o.cd_attempts ~detail:o.cd_detail
        o.cd_contents
    | C_gave_up o ->
      retries := !retries + o.cg_attempts - 1;
      incr gave_up;
      Super.Journal.record w
        (Super.Journal.entry ~attempts:o.cg_attempts
           ~outcome:Super.Journal.Gave_up ~detail:o.cg_kind case));
    tick_metrics ()
  in
  let finish () =
    Array.iter
      (Super.Supervisor.join_worker_ctx ?obs ?stats ~into:mobs)
      workers;
    Super.Journal.close w
  in
  (try
     Fleet.run fl ~workers ~tasks:(Array.map (fun k -> task k) todo) ~complete;
     tick_metrics ()
   with exn ->
     finish ();
     raise exn);
  finish ();
  {
    p_isa = isa;
    p_programs = (budget + nbs - 1) / nbs;
    p_execs = budget;
    p_cases = Array.length todo;
    p_skipped = !skipped;
    p_clean = !clean;
    p_quarantined = !quarantined;
    p_gave_up = !gave_up;
    p_retries = !retries;
    p_demotions = !demotions;
    p_torn = view.Super.Journal.v_torn;
  }

(** [metrics] attaches a periodic-telemetry series: after every budget
    slot the series is ticked against the campaign's observability
    context (registry counters, plus the profiler when one is attached),
    so long campaigns emit durable wall-clock-interval progress
    snapshots alongside the journal.

    [fleet] spreads the case window over a domain {!Fleet}: workers run
    cases against domain-local state and the calling domain journals and
    quarantines completions, so the quarantined-reproducer set, report
    and merged counter totals match the sequential run at the same seed
    (journal line {e order} follows completion order). With no [fleet]
    (or a one-domain one) the original sequential loop runs unchanged. *)
let run ?(cfg = Oracle.default_config) ?obs ?stats ?metrics
    ?(super = Super.Supervisor.default) ?fleet ~isa ~seed ~budget ~journal
    ~quarantine ?(resume = false) () : report =
  match fleet with
  | Some fl when Fleet.jobs fl > 1 ->
    run_fleet ~cfg ?obs ?stats ?metrics ~super fl ~isa ~seed ~budget ~journal
      ~quarantine ~resume ()
  | _ ->
    run_seq ~cfg ?obs ?stats ?metrics ~super ~isa ~seed ~budget ~journal
      ~quarantine ~resume ()

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
