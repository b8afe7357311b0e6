(** Supervised fault-injection campaigns: one journaled case per ISA
    cell, resumable after a kill, deterministic failures quarantined as
    replay command files instead of aborting the whole campaign. *)

type cell = {
  c_isa : string;
  c_case : string;
  c_skipped : bool;  (** satisfied from the journal on resume *)
  c_report : Inject.Campaign.report option;  (** [None] unless run here *)
  c_failure : Taxonomy.failure option;
}

let sites_arg (cfg : Inject.Campaign.config) =
  String.concat "," (List.map Inject.Injector.site_to_string cfg.sites)

(* Every CLI-settable input of a cell is in its id, so a resumed run
   only skips cells it would have computed identically. *)
let case_id (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf "inject/%s/%s/%s/0x%Lx/%g/%d/%s" isa kernel cfg.buildset
    cfg.seed cfg.rate cfg.budget (sites_arg cfg)

(* A quarantined cell is replayable by hand: the artifact records the
   exact CLI invocation that deterministically reproduces the failure. *)
let replay_command (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf
    "lisim inject --isa %s --kernel %s --buildset %s --seed 0x%Lx --rate %g \
     --budget %d --sites %s\n"
    isa kernel cfg.buildset cfg.seed cfg.rate cfg.budget (sites_arg cfg)

(* Force every ISA's spec on the calling domain before fan-out:
   concurrent [Lazy.force] is undefined in OCaml 5. *)
let force_specs isas =
  List.iter
    (fun isa -> ignore (Lazy.force (Workload.find_target isa).Workload.spec))
    isas

(** [metrics] attaches a periodic-telemetry series, ticked once per cell
    against the campaign's observability context (see
    {!Fuzz.Campaign.run} for the contract — the caller owns open/close).

    The cells run on the {!Campaign} skeleton: [fleet] spreads them over
    a domain pool (absent: one inline job), each running against its
    worker's {!Obs} context, while the calling domain journals
    completions. The returned cell list stays in [isas] order. *)
let run ?(isas = [ "alpha"; "arm"; "ppc" ]) ?(kernel = "sort") ?obs ?stats
    ?metrics ?(super = Supervisor.default) ?fleet ~journal ~quarantine
    ?(resume = false) (cfg : Inject.Campaign.config) : cell list =
  force_specs isas;
  let isas = Array.of_list isas in
  let cases = Array.map (fun isa -> case_id cfg ~isa ~kernel) isas in
  let cells =
    Array.mapi
      (fun i isa ->
        {
          c_isa = isa;
          c_case = cases.(i);
          c_skipped = true;
          c_report = None;
          c_failure = None;
        })
      isas
  in
  let scfg = { super with Supervisor.seed = cfg.seed } in
  let task i (ws : Campaign.worker) =
    Supervisor.run_case ?stats:ws.wc_stats scfg ~index:(Int64.of_int i)
      (fun ~deadline:_ ->
        List.hd
          (Inject.Campaign.run ~isas:[ isas.(i) ] ~kernel ?obs:ws.wc_obs cfg))
  in
  let settle i out =
    let cell = { cells.(i) with c_skipped = false } in
    match out with
    | Supervisor.Done (r, attempts) ->
      cells.(i) <- { cell with c_report = Some r };
      Campaign.Pass
        {
          attempts;
          detail =
            Some (Printf.sprintf "coverage %.3f" (Inject.Campaign.coverage r));
        }
    | Supervisor.Gave_up (f, attempts) -> (
      cells.(i) <- { cell with c_failure = Some f };
      match f.Taxonomy.f_severity with
      | Taxonomy.Deterministic ->
        Campaign.Quarantine
          {
            attempts;
            detail = f.Taxonomy.f_kind;
            artifact =
              Printf.sprintf "# %s\n%s" f.Taxonomy.f_detail
                (replay_command cfg ~isa:isas.(i) ~kernel);
            digest = None;
            level = None;
          }
      | _ -> Campaign.Gave_up { attempts; detail = f.Taxonomy.f_kind })
  in
  ignore
    (Campaign.run ?fleet ?obs ?stats ?metrics ~journal ~quarantine ~resume
       ~meta:
         [
           ("campaign", Obs.Export.Str "inject");
           ("kernel", Obs.Export.Str kernel);
           ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" cfg.seed));
           ("budget", Obs.Export.Int (Int64.of_int cfg.budget));
         ]
       ~ext:".case" ~cases ~task ~settle ()
      : Campaign.summary);
  Array.to_list cells

(** [reports ~isas ~kernel ?obs ?fleet cfg] — the unjournaled campaign:
    {!Inject.Campaign.run} with one cell per ISA on the skeleton's
    workers, reports in [isas] order. With [obs], the per-worker
    contexts fold back so the aggregate inject.* counters are exact. *)
let reports ~isas ~kernel ?obs ?fleet (cfg : Inject.Campaign.config) :
    Inject.Campaign.report list =
  force_specs isas;
  Campaign.map ?fleet ?obs
    (Array.of_list
       (List.map
          (fun isa (ws : Campaign.worker) ->
            Inject.Campaign.run ~isas:[ isa ] ~kernel ?obs:ws.wc_obs cfg)
          isas))
  |> Array.to_list |> List.concat

let pp_cells ppf (cells : cell list) =
  List.iter
    (fun c ->
      match (c.c_skipped, c.c_report, c.c_failure) with
      | true, _, _ -> Format.fprintf ppf "%s: resumed from journal@\n" c.c_case
      | _, Some r, _ -> Inject.Campaign.pp_report ppf r
      | _, _, Some f ->
        Format.fprintf ppf "%s: %a@\n" c.c_case Taxonomy.pp_failure f
      | _ -> ())
    cells
