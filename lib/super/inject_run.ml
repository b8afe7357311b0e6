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

let case_id (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf "inject/%s/%s/%s/0x%Lx/%g" isa kernel cfg.buildset cfg.seed
    cfg.rate

(* A quarantined cell is replayable by hand: the artifact records the
   exact CLI invocation that deterministically reproduces the failure. *)
let replay_command (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf
    "lisim inject --isa %s --kernel %s --buildset %s --seed 0x%Lx --rate %g \
     --budget %d\n"
    isa kernel cfg.buildset cfg.seed cfg.rate cfg.budget

(* What a worker ships back for one executed cell: the report or the
   classified failure. Journal/quarantine writes stay on the collector. *)
type cell_out =
  | O_done of Inject.Campaign.report * int
  | O_gave_up of Taxonomy.failure * int

(** [metrics] attaches a periodic-telemetry series, ticked once per cell
    against the campaign's observability context (see
    {!Fuzz.Campaign.run} for the contract — the caller owns open/close).

    [fleet] spreads the per-ISA cells over a domain pool: each cell runs
    against its worker's domain-local {!Obs} mirror (merged back at
    join), the collector journals completions, and the returned cell
    list stays in [isas] order. A one-domain fleet (or none) runs the
    original sequential loop. *)
let run ?(isas = [ "alpha"; "arm"; "ppc" ]) ?(kernel = "sort") ?obs ?stats
    ?metrics ?(super = Supervisor.default) ?fleet ~journal ~quarantine
    ?(resume = false) (cfg : Inject.Campaign.config) : cell list =
  let mobs = match obs with Some o -> o | None -> Obs.create () in
  let tick_metrics () =
    match metrics with Some m -> Obs.metrics_tick m mobs | None -> ()
  in
  let view =
    if resume then Journal.load ~path:journal else Journal.empty_view ()
  in
  let q = Quarantine.create ~dir:quarantine in
  let w =
    Journal.open_ ~path:journal
      ~meta:
        [
          ("campaign", Obs.Export.Str "inject");
          ("kernel", Obs.Export.Str kernel);
          ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" cfg.seed));
          ("budget", Obs.Export.Int (Int64.of_int cfg.budget));
        ]
  in
  let scfg = { super with Supervisor.seed = cfg.seed } in
  let skipped_cell isa case =
    { c_isa = isa; c_case = case; c_skipped = true; c_report = None; c_failure = None }
  in
  (* The collector-side bookkeeping for one finished cell — identical on
     the sequential and fleet paths, so journal bytes and quarantine
     artifacts match. *)
  let settle isa case out =
    let cell =
      match out with
      | O_done (r, attempts) ->
        Journal.record w
          (Journal.entry ~attempts ~outcome:Journal.Pass
             ~detail:
               (Printf.sprintf "coverage %.3f" (Inject.Campaign.coverage r))
             case);
        {
          c_isa = isa;
          c_case = case;
          c_skipped = false;
          c_report = Some r;
          c_failure = None;
        }
      | O_gave_up (f, attempts) ->
        let outcome, detail =
          match f.Taxonomy.f_severity with
          | Taxonomy.Deterministic ->
            let path =
              Quarantine.put q ~name:(case ^ ".case")
                ~contents:
                  (Printf.sprintf "# %s\n%s" f.Taxonomy.f_detail
                     (replay_command cfg ~isa ~kernel))
            in
            Option.iter
              (fun s -> Obs.Registry.incr s.Supervisor.s_quarantined)
              stats;
            (Journal.Quarantined, f.Taxonomy.f_kind ^ " -> " ^ path)
          | _ -> (Journal.Gave_up, f.Taxonomy.f_kind)
        in
        Journal.record w (Journal.entry ~attempts ~outcome ~detail case);
        {
          c_isa = isa;
          c_case = case;
          c_skipped = false;
          c_report = None;
          c_failure = Some f;
        }
    in
    tick_metrics ();
    cell
  in
  let run_one ?obs ?stats ~index isa =
    match
      Supervisor.run_case ?stats scfg ~index (fun ~deadline:_ ->
          match Inject.Campaign.run ~isas:[ isa ] ~kernel ?obs cfg with
          | [ r ] -> r
          | rs -> List.hd rs)
    with
    | Supervisor.Done (r, attempts) -> O_done (r, attempts)
    | Supervisor.Gave_up (f, attempts) -> O_gave_up (f, attempts)
  in
  let cells =
    match fleet with
    | Some fl when Fleet.jobs fl > 1 ->
      (* force every ISA's spec on the collector before fan-out:
         concurrent [Lazy.force] is undefined in OCaml 5 *)
      List.iter
        (fun isa ->
          ignore (Lazy.force (Workload.find_target isa).Workload.spec))
        isas;
      let isas = Array.of_list isas in
      let todo =
        Array.of_list
          (List.filter
             (fun i ->
               not
                 (Journal.is_complete view (case_id cfg ~isa:isas.(i) ~kernel)))
             (List.init (Array.length isas) Fun.id))
      in
      let out =
        Array.init (Array.length isas) (fun i ->
            skipped_cell isas.(i) (case_id cfg ~isa:isas.(i) ~kernel))
      in
      let workers =
        Array.init (Fleet.jobs fl) (fun _ -> Supervisor.worker_ctx ?obs ?stats ())
      in
      let finish () =
        Array.iter (Supervisor.join_worker_ctx ?obs ?stats ~into:mobs) workers
      in
      (try
         Fleet.run fl ~workers
           ~tasks:
             (Array.map
                (fun i (ws : Supervisor.worker_ctx) ->
                  run_one ?obs:ws.Supervisor.wc_obs
                    ?stats:ws.Supervisor.wc_stats ~index:(Int64.of_int i)
                    isas.(i))
                todo)
           ~complete:(fun t o ->
             let i = todo.(t) in
             out.(i) <- settle isas.(i) (case_id cfg ~isa:isas.(i) ~kernel) o)
       with exn ->
         finish ();
         Journal.close w;
         raise exn);
      finish ();
      Array.to_list out
    | _ ->
      List.mapi
        (fun i isa ->
          let case = case_id cfg ~isa ~kernel in
          if Journal.is_complete view case then begin
            let cell = skipped_cell isa case in
            tick_metrics ();
            cell
          end
          else settle isa case (run_one ?obs ?stats ~index:(Int64.of_int i) isa))
        isas
  in
  Journal.close w;
  cells

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
