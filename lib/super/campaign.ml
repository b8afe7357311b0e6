(** One campaign skeleton: cases → fleet → journal → quarantine.

    Every campaign driver is a case list plus a per-case task run through
    this module: the supervised fuzz campaign ([Fuzz.Campaign.run]),
    supervised injection ({!Inject_run.run}), the bare divergence hunt
    ([Fuzz.Driver.hunt]) and unjournaled injection
    ({!Inject_run.reports}). Nothing here branches on the job count: a
    one-job {!Fleet} runs a batch inline on the calling domain, in index
    order, which is exactly a sequential loop. A missing [fleet] means
    one inline job.

    Worker state: at one job the only worker is the campaign's own
    [obs]/[stats], so a metrics series or profiler attached to them sees
    live counters; at more jobs each worker runs against a private
    mirror ({!worker}), folded back when the batch ends,
    normally or by an exception. Tasks run on workers and return plain
    values; every journal append and quarantine write happens on the
    calling domain. *)

(** A worker's instrumentation: at one job the campaign's own [obs] and
    [stats]; at more, a private mirror (an {!Obs} context like the
    caller's and supervision counters on that worker's own registry),
    present exactly when the caller's is. A task receives only its
    executing worker's state, so a cross-domain counter increment is
    unrepresentable. *)
type worker = { wc_obs : Obs.t option; wc_stats : Supervisor.stats option }

let mirror_obs (o : Obs.t) =
  let prof =
    Option.map
      (fun p -> Obs.Prof.create ~region_bits:(Obs.Prof.region_bits p) ())
      o.Obs.prof
  in
  if o.Obs.full then Obs.create ~trace:(o.Obs.ring <> None) ?prof ()
  else Obs.profile_only ?prof ()

let mirror ?obs ?stats () =
  let wc_obs = Option.map mirror_obs obs in
  let wc_stats =
    Option.map
      (fun _ ->
        Supervisor.of_registry
          (match wc_obs with
          | Some o -> o.Obs.reg
          | None -> Obs.Registry.create ()))
      stats
  in
  { wc_obs; wc_stats }

(* Fold a mirror back into the campaign's [obs]/[stats]. With an [obs]
   context the whole worker registry (super.* included, since worker
   stats register there) merges in one {!Obs.merge}; with only [stats],
   the supervision counters transfer field by field. Either way the
   totals are exactly what one domain would have counted. *)
let join ?obs ?stats (ws : worker) =
  match (obs, stats, ws.wc_obs, ws.wc_stats) with
  | Some into, _, Some wo, _ -> Obs.merge ~into wo
  | None, Some (d : Supervisor.stats), _, Some s ->
    let tr get = Obs.Registry.add (get d) (Obs.Registry.get (get s)) in
    tr (fun x -> x.Supervisor.s_cases);
    tr (fun x -> x.s_retries);
    tr (fun x -> x.s_transient);
    tr (fun x -> x.s_gave_up);
    tr (fun x -> x.s_quarantined);
    tr (fun x -> x.s_demotions);
    tr (fun x -> x.s_replays);
    tr (fun x -> x.s_slices)
  | _ -> ()

let with_fleet ?fleet f =
  match fleet with Some fl -> f fl | None -> Fleet.with_pool ~jobs:1 f

(* [f fl workers] with one worker per job, joined back on every exit *)
let with_workers ?fleet ?obs ?stats f =
  with_fleet ?fleet (fun fl ->
      if Fleet.jobs fl = 1 then f fl [| { wc_obs = obs; wc_stats = stats } |]
      else
        let workers =
          Array.init (Fleet.jobs fl) (fun _ -> mirror ?obs ?stats ())
        in
        Fun.protect
          ~finally:(fun () -> Array.iter (join ?obs ?stats) workers)
          (fun () -> f fl workers))

(** [fan_out ?fleet ?obs ?stats ~tasks ~complete ()] runs [tasks] on the
    fleet's workers (see {!Fleet.run} for [complete] and exceptions). *)
let fan_out ?fleet ?obs ?stats ~tasks ~complete () =
  with_workers ?fleet ?obs ?stats (fun fl workers ->
      Fleet.run fl ~workers ~tasks ~complete)

(** [map ?fleet ?obs ?stats tasks] — {!fan_out} collecting results by
    task index. *)
let map ?fleet ?obs ?stats tasks =
  with_workers ?fleet ?obs ?stats (fun fl workers ->
      Fleet.map fl ~workers ~tasks)

(** How the calling domain settles one executed case. *)
type verdict =
  | Pass of { attempts : int; detail : string option }
  | Quarantine of {
      attempts : int;
      detail : string;  (** journaled with [" -> <artifact path>"] *)
      artifact : string;  (** contents of the quarantine file *)
      digest : int64 option;
      level : string option;
    }
  | Gave_up of { attempts : int; detail : string }

type summary = {
  executed : int;  (** cases run this time *)
  skipped : int;  (** cases the journal already had *)
  torn : int;  (** unparsable journal lines tolerated on resume *)
  passed : int;
  quarantined : int;
  gave_up : int;
  retries : int;  (** attempts beyond the first, over all executed cases *)
}

(** [run ... ~cases ~task ~settle ()] — the journaled campaign.
    [cases.(i)] is case [i]'s id; with [resume], cases the journal at
    [journal] already has are skipped. Every other case runs
    [task i worker] on some worker, and the calling domain turns the
    result into a {!verdict} with [settle i], journals it (quarantining
    the artifact as [<case id><ext>] first) and ticks [metrics] against
    the campaign's [obs]. The journal opens with one meta line built
    from [meta] and is closed on every exit. *)
let run ?fleet ?obs ?stats ?metrics ~journal ~quarantine ~resume ~meta ~ext
    ~cases ~task ~settle () =
  let view =
    if resume then Journal.load ~path:journal else Journal.empty_view ()
  in
  let todo =
    List.init (Array.length cases) Fun.id
    |> List.filter (fun i -> not (Journal.is_complete view cases.(i)))
    |> Array.of_list
  in
  let q = Quarantine.create ~dir:quarantine in
  let w = Journal.open_ ~path:journal ~meta in
  let mobs = match obs with Some o -> o | None -> Obs.create () in
  let tick () = Option.iter (fun m -> Obs.metrics_tick m mobs) metrics in
  let passed = ref 0 and quarantined = ref 0 and gave_up = ref 0 in
  let retries = ref 0 in
  let complete t out =
    let i = todo.(t) in
    let case = cases.(i) in
    let entry =
      match settle i out with
      | Pass { attempts; detail } ->
        incr passed;
        retries := !retries + attempts - 1;
        Journal.entry ?detail ~attempts ~outcome:Journal.Pass case
      | Quarantine { attempts; detail; artifact; digest; level } ->
        let path = Quarantine.put q ~name:(case ^ ext) ~contents:artifact in
        Option.iter
          (fun s -> Obs.Registry.incr s.Supervisor.s_quarantined)
          stats;
        incr quarantined;
        retries := !retries + attempts - 1;
        Journal.entry ?digest ?level ~attempts ~outcome:Journal.Quarantined
          ~detail:(detail ^ " -> " ^ path)
          case
      | Gave_up { attempts; detail } ->
        incr gave_up;
        retries := !retries + attempts - 1;
        Journal.entry ~attempts ~outcome:Journal.Gave_up ~detail case
    in
    Journal.record w entry;
    tick ()
  in
  Fun.protect
    ~finally:(fun () -> Journal.close w)
    (fun () ->
      fan_out ?fleet ?obs ?stats ~tasks:(Array.map task todo) ~complete ();
      tick ());
  {
    executed = Array.length todo;
    skipped = Array.length cases - Array.length todo;
    torn = view.Journal.v_torn;
    passed = !passed;
    quarantined = !quarantined;
    gave_up = !gave_up;
    retries = !retries;
  }
