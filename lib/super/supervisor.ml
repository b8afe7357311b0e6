(** Case supervisor: runs one campaign case under a deadline with
    bounded, deterministic retry.

    Failures are classified by {!Taxonomy.classify}:

    - transient failures are retried up to [max_attempts] times with
      exponential backoff whose jitter comes from the campaign's
      splitmix PRNG — two runs with the same seed sleep the same
      schedule, keeping supervised campaigns reproducible;
    - deterministic failures are returned immediately as {!Gave_up}
      (the caller quarantines them);
    - fatal (unclassified) failures are re-raised: the supervisor never
      converts an unknown crash into silent progress. *)

type config = {
  seed : int64;  (** campaign seed; jitter derives from it *)
  max_attempts : int;
  backoff_base_s : float;
  backoff_max_s : float;
  case_deadline_s : float option;
      (** per-attempt wall-clock allowance; the case body receives the
          absolute deadline and is expected to poll
          {!Inject.Watchdog.check_deadline} at its preemption points *)
}

let default =
  {
    seed = 0L;
    max_attempts = 3;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    case_deadline_s = None;
  }

(** Supervision counters, shared by the supervised campaign drivers.
    [probe]-registered so several drivers can attach to one registry. *)
type stats = {
  s_cases : Obs.Registry.counter;
  s_retries : Obs.Registry.counter;
  s_transient : Obs.Registry.counter;
  s_gave_up : Obs.Registry.counter;
  s_quarantined : Obs.Registry.counter;
  s_demotions : Obs.Registry.counter;
  s_replays : Obs.Registry.counter;
  s_slices : Obs.Registry.counter;
}

let of_registry (reg : Obs.Registry.t) : stats =
  {
    s_cases = Obs.Registry.counter reg "super.cases";
    s_retries = Obs.Registry.counter reg "super.retries";
    s_transient = Obs.Registry.counter reg "super.transient_failures";
    s_gave_up = Obs.Registry.counter reg "super.gave_up";
    s_quarantined = Obs.Registry.counter reg "super.quarantined";
    s_demotions = Obs.Registry.counter reg "super.demotions";
    s_replays = Obs.Registry.counter reg "super.replays";
    s_slices = Obs.Registry.counter reg "super.slices";
  }

let unregistered () = of_registry (Obs.Registry.create ())

type 'a outcome =
  | Done of 'a * int  (** result, attempts used *)
  | Gave_up of Taxonomy.failure * int
      (** last failure, attempts used; deterministic failures give up on
          attempt 1, transient ones after [max_attempts] *)

(** Deterministic backoff before retry [attempt] (1-based count of
    failures so far): exponential in the attempt number, capped, scaled
    by a jitter factor in [0.5, 1.5) drawn from the splitmix stream of
    [(seed, index)]. *)
let backoff_delay cfg ~index ~attempt =
  let exp = min cfg.backoff_max_s (cfg.backoff_base_s *. (2. ** float_of_int (attempt - 1))) in
  let jitter =
    0.5 +. Inject.Prng.uniform ~seed:cfg.seed ~index ~salt:(100 + attempt)
  in
  exp *. jitter

(** [run_case ?stats ?sleep cfg ~index f] runs [f ~deadline] under
    supervision. [index] is the case's position in the campaign stream
    (it salts the jitter). [sleep] is injectable for tests.
    @raise exn fatal (unclassified) exceptions are re-raised. *)
let run_case ?stats ?(sleep = Unix.sleepf) (cfg : config) ~index
    (f : deadline:float option -> 'a) : 'a outcome =
  Option.iter (fun s -> Obs.Registry.incr s.s_cases) stats;
  let rec attempt k =
    let deadline =
      Option.map (fun d -> Unix.gettimeofday () +. d) cfg.case_deadline_s
    in
    match f ~deadline with
    | v -> Done (v, k)
    | exception exn -> (
      let failure = Taxonomy.classify exn in
      match failure.Taxonomy.f_severity with
      | Taxonomy.Fatal -> raise exn
      | Taxonomy.Deterministic -> Gave_up (failure, k)
      | Taxonomy.Transient ->
        Option.iter (fun s -> Obs.Registry.incr s.s_transient) stats;
        if k >= cfg.max_attempts then Gave_up (failure, k)
        else begin
          Option.iter (fun s -> Obs.Registry.incr s.s_retries) stats;
          sleep (backoff_delay cfg ~index ~attempt:k);
          attempt (k + 1)
        end)
  in
  let out = attempt 1 in
  (match out with
  | Gave_up _ -> Option.iter (fun s -> Obs.Registry.incr s.s_gave_up) stats
  | Done _ -> ());
  out
