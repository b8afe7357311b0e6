(** Domain fleet. See the interface for the contract; this comment is
    about the moving parts.

    Batch lifecycle: the collector waits until every worker is parked,
    loads the deques round-robin (task [k] to deque [k mod jobs],
    highest index first so owners pop in ascending order), then bumps
    the epoch and broadcasts. Workers wake, drain — own deque first
    (LIFO), then steal sweeps over the others (FIFO) — and park again
    when a full sweep finds nothing: tasks are only injected between
    epochs, so an empty sweep means the batch has no undispatched work
    left. Deque ownership is honored by the handoff: the collector
    touches a deque only while its owner is parked (the epoch mutex
    orders the two), so each deque has exactly one pusher at any time.

    Completions flow through a mutex-guarded queue of task indices; the
    result payload rides in a plain array, published by the queue's
    mutex ordering. Task exceptions are captured with their backtraces
    and re-raised on the collector once the batch has fully drained —
    never mid-batch, so the journal keeps every completed case even
    when a sibling case dies. *)

module Deque = Deque

type 'a outcome = Ret of 'a | Raised of exn * Printexc.raw_backtrace

type t = {
  n_jobs : int;
  deques : (int -> unit) Deque.t array;  (** thunks take the executing slot *)
  lock : Mutex.t;
  cond : Condition.t;  (** epoch bumps, worker parking, and stop *)
  mutable epoch : int;
  mutable parked : int;  (** workers waiting for the next epoch *)
  mutable stop : bool;
  done_lock : Mutex.t;
  done_cond : Condition.t;
  done_q : int Queue.t;  (** completed task indices, collector-drained *)
  mutable domains : unit Domain.t array;
}

let jobs t = t.n_jobs

let worker t slot =
  let mine = t.deques.(slot) in
  let steal_sweep () =
    let rec go i =
      if i >= t.n_jobs then None
      else
        let victim = (slot + i) mod t.n_jobs in
        match Deque.steal t.deques.(victim) with
        | Some f -> Some f
        | None -> go (i + 1)
    in
    go 1
  in
  let rec drain () =
    match Deque.pop mine with
    | Some f ->
      f slot;
      drain ()
    | None -> (
      match steal_sweep () with
      | Some f ->
        f slot;
        drain ()
      | None -> ())
  in
  let rec park epoch =
    Mutex.lock t.lock;
    t.parked <- t.parked + 1;
    if t.parked = t.n_jobs then Condition.broadcast t.cond;
    while (not t.stop) && t.epoch = epoch do
      Condition.wait t.cond t.lock
    done;
    let e = t.epoch and stop = t.stop in
    Mutex.unlock t.lock;
    if not stop then begin
      drain ();
      park e
    end
  in
  park 0

let create ?jobs:(n = Domain.recommended_domain_count ()) () =
  if n <= 0 then
    Machine.Sim_error.raisef ~component:"fleet"
      ~context:[ ("jobs", string_of_int n) ]
      "fleet size must be positive";
  let t =
    {
      n_jobs = n;
      deques = Array.init n (fun _ -> Deque.create ());
      lock = Mutex.create ();
      cond = Condition.create ();
      epoch = 0;
      parked = 0;
      stop = false;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      done_q = Queue.create ();
      domains = [||];
    }
  in
  if n > 1 then
    t.domains <-
      Array.init n (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

(* One job: each task runs on the calling domain, in index order, and is
   completed before the next starts; an exception leaves at once. *)
let run_inline t ~workers ~tasks ~complete =
  if t.stop then
    Machine.Sim_error.raisef ~component:"fleet" "fleet is shut down";
  Array.iteri (fun k task -> complete k (task workers.(0))) tasks

let run (type w a) t ~(workers : w array) ~(tasks : (w -> a) array)
    ~(complete : int -> a -> unit) =
  let n = Array.length tasks in
  if Array.length workers <> t.n_jobs then
    Machine.Sim_error.raisef ~component:"fleet"
      ~context:
        [
          ("jobs", string_of_int t.n_jobs);
          ("workers", string_of_int (Array.length workers));
        ]
      "per-worker state array must match the fleet size";
  if t.n_jobs = 1 then run_inline t ~workers ~tasks ~complete
  else if n > 0 then begin
    let results = Array.make n (Raised (Exit, Printexc.get_callstack 0)) in
    let thunk k slot =
      (results.(k) <-
        (try Ret (tasks.(k) workers.(slot))
         with exn -> Raised (exn, Printexc.get_raw_backtrace ())));
      Mutex.lock t.done_lock;
      Queue.push k t.done_q;
      Condition.signal t.done_cond;
      Mutex.unlock t.done_lock
    in
    (* wait out any stragglers of the previous batch, then hand off *)
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      Machine.Sim_error.raisef ~component:"fleet" "fleet is shut down"
    end;
    while t.parked < t.n_jobs do
      Condition.wait t.cond t.lock
    done;
    for k = n - 1 downto 0 do
      Deque.push t.deques.(k mod t.n_jobs) (thunk k)
    done;
    t.parked <- 0;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    (* collect: exactly one completion per task *)
    let first_err = ref None in
    let complete_err = ref None in
    for _ = 1 to n do
      Mutex.lock t.done_lock;
      while Queue.is_empty t.done_q do
        Condition.wait t.done_cond t.done_lock
      done;
      let k = Queue.pop t.done_q in
      Mutex.unlock t.done_lock;
      match results.(k) with
      | Ret v -> (
        match !complete_err with
        | Some _ -> ()  (* collector callback already failed: drain only *)
        | None -> (
          try complete k v
          with exn ->
            complete_err := Some (exn, Printexc.get_raw_backtrace ())))
      | Raised (exn, bt) -> (
        match !first_err with
        | Some (k0, _, _) when k0 < k -> ()
        | _ -> first_err := Some (k, exn, bt))
    done;
    match (!first_err, !complete_err) with
    | Some (_, exn, bt), _ | None, Some (exn, bt) ->
      Printexc.raise_with_backtrace exn bt
    | None, None -> ()
  end

let map t ~workers ~tasks =
  let out = Array.make (Array.length tasks) None in
  run t ~workers ~tasks ~complete:(fun k v -> out.(k) <- Some v);
  Array.map Option.get out

let shutdown t =
  Mutex.lock t.lock;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains
  end
  else Mutex.unlock t.lock

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
