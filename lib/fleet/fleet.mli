(** Domain fleet: a fixed pool of OCaml 5 domains with per-worker
    work-stealing deques, for batches of independent campaign cases.

    The calling domain is the {e collector}: it distributes a batch,
    then consumes completions as workers finish — so all effectful
    aggregation (journal appends, quarantine writes, report counters)
    happens on one domain and needs no locking, while the pure
    per-case work spreads across the pool. Workers carry caller-typed
    per-worker state ([workers.(i)] for worker slot [i]); a task only
    ever sees the state of the worker that executes it, so domain-local
    resources (an {!Obs} registry, a synthesis cache) are threaded by
    construction — reaching another domain's state is a type error, not
    a data race.

    Exceptions raised by tasks are captured per task and re-raised on
    the collector after the batch drains (lowest task index first), so
    {!Machine.Sim_error} taxonomy and exit codes propagate unchanged.
    A one-job fleet is the sequential case of the same contract: no
    domain, tasks inline in index order, the first exception stops the
    batch. *)

module Deque = Deque

type t

(** [create ~jobs ()] spawns [jobs] worker domains (default
    {!Domain.recommended_domain_count}), parked until the first batch.
    [jobs] must be positive. A one-job fleet spawns no domain at all:
    its batches run inline on the calling domain (see {!run}). *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [run t ~workers ~tasks ~complete] executes every [tasks.(k)]
    exactly once on some worker, passing that worker's state, and calls
    [complete k result] on the calling domain as completions arrive
    (completion order is schedule-dependent; [k] is the task index).
    [workers] must have length [jobs t]. Returns when every task has
    completed and every completion has been consumed; if tasks raised,
    the exception of the lowest-indexed raising task is re-raised here
    (after all completions of successful tasks were delivered).

    With one job the batch runs inline on the calling domain, in index
    order: [tasks.(k)] runs, then [complete k], then [tasks.(k+1)]. The
    first exception (from a task or from [complete]) stops the batch at
    once — later tasks never run — which is exactly a sequential loop,
    so a caller never branches on the job count. *)
val run :
  t ->
  workers:'w array ->
  tasks:('w -> 'a) array ->
  complete:(int -> 'a -> unit) ->
  unit

(** [map t ~workers ~tasks] — {!run} collecting results by task index. *)
val map : t -> workers:'w array -> tasks:('w -> 'a) array -> 'a array

(** Stop and join all worker domains. The pool is unusable afterwards. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] — [create], run [f], always [shutdown]. *)
val with_pool : ?jobs:int -> (t -> 'b) -> 'b
