(** Rollback journal: speculation support synthesized into an interface.

    Logs the old value of every architectural write (via {!Semir.Hooks})
    made while a checkpoint is open; [rollback] replays the log backwards. Tokens are
    monotonically increasing ints; checkpoints nest. Speculation across a
    syscall is not supported (the OS emulator's buffers are not
    journaled). The hot paths are tuned: this journal is the entire cost
    of a speculative interface (paper Table III's last row). *)

type t

val create : unit -> t

(** Record the old value of a register / memory word about to be written,
    when a region is open (a write with none open cannot be rolled back
    and is not logged). Normally called through {!hooks} by compiled
    code. *)
val record_reg : t -> Machine.State.t -> int -> unit

val record_store : t -> Machine.State.t -> int64 -> int -> unit

(** Hooks to compile into speculative interfaces. *)
val hooks : t -> Semir.Hooks.t

(** [checkpoint t st] opens a speculative region, returning its token. *)
val checkpoint : t -> Machine.State.t -> int

(** [rollback t st token] undoes every architectural effect recorded since
    [checkpoint] returned [token], restoring pc, instruction count and any
    speculatively-raised fault.
    @raise Invalid_argument if the token was committed or never issued. *)
val rollback : t -> Machine.State.t -> int -> unit

(** [commit t token] declares everything up to and including the region
    opened at [token] non-speculative; when no open region remains the log
    resets to empty. *)
val commit : t -> int -> unit

(** Number of open (uncommitted) checkpoints. *)
val depth : t -> int

(** Discard committed log entries (bounded-memory sliding window);
    issued tokens remain valid. *)
val compact : t -> unit

(** Log sizes (registers, memory words), for tests and statistics. *)
val log_sizes : t -> int * int

(** Checkpoints ever issued (committed and live). *)
val checkpoints_issued : t -> int

(** Lifetime undo statistics: [(rollbacks, register writes undone,
    stores undone)]. Updated only on the rollback path. *)
val undo_stats : t -> int * int * int

(** Export journal state as "specul.*" pull gauges (zero fast-path cost). *)
val register_obs : t -> Obs.t -> unit

(** [auto_trim t ~window] keeps at most [window] open checkpoints by
    committing the oldest, and compacts once [window] committed ones
    have gathered; called once per instruction by the engine. *)
val auto_trim : t -> window:int -> unit
