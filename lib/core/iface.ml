(** The synthesized functional-to-timing simulator interface.

    A value of this type is what {!Synth.make} hands to a timing simulator:
    a functional simulator specialized to one buildset. The three semantic
    shapes of the paper map to three call styles:

    - [run_block]: one call executes a basic block (Block detail);
    - [run_one]: one call executes a single instruction (One detail);
    - [step]: one call executes one entrypoint of one dynamic instruction
      (Step detail) — the timing simulator controls when each piece of the
      instruction's behaviour happens.

    Informational detail is realized in the {!Di.t} records: only cells the
    buildset makes visible have DI slots ([slot_of]). Speculation, when
    enabled, gives per-instruction checkpoints ([Di.ckpt]) plus
    [rollback] / [redirect]. *)

type stats = {
  mutable blocks_compiled : int;  (** translation units (one site outside block mode) *)
  mutable block_hits : int;
      (** block dispatches served from the cache (chained or probed) *)
  mutable block_invalidations : int;
      (** [flush_code_cache] calls plus blocks killed by code writes *)
  mutable sites_compiled : int;
      (** encoding-specialized sites built, in every call style *)
  mutable site_cache_hits : int;
      (** site compilations avoided by the shared [(instr, encoding)]
          translation cache, in every call style *)
  mutable chain_taken : int;
      (** block dispatches resolved by a predecessor's successor cache *)
  mutable chain_miss : int;
      (** chained dispatches that fell back to the block hash table *)
  mutable instrs_executed : int64;  (** via this interface's calls *)
  mutable absint_ns : int;
      (** synthesis-time cost of the abstract-interpretation pass that
          gates the store-free optimizations (0 when disabled) *)
  mutable fastpath_classes : int;
      (** outside block mode, the instruction classes the analysis
          proved store- and syscall-free (reported; every site now has
          the memory fast path) *)
  mutable stable_blocks : int;
      (** translated blocks whose mid-run SMC recheck was elided: every
          site is statically store-free, so the block cannot invalidate
          itself *)
}

type t = {
  spec : Lis.Spec.t;
  bs : Lis.Spec.buildset;
  st : Machine.State.t;
  slots : Slots.t;
  journal : Specul.t option;
  entry_names : string array;
  operands : Classify.visible array;
      (** per class: the register operands this interface makes visible,
          computed once at synthesis *)
  run_one : Di.t -> unit;
      (** execute the instruction at the current fetch pc (the first
          site of its translation unit); commits state and advances the
          fetch pc *)
  run_block : unit -> Di.t array * int;
      (** execute a basic block at the current fetch pc; returns the DI
          records (engine-owned, valid until the next call) and the count *)
  step : Di.t -> int -> unit;
      (** [step di k] runs entrypoint [k] for [di]; the caller owns fetch
          redirection and retirement. A fetching entrypoint records the
          translation unit at [di.pc] on [di]; later entrypoints run its
          code. *)
  retire : Di.t -> unit;
      (** commit a stepped instruction: advance fetch pc to [di.next_pc]
          and count it as retired *)
  redirect : int64 -> unit;  (** set the fetch pc (branch redirect) *)
  checkpoint : unit -> int;
  rollback : int -> unit;
  commit_ckpt : int -> unit;
  flush_code_cache : unit -> unit;
      (** drop translation units (needed after replacing memory
          wholesale, e.g. a checkpoint restore) *)
  run_fast : int -> int;
      (** [run_fast n] executes at least [n] instructions (rounding up to
          a block boundary) through the fastest dispatch path of this
          interface — chained block-to-block dispatch when available —
          and returns the number actually executed (less than [n] only on
          halt/fault). Produces no DI records. *)
  prof : Obs.Prof.t option;
      (** the hot-region profiler this interface attributes to, when one
          was compiled in at synthesis ([Obs.t.prof]) *)
  stats : stats;
}

let n_entrypoints t = Array.length t.entry_names
let entry_name t k = t.entry_names.(k)

(** [slot_of t name] is the DI slot of cell [name] if visible in this
    interface. Timing simulators resolve the cells they consume once, at
    connection time. *)
let slot_of t name = Slots.slot_of_name t.spec t.slots name

(** [slot_of_exn t name] raises with a helpful message when the cell is
    hidden — the typical interface-mismatch error the paper describes. *)
let slot_of_exn t name =
  match slot_of t name with
  | Some s -> s
  | None ->
    Machine.Sim_error.raisef ~component:"interface"
      ~context:
        [ ("isa", t.spec.name); ("buildset", t.bs.bs_name); ("cell", name) ]
      "cell is not exposed by this interface (hidden by visibility)"

(** [rollback_di t di] undoes the architectural effects of [di] and every
    later instruction (requires a speculative buildset). *)
let rollback_di t (di : Di.t) =
  if di.ckpt < 0 then invalid_arg "rollback_di: no checkpoint on this DI";
  t.rollback di.ckpt

(** [run_n t n] executes up to [n] instructions through the fastest call
    style of this interface (chained blocks when available) and returns
    the number actually executed (less than [n] on halt/fault). This is
    the paper's "fast-forward" entry used during sampling. Each call
    returns after at most [n] instructions (plus block slack), which is
    the preemption point watchdogs and injectors rely on: chained
    dispatch cannot spin past the slice. *)
let run_n t n = t.run_fast n
