(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (retained
    DI slots vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and every
    instruction is specialized against its concrete encoding and cached
    (the binary-translation analog) — in basic blocks on block-semantic
    buildsets, one instruction at a time on the others. *)

exception Synth_error of string

(** Execution backend: [Compiled] closures (default) or the reference
    [Interpreted] AST walker (paper footnote 5's baseline). *)
type backend = Compiled | Interpreted

(** Deliberate block-engine defects for mutation-testing the conformance
    fuzzer ([lisim fuzz --mutate]): [Stale_chain] trusts successor-cache
    links and cached blocks without re-checking [b_valid],
    [Skip_invalidate] drops the code-write hook so stores never
    invalidate translated blocks, and [Stride4] hard-codes a 4-byte
    stride in block pc arrays. They apply to block-semantic buildsets
    only. A healthy differential fuzzer must detect all three (see
    {!Fuzz.Driver}). *)
type mutation = Stale_chain | Skip_invalidate | Stride4

val mutation_to_string : mutation -> string

(** Inverse of {!mutation_to_string}; [None] on unknown names. *)
val mutation_of_string : string -> mutation option

(** Compilation-time view of an entrypoint's parts, exposed for {!Emit}
    and for tests. *)
type seg = Seg_fetch | Seg_decode | Seg_ir of Lis.Spec.action_sym list

(** Sliding rollback-horizon (instructions) for speculative interfaces. *)
val spec_window : int

val segments_of_entrypoint : Lis.Spec.action_sym list -> seg list

(** IR contributed by one action symbol / one segment for an instruction. *)
val sym_ir : Lis.Spec.instr -> Lis.Spec.action_sym -> Semir.Ir.program

val seg_ir : Lis.Spec.instr -> seg -> Semir.Ir.program

(** [make ?backend ?allow_hidden_crossing ?absint ?mutate ?obs ?st spec
    buildset] synthesizes the interface. A fresh machine is created
    unless [st] is given (sharing [st] across interfaces is how sampling
    and rotating validation work).

    Every interface gets the same translation-cache engine with one
    executor. A unit is the code translated from one pc: a basic block
    of up to 64 sites on block-semantic buildsets, one site on the
    others. A site is one instruction specialized against its encoding
    ([Opt.optimize ~enc]), one compiled segment per entrypoint, shared
    through an [(instr, encoding)] cache (stats [sites_compiled],
    [site_cache_hits]) with per-site memory fast paths. Units carry a
    bi-morphic successor cache so hot edges dispatch unit-to-unit without
    a hash probe (stats [chain_taken]/[chain_miss]), and pages holding
    translated code are tracked so writes to them invalidate the affected
    units and chain links — self-modifying code observes its own stores.
    [run_block], [run_one] (the first site of the unit at the fetch pc)
    and [run_fast] run the same site loop; [run_fast] fills DI records
    only on journaled or fully observed interfaces. A [step] on a
    fetching entrypoint records the unit on the DI record
    ({!Di.t.fetched}); the later steps run its segments without reading
    memory or probing a table, so decode sees the encoding read at fetch
    time. [mutate] deliberately re-breaks the block engine (one
    {!mutation} bug class) — for fuzzer validation only, never for real
    simulation.

    [absint] (default on) runs {!Analysis.Absint} at synthesis time:
    translated blocks made only of classes proved store- and
    syscall-free skip the per-site SMC recheck (they cannot invalidate
    themselves mid-run; invalidation between runs is still honored). The
    analysis is advisory — [absint:false] degrades every verdict to
    "unsafe" and reproduces the unanalyzed engine. Stats [absint_ns],
    [fastpath_classes], [stable_blocks].

    [obs], when given, compiles instrumentation into the interface's
    call paths: every entrypoint crossing is counted
    ("synth.entrypoint_calls", "synth.ep.<name>.calls") and timed into
    log2 histograms ("synth.ep.<name>.ns"; blocks as a whole into
    "synth.block.ns"), translation-cache and fused-closure statistics
    are exported as "core.*" gauges, and — when the context carries a
    trace ring — one event is recorded per instruction (or per block). Without [obs] the interface
    is byte-for-byte the uninstrumented one: the zero-overhead
    guarantee, same compiled-in pattern as {!Semir.Hooks}.
    @raise Synth_error when the buildset hides a cell that crosses
    entrypoint boundaries (override with [allow_hidden_crossing] to
    observe the paper's runtime manifestation of the bug). *)
val make :
  ?backend:backend ->
  ?allow_hidden_crossing:bool ->
  ?absint:bool ->
  ?mutate:mutation ->
  ?obs:Obs.t ->
  ?st:Machine.State.t ->
  Lis.Spec.t ->
  string ->
  Iface.t
