(** Destination-passing closure compiler for {!Ir} — the execution
    substrate of synthesized simulators (the analog of the paper's
    LLVM-based binary translation). Compilation happens once, at
    synthesis time; execution runs no IR dispatch and, outside the
    division, multiply-high, bit-count and memory slow paths, allocates
    nothing: every intermediate value lives in unboxed frame storage. *)

(** A compiled statement sequence. *)
type code = Machine.State.t -> Frame.t -> unit

val nop : code

(** [program ?hooks ~layout ?mem_fast_path ~loc p] compiles a whole
    action body. [hooks] intercept architectural writes for speculation
    journaling. [layout] resolves register classes and static register
    numbers to byte offsets; it must match the register file of every
    machine the code runs against. [mem_fast_path] (default off) gives
    every load/store site a one-entry page cache — a per-site software
    TLB — hitting the backing bytes directly and falling back to
    {!Machine.Memory} on page cross, memory change, or generation
    mismatch. Fast-path stores never cache code pages, so code-write
    hooks still fire; journaled stores (with [hooks]) always take the
    slow path.
    @raise Invalid_argument if an expression nests deeper than
    {!Frame.tmp_slots} temporaries. *)
val program :
  ?hooks:Hooks.t ->
  layout:Machine.Regfile.t ->
  ?mem_fast_path:bool ->
  loc:Frame.location array ->
  Ir.program ->
  code
