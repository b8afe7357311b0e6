(** Static instruction classification derived from the specification:
    timing simulators learn which instructions load, store, branch or trap
    from the IR itself — never hand-maintained per ISA. *)

type kind = {
  is_load : bool;
  is_store : bool;
  is_branch : bool;  (** may write next_pc *)
  is_syscall : bool;
  dest_regs : (int * Semir.Ir.cell) array;
      (** write-operands: (register class, id cell) — for scoreboarding *)
  src_regs : (int * Semir.Ir.cell) array;
}

val of_instr : Lis.Spec.instr -> kind

(** [of_spec spec] classifies every instruction, indexed by instruction id.
    The tables of recently classified specs are shared between callers,
    who must not modify them. *)
val of_spec : Lis.Spec.t -> kind array

(** The register operands of one class that an interface makes visible:
    for each source (destination) operand, in the order of [src_regs]
    ([dest_regs]), whose id cell has a DI slot, the pair
    (register-file base of its class, DI slot), laid out flat. *)
type visible = {
  srcs : int array;
  dests : int array;
}

(** [visible ~base ~slot_of_cell i] — [i]'s visible operands, given the
    register file's class bases and the interface's per-cell DI slots
    (-1 when hidden). *)
val visible : base:(int -> int) -> slot_of_cell:int array -> Lis.Spec.instr -> visible
