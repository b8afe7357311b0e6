(** Static instruction classification derived from the specification.

    Timing simulators need to know which instructions access memory or
    redirect control flow. Because instruction semantics are specified
    once in the IR, this is computed — not hand-maintained per ISA. *)

type kind = {
  is_load : bool;
  is_store : bool;
  is_branch : bool;  (** may write next_pc *)
  is_syscall : bool;
  dest_regs : (int * Semir.Ir.cell) array;
      (** write-operands: (register class, id cell) — for scoreboarding *)
  src_regs : (int * Semir.Ir.cell) array;
}

let rec expr_has_load (e : Semir.Ir.expr) =
  match e with
  | Load _ -> true
  | Const _ | Cell _ | Enc _ | Pc | Next_pc -> false
  | Bin (_, a, b) -> expr_has_load a || expr_has_load b
  | Un (_, a) -> expr_has_load a
  | Ite (c, a, b) -> expr_has_load c || expr_has_load a || expr_has_load b
  | Reg_read { index; _ } -> expr_has_load index

let rec stmt_scan (ld, st, br, sy) (s : Semir.Ir.stmt) =
  match s with
  | Set_cell (_, e) -> (ld || expr_has_load e, st, br, sy)
  | Store _ -> (ld, true, br, sy)
  | Set_next_pc _ -> (ld, st, true, sy)
  | Reg_write { index; value; _ } ->
    (ld || expr_has_load index || expr_has_load value, st, br, sy)
  | If (c, t, f) ->
    let acc = (ld || expr_has_load c, st, br, sy) in
    let acc = List.fold_left stmt_scan acc t in
    List.fold_left stmt_scan acc f
  | Fault_unaligned e -> (ld || expr_has_load e, st, br, sy)
  | Syscall -> (ld, st, br, true)
  | Fault_illegal | Fault_arith _ | Halt -> (ld, st, br, sy)

let of_instr (i : Lis.Spec.instr) : kind =
  let programs =
    i.i_decode :: i.i_read :: i.i_writeback :: List.map snd i.i_user
  in
  let ld, st, br, sy =
    List.fold_left
      (fun acc p -> List.fold_left stmt_scan acc p)
      (false, false, false, false)
      programs
  in
  let dest_regs =
    Array.of_list
      (Array.to_list i.i_operands
      |> List.filter (fun (o : Lis.Spec.operand) -> o.op_write)
      |> List.map (fun (o : Lis.Spec.operand) -> (o.op_cls, o.op_id_cell)))
  in
  let src_regs =
    Array.of_list
      (Array.to_list i.i_operands
      |> List.filter (fun (o : Lis.Spec.operand) -> o.op_read)
      |> List.map (fun (o : Lis.Spec.operand) -> (o.op_cls, o.op_id_cell)))
  in
  { is_load = ld; is_store = st; is_branch = br; is_syscall = sy; dest_regs; src_regs }

(* A spec is immutable once loaded, and timing models classify it on
   every run (Directed.run, Funcfirst.create: one per benchmark sample,
   often alternating between ISAs), so the tables of the last
   [cache_size] specs classified are kept and shared: classifying one
   again is a physical-equality lookup. Ephemerons keep a table only
   while its spec lives; the list is atomic because domains synthesize
   in parallel. *)
let cache_size = 8

let cache : (Lis.Spec.t, kind array) Ephemeron.K1.t list Atomic.t = Atomic.make []

(** [of_spec spec] classifies every instruction, indexed by instruction id. *)
let of_spec (spec : Lis.Spec.t) : kind array =
  let cached = Atomic.get cache in
  match List.find_map (fun e -> Ephemeron.K1.query e spec) cached with
  | Some kinds -> kinds
  | None ->
    let kinds = Array.map of_instr spec.instrs in
    Atomic.set cache
      (Ephemeron.K1.make spec kinds :: List.filteri (fun i _ -> i < cache_size - 1) cached);
    kinds

type visible = {
  srcs : int array;
  dests : int array;
}

let visible ~base ~(slot_of_cell : int array) (i : Lis.Spec.instr) =
  let pairs keep =
    Array.to_list i.i_operands
    |> List.concat_map (fun (o : Lis.Spec.operand) ->
           let s = slot_of_cell.(o.op_id_cell) in
           if keep o && s >= 0 then [ base o.op_cls; s ] else [])
    |> Array.of_list
  in
  { srcs = pairs (fun o -> o.op_read); dests = pairs (fun o -> o.op_write) }
