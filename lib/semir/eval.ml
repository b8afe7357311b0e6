(** Reference AST interpreter for {!Ir}.

    This is the unspecialized baseline of the paper's footnote 5 (the
    "interpreted rather than binary-translated style of execution"). It is
    also the oracle against which {!Compile} is property-tested. *)

open Machine

let mem_width (w : Ir.width) = Ir.bytes_of_width w

let rec expr (loc : Frame.location array) (st : State.t) (fr : Frame.t)
    (e : Ir.expr) : int64 =
  match e with
  | Const v -> v
  | Cell c -> Frame.read fr loc.(c)
  | Enc { lo; len; signed } -> Value.enc_bits (Frame.enc fr) ~lo ~len ~signed
  | Pc -> Frame.pc fr
  | Next_pc -> Frame.next_pc fr
  | Bin (op, a, b) ->
    (* operands left to right, as compiled code evaluates them: the
       order decides which out-of-range register index raises first *)
    let x = expr loc st fr a in
    let y = expr loc st fr b in
    (Value.binop op) x y
  | Un (op, a) -> (Value.unop op) (expr loc st fr a)
  | Ite (c, a, b) ->
    if Int64.equal (expr loc st fr c) 0L then expr loc st fr b
    else expr loc st fr a
  | Load { width; signed; addr } ->
    let a = expr loc st fr addr in
    if signed then Memory.read_signed st.mem ~addr:a ~width:(mem_width width)
    else Memory.read st.mem ~addr:a ~width:(mem_width width)
  | Reg_read { cls; index } ->
    Regaccess.read st.regs ~cls (expr loc st fr index)

let rec stmt (hooks : Hooks.t option) (loc : Frame.location array)
    (st : State.t) (fr : Frame.t) (s : Ir.stmt) : unit =
  match s with
  | Set_cell (c, e) -> Frame.write fr loc.(c) (expr loc st fr e)
  | Store { width; addr; value } ->
    let a = expr loc st fr addr in
    let v = expr loc st fr value in
    let w = mem_width width in
    (match hooks with Some h -> h.on_store st a w | None -> ());
    Memory.write st.mem ~addr:a ~width:w v
  | Set_next_pc e -> Frame.set_next_pc fr (expr loc st fr e)
  | Reg_write { cls; index; value } -> (
    let i = expr loc st fr index in
    let v = expr loc st fr value in
    match hooks with
    | None -> Regaccess.write st.regs ~cls i v
    | Some h ->
      let flat = Regaccess.flat st.regs ~cls i in
      h.on_reg_write st flat;
      Regfile.write_flat st.regs flat v)
  | If (c, t, f) ->
    if Int64.equal (expr loc st fr c) 0L then block hooks loc st fr f
    else block hooks loc st fr t
  | Fault_illegal ->
    State.raise_fault st (Fault.Illegal_instruction (Frame.enc fr))
  | Fault_unaligned e ->
    State.raise_fault st (Fault.Unaligned_access (expr loc st fr e))
  | Fault_arith msg -> State.raise_fault st (Fault.Arith msg)
  | Syscall -> st.syscall_handler st
  | Halt -> st.halted <- true

and block hooks loc st fr stmts = List.iter (stmt hooks loc st fr) stmts

(** [exec ~loc st fr p] interprets program [p] against frame [fr]. *)
let exec ?hooks ~loc st fr (p : Ir.program) = block hooks loc st fr p
