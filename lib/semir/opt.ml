(** IR-level optimizations used by the synthesizer.

    Three passes matter for the paper's results:

    - {!specialize_enc}: once an instruction is decoded, its encoding is a
      known constant; bitfield extractions fold away. This is the heart of
      the block-level "binary translation" win.
    - {!const_prop} + {!fold}: forward constant propagation through cells
      and algebraic folding, so register numbers become static indices.
    - {!dce}: backward dead-code elimination. A [Set_cell] whose target is
      hidden by the buildset and never read downstream is removed — the
      paper's "computation of information which is not actually needed
      semantically ... becomes dead code which can be optimized away". *)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let rec fold_expr (e : Ir.expr) : Ir.expr =
  match e with
  | Const _ | Cell _ | Enc _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> (
    let a = fold_expr a and b = fold_expr b in
    match (a, b) with
    | Const x, Const y -> Const ((Value.binop op) x y)
    | Const 0L, _ when op = Add -> b
    | _, Const 0L when op = Add || op = Sub || op = Or || op = Xor -> a
    | _, Const 0L when op = Shl || op = Lshr || op = Ashr -> a
    | _, Const 0L when op = And || op = Mul -> Const 0L
    | Const 0L, _ when op = And || op = Mul -> Const 0L
    | _, Const 1L when op = Mul -> a
    | Const 1L, _ when op = Mul -> b
    | _ -> Bin (op, a, b))
  | Un (op, a) -> (
    let a = fold_expr a in
    match a with
    | Const x -> Const ((Value.unop op) x)
    | _ -> Un (op, a))
  | Ite (c, a, b) -> (
    let c = fold_expr c and a = fold_expr a and b = fold_expr b in
    match c with
    | Const 0L -> b
    | Const _ -> a
    (* expressions have no effects, so the condition can go *)
    | _ when a = b -> a
    | _ -> Ite (c, a, b))
  | Load l -> Load { l with addr = fold_expr l.addr }
  | Reg_read r -> Reg_read { r with index = fold_expr r.index }

let rec fold_stmt (s : Ir.stmt) : Ir.stmt list =
  match s with
  | Set_cell (c, e) -> [ Set_cell (c, fold_expr e) ]
  | Store { width; addr; value } ->
    [ Store { width; addr = fold_expr addr; value = fold_expr value } ]
  | Set_next_pc e -> [ Set_next_pc (fold_expr e) ]
  | Reg_write { cls; index; value } ->
    [ Reg_write { cls; index = fold_expr index; value = fold_expr value } ]
  | If (c, t, f) -> (
    let c = fold_expr c in
    let t = fold_block t and f = fold_block f in
    match (c, t, f) with
    | Const 0L, _, f -> f
    | Const _, t, _ -> t
    | _, [], [] -> []
    | _ -> [ If (c, t, f) ])
  | Fault_unaligned e -> [ Fault_unaligned (fold_expr e) ]
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> [ s ]

and fold_block stmts = List.concat_map fold_stmt stmts

let fold (p : Ir.program) : Ir.program = fold_block p

(* ------------------------------------------------------------------ *)
(* Encoding specialization                                             *)
(* ------------------------------------------------------------------ *)

let rec subst_enc enc (e : Ir.expr) : Ir.expr =
  match e with
  | Enc { lo; len; signed } -> Const (Value.enc_bits enc ~lo ~len ~signed)
  | Const _ | Cell _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> Bin (op, subst_enc enc a, subst_enc enc b)
  | Un (op, a) -> Un (op, subst_enc enc a)
  | Ite (c, a, b) -> Ite (subst_enc enc c, subst_enc enc a, subst_enc enc b)
  | Load l -> Load { l with addr = subst_enc enc l.addr }
  | Reg_read r -> Reg_read { r with index = subst_enc enc r.index }

let rec subst_enc_stmt enc (s : Ir.stmt) : Ir.stmt =
  match s with
  | Set_cell (c, e) -> Set_cell (c, subst_enc enc e)
  | Store { width; addr; value } ->
    Store { width; addr = subst_enc enc addr; value = subst_enc enc value }
  | Set_next_pc e -> Set_next_pc (subst_enc enc e)
  | Reg_write { cls; index; value } ->
    Reg_write { cls; index = subst_enc enc index; value = subst_enc enc value }
  | If (c, t, f) ->
    If
      ( subst_enc enc c,
        List.map (subst_enc_stmt enc) t,
        List.map (subst_enc_stmt enc) f )
  | Fault_unaligned e -> Fault_unaligned (subst_enc enc e)
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> s

(** [specialize_enc ~enc p] replaces every encoding bitfield with its value
    under the concrete encoding [enc], then folds. *)
let specialize_enc ~enc (p : Ir.program) : Ir.program =
  fold (List.map (subst_enc_stmt enc) p)

(* ------------------------------------------------------------------ *)
(* Forward constant propagation through cells                          *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

let rec prop_expr env (e : Ir.expr) : Ir.expr =
  match e with
  | Cell c -> (
    match Imap.find_opt c env with Some v -> Const v | None -> e)
  | Const _ | Enc _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> Bin (op, prop_expr env a, prop_expr env b)
  | Un (op, a) -> Un (op, prop_expr env a)
  | Ite (c, a, b) -> Ite (prop_expr env c, prop_expr env a, prop_expr env b)
  | Load l -> Load { l with addr = prop_expr env l.addr }
  | Reg_read r -> Reg_read { r with index = prop_expr env r.index }

(* Straight-line propagation only: any write under an [If] invalidates the
   cell, which keeps the pass trivially sound. *)
let rec prop_block env (stmts : Ir.stmt list) : Ir.stmt list * int64 Imap.t =
  match stmts with
  | [] -> ([], env)
  | s :: rest ->
    let s, env =
      match s with
      | Ir.Set_cell (c, e) -> (
        let e = fold_expr (prop_expr env e) in
        match e with
        | Const v -> ([ Ir.Set_cell (c, e) ], Imap.add c v env)
        | _ -> ([ Ir.Set_cell (c, e) ], Imap.remove c env))
      | Store { width; addr; value } ->
        ( [ Store
              {
                width;
                addr = fold_expr (prop_expr env addr);
                value = fold_expr (prop_expr env value);
              } ],
          env )
      | Set_next_pc e -> ([ Set_next_pc (fold_expr (prop_expr env e)) ], env)
      | Reg_write { cls; index; value } ->
        ( [ Reg_write
              {
                cls;
                index = fold_expr (prop_expr env index);
                value = fold_expr (prop_expr env value);
              } ],
          env )
      | If (c, t, f) ->
        let c = fold_expr (prop_expr env c) in
        (* Branches are propagated with the incoming environment; cells
           written in either branch are invalidated afterwards. *)
        let t, _ = prop_block env t in
        let f, _ = prop_block env f in
        let written = Ir.program_writes (t @ f) in
        let env = List.fold_left (fun m c -> Imap.remove c m) env written in
        (fold_stmt (If (c, t, f)), env)
      | Fault_unaligned e -> ([ Fault_unaligned (fold_expr (prop_expr env e)) ], env)
      | Fault_illegal | Fault_arith _ | Syscall | Halt -> ([ s ], env)
    in
    let rest, env = prop_block env rest in
    (s @ rest, env)

let const_prop (p : Ir.program) : Ir.program = fst (prop_block Imap.empty p)

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

(* Backward pass. [live] is the set of cells whose current value may still
   be read later. [keep c] marks cells that must survive regardless (they
   are visible in the interface). *)
let rec dce_block ~keep (live : Iset.t) (stmts : Ir.stmt list) :
    Ir.stmt list * Iset.t =
  match stmts with
  | [] -> ([], live)
  | s :: rest -> (
    let rest, live = dce_block ~keep live rest in
    match s with
    | Ir.Set_cell (c, e) ->
      if keep c || Iset.mem c live then
        let live = Iset.remove c live in
        let live =
          List.fold_left (fun s c -> Iset.add c s) live (Ir.expr_cells [] e)
        in
        (Ir.Set_cell (c, e) :: rest, live)
      else (rest, live)
    | If (c, t, f) -> (
      let t, live_t = dce_block ~keep live t in
      let f, live_f = dce_block ~keep live f in
      let live = Iset.union live_t live_f in
      let live =
        List.fold_left (fun s c -> Iset.add c s) live (Ir.expr_cells [] c)
      in
      match (t, f) with
      | [], [] -> (rest, live)
      | _ -> (If (c, t, f) :: rest, live))
    | _ ->
      let live =
        List.fold_left (fun s c -> Iset.add c s) live (Ir.stmt_reads [] s)
      in
      (s :: rest, live))

(** [dce ~keep p] removes assignments to cells that are neither kept (the
    buildset makes them visible) nor read later in [p]. *)
let dce ~keep (p : Ir.program) : Ir.program =
  fst (dce_block ~keep Iset.empty p)

(** The synthesizer's standard pipeline for a fused action sequence. *)
let optimize ?enc ~keep (p : Ir.program) : Ir.program =
  let p = match enc with Some e -> List.map (subst_enc_stmt e) p | None -> p in
  p |> fold |> const_prop |> dce ~keep
