(** Typed intermediate representation for instruction semantics.

    LIS action bodies are parsed into this IR; the synthesizer then either
    interprets it ({!Eval}) or compiles it to OCaml closures ({!Compile})
    with a per-buildset storage mapping for cells.

    All values are 64-bit; narrower ISA types are expressed with explicit
    masking and sign/zero extension, exactly as a C implementation of a
    functional simulator would do with [uint64_t] plus casts. *)

(** Access width in bytes for memory operations. *)
type width = W1 | W2 | W4 | W8

let bytes_of_width = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8

type binop =
  | Add
  | Sub
  | Mul
  | Mulhs  (** high 64 bits of the signed 128-bit product *)
  | Mulhu
  | Divs  (** signed division; division by zero yields 0 *)
  | Divu
  | Rems
  | Remu
  | And
  | Or
  | Xor
  | Shl  (** shift amount taken modulo 64 *)
  | Lshr
  | Ashr
  | Ror  (** rotate right (64-bit); ISA-width rotates are built from this *)
  | Eq  (** comparisons produce 1 or 0 *)
  | Ne
  | Lts
  | Ltu
  | Les
  | Leu

type unop =
  | Neg
  | Not  (** bitwise complement *)
  | Bool_not  (** 0 -> 1, non-zero -> 0 *)
  | Sext of int  (** sign-extend from the low [n] bits, 1 <= n <= 64 *)
  | Zext of int  (** keep only the low [n] bits *)
  | Popcount
  | Clz  (** count leading zeros over 64 bits *)
  | Ctz

(** A cell is a named storage location of the dynamic-instruction frame:
    a LIS [field] (intermediate value) or an operand value / register id.
    Cells are identified by dense integer ids assigned by the front end;
    their storage (interface-visible slot vs. hidden scratch) is chosen
    per buildset by the synthesizer. *)
type cell = int

type expr =
  | Const of int64
  | Cell of cell
  | Enc of { lo : int; len : int; signed : bool }
      (** bitfield [lo, lo+len-1] of the instruction encoding *)
  | Pc  (** the instruction's own pc (not the machine fetch pc) *)
  | Next_pc
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Ite of expr * expr * expr
  | Load of { width : width; signed : bool; addr : expr }
  | Reg_read of { cls : int; index : expr }
      (** raw architectural register read, for state not modelled as a
          declared operand (rare; prefer operands) *)

type stmt =
  | Set_cell of cell * expr
  | Store of { width : width; addr : expr; value : expr }
  | Set_next_pc of expr
  | Reg_write of { cls : int; index : expr; value : expr }
  | If of expr * stmt list * stmt list
  | Fault_illegal
  | Fault_unaligned of expr
  | Fault_arith of string
  | Syscall
  | Halt  (** stop simulation without a fault (used by tests) *)

type program = stmt list

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let rec validate_expr ~n_cells ~n_classes = function
  | Const _ | Pc | Next_pc -> ()
  | Cell c ->
    if c < 0 || c >= n_cells then invalid "cell id %d out of range" c
  | Enc { lo; len; _ } ->
    if lo < 0 || len <= 0 || lo + len > 64 then
      invalid "encoding bitfield [%d,+%d] out of range" lo len
  | Bin (_, a, b) ->
    validate_expr ~n_cells ~n_classes a;
    validate_expr ~n_cells ~n_classes b
  | Un (op, a) ->
    (match op with
    | Sext n | Zext n ->
      if n < 1 || n > 64 then invalid "extension width %d out of range" n
    | Neg | Not | Bool_not | Popcount | Clz | Ctz -> ());
    validate_expr ~n_cells ~n_classes a
  | Ite (c, a, b) ->
    validate_expr ~n_cells ~n_classes c;
    validate_expr ~n_cells ~n_classes a;
    validate_expr ~n_cells ~n_classes b
  | Load { addr; _ } -> validate_expr ~n_cells ~n_classes addr
  | Reg_read { cls; index } ->
    if cls < 0 || cls >= n_classes then invalid "register class %d out of range" cls;
    validate_expr ~n_cells ~n_classes index

let rec validate_stmt ~n_cells ~n_classes = function
  | Set_cell (c, e) ->
    if c < 0 || c >= n_cells then invalid "cell id %d out of range" c;
    validate_expr ~n_cells ~n_classes e
  | Store { addr; value; _ } ->
    validate_expr ~n_cells ~n_classes addr;
    validate_expr ~n_cells ~n_classes value
  | Set_next_pc e -> validate_expr ~n_cells ~n_classes e
  | Reg_write { cls; index; value } ->
    if cls < 0 || cls >= n_classes then invalid "register class %d out of range" cls;
    validate_expr ~n_cells ~n_classes index;
    validate_expr ~n_cells ~n_classes value
  | If (c, t, f) ->
    validate_expr ~n_cells ~n_classes c;
    List.iter (validate_stmt ~n_cells ~n_classes) t;
    List.iter (validate_stmt ~n_cells ~n_classes) f
  | Fault_unaligned e -> validate_expr ~n_cells ~n_classes e
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> ()

(** [validate ~n_cells ~n_classes p] checks all cell ids and register
    classes are in range. @raise Invalid otherwise. *)
let validate ~n_cells ~n_classes p =
  List.iter (validate_stmt ~n_cells ~n_classes) p

(* ------------------------------------------------------------------ *)
(* Def/use analysis (drives the synthesizer's liveness check and DCE)  *)
(* ------------------------------------------------------------------ *)

let rec expr_cells acc = function
  | Const _ | Pc | Next_pc | Enc _ -> acc
  | Cell c -> c :: acc
  | Bin (_, a, b) -> expr_cells (expr_cells acc a) b
  | Un (_, a) -> expr_cells acc a
  | Ite (c, a, b) -> expr_cells (expr_cells (expr_cells acc c) a) b
  | Load { addr; _ } -> expr_cells acc addr
  | Reg_read { index; _ } -> expr_cells acc index

(** Cells read anywhere in a statement (including both branches of [If]). *)
let rec stmt_reads acc = function
  | Set_cell (_, e) | Set_next_pc e | Fault_unaligned e -> expr_cells acc e
  | Store { addr; value; _ } -> expr_cells (expr_cells acc addr) value
  | Reg_write { index; value; _ } -> expr_cells (expr_cells acc index) value
  | If (c, t, f) ->
    let acc = expr_cells acc c in
    let acc = List.fold_left stmt_reads acc t in
    List.fold_left stmt_reads acc f
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> acc

(** Cells possibly written by a statement. *)
let rec stmt_writes acc = function
  | Set_cell (c, _) -> c :: acc
  | If (_, t, f) ->
    let acc = List.fold_left stmt_writes acc t in
    List.fold_left stmt_writes acc f
  | Store _ | Set_next_pc _ | Reg_write _ | Fault_illegal | Fault_unaligned _
  | Fault_arith _ | Syscall | Halt ->
    acc

let rec expr_enc_bits acc = function
  | Enc { lo; len; _ } ->
    let field = if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L in
    Int64.logor acc (Int64.shift_left field lo)
  | Const _ | Cell _ | Pc | Next_pc -> acc
  | Un (_, a) | Load { addr = a; _ } | Reg_read { index = a; _ } -> expr_enc_bits acc a
  | Bin (_, a, b) -> expr_enc_bits (expr_enc_bits acc a) b
  | Ite (c, a, b) -> expr_enc_bits (expr_enc_bits (expr_enc_bits acc c) a) b

let rec stmt_enc_bits acc = function
  | Set_cell (_, e) | Set_next_pc e | Fault_unaligned e -> expr_enc_bits acc e
  | Store { addr = a; value = b; _ } | Reg_write { index = a; value = b; _ } ->
    expr_enc_bits (expr_enc_bits acc a) b
  | If (c, t, f) ->
    List.fold_left stmt_enc_bits (List.fold_left stmt_enc_bits (expr_enc_bits acc c) t) f
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> acc

(** [program_enc_bits p] is the mask of encoding bits [p] reads: two
    encodings that agree on them specialize [p] identically. *)
let program_enc_bits p = List.fold_left stmt_enc_bits 0L p

let program_reads p = List.fold_left stmt_reads [] p
let program_writes p = List.fold_left stmt_writes [] p

(** A statement has an effect beyond writing cells (memory, registers,
    control flow, faults): such statements are never dead. *)
let rec stmt_has_side_effect = function
  | Set_cell _ -> false
  | Store _ | Set_next_pc _ | Reg_write _ | Fault_illegal | Fault_unaligned _
  | Fault_arith _ | Syscall | Halt ->
    true
  | If (_, t, f) ->
    List.exists stmt_has_side_effect t || List.exists stmt_has_side_effect f

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Mulhs -> "*hs"
  | Mulhu -> "*hu"
  | Divs -> "/s"
  | Divu -> "/u"
  | Rems -> "%s"
  | Remu -> "%u"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Lshr -> ">>u"
  | Ashr -> ">>s"
  | Ror -> "ror"
  | Eq -> "=="
  | Ne -> "!="
  | Lts -> "<s"
  | Ltu -> "<u"
  | Les -> "<=s"
  | Leu -> "<=u"

let rec pp_expr ?cell_name ppf e =
  let pp = pp_expr ?cell_name in
  let cell c =
    match cell_name with Some f -> f c | None -> Printf.sprintf "c%d" c
  in
  match e with
  | Const v -> Format.fprintf ppf "%Ld" v
  | Cell c -> Format.pp_print_string ppf (cell c)
  | Enc { lo; len; signed } ->
    Format.fprintf ppf "enc%s[%d:%d]" (if signed then "s" else "") (lo + len - 1) lo
  | Pc -> Format.pp_print_string ppf "pc"
  | Next_pc -> Format.pp_print_string ppf "next_pc"
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (string_of_binop op) pp b
  | Un (Neg, a) -> Format.fprintf ppf "(- %a)" pp a
  | Un (Not, a) -> Format.fprintf ppf "(~ %a)" pp a
  | Un (Bool_not, a) -> Format.fprintf ppf "(! %a)" pp a
  | Un (Sext n, a) -> Format.fprintf ppf "sext(%a, %d)" pp a n
  | Un (Zext n, a) -> Format.fprintf ppf "zext(%a, %d)" pp a n
  | Un (Popcount, a) -> Format.fprintf ppf "popcount(%a)" pp a
  | Un (Clz, a) -> Format.fprintf ppf "clz(%a)" pp a
  | Un (Ctz, a) -> Format.fprintf ppf "ctz(%a)" pp a
  | Ite (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b
  | Load { width; signed; addr } ->
    Format.fprintf ppf "load.%s%d(%a)"
      (if signed then "s" else "u")
      (8 * bytes_of_width width)
      pp addr
  | Reg_read { cls; index } -> Format.fprintf ppf "reg%d[%a]" cls pp index

let rec pp_stmt ?cell_name ppf s =
  let ppe = pp_expr ?cell_name in
  let cell c =
    match cell_name with Some f -> f c | None -> Printf.sprintf "c%d" c
  in
  match s with
  | Set_cell (c, e) -> Format.fprintf ppf "%s = %a;" (cell c) ppe e
  | Store { width; addr; value } ->
    Format.fprintf ppf "store.%d(%a, %a);" (8 * bytes_of_width width) ppe addr
      ppe value
  | Set_next_pc e -> Format.fprintf ppf "next_pc = %a;" ppe e
  | Reg_write { cls; index; value } ->
    Format.fprintf ppf "reg%d[%a] = %a;" cls ppe index ppe value
  | If (c, t, []) ->
    Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" ppe c (pp_block ?cell_name) t
  | If (c, t, f) ->
    Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}" ppe c
      (pp_block ?cell_name) t (pp_block ?cell_name) f
  | Fault_illegal -> Format.pp_print_string ppf "fault illegal;"
  | Fault_unaligned e -> Format.fprintf ppf "fault unaligned(%a);" ppe e
  | Fault_arith s -> Format.fprintf ppf "fault arith(%S);" s
  | Syscall -> Format.pp_print_string ppf "syscall;"
  | Halt -> Format.pp_print_string ppf "halt;"

and pp_block ?cell_name ppf stmts =
  Format.pp_print_list (pp_stmt ?cell_name) ppf stmts
    ~pp_sep:Format.pp_print_cut

let pp_program ?cell_name ppf p =
  Format.fprintf ppf "@[<v>%a@]" (pp_block ?cell_name) p
