(** OCaml source emission: the code-generation face of synthesis.

    The closure specializer ({!Synth}) is how simulators execute in this
    process; [buildset_to_ocaml] emits the same specialized simulator as
    readable OCaml source — the analog of the paper's LIS-to-C++
    synthesis. The emitted text shows exactly what the buildset bought:
    hidden cells appear as scratch words (or vanish entirely under DCE),
    visible cells as unboxed stores into the DI info words, and each entrypoint is one function
    per instruction. It is what a user inspects to understand the cost of
    an interface, and what they would paste into a standalone project. *)

let buf_add = Buffer.add_string

let rec emit_expr (spec : Lis.Spec.t) (slots : Slots.t) b (e : Semir.Ir.expr) =
  let add = buf_add b in
  let sub e = emit_expr spec slots b e in
  match e with
  | Const v -> add (Printf.sprintf "0x%LxL" v)
  | Cell c -> (
    match slots.loc.(c) with
    | Semir.Frame.In_di i ->
      add
        (Printf.sprintf "(Machine.Raw.get64 fr.di %d (* %s *))" (8 * i)
           (Lis.Spec.cell_name spec c))
    | Semir.Frame.In_scratch i ->
      add
        (Printf.sprintf "(Machine.Raw.get64 fr.scratch %d (* %s *))" (8 * i)
           (Lis.Spec.cell_name spec c)))
  | Enc { lo; len; signed } ->
    add
      (Printf.sprintf "Semir.Value.enc_bits (enc fr) ~lo:%d ~len:%d ~signed:%b"
         lo len signed)
  | Pc -> add "(pc fr)"
  | Next_pc -> add "(next_pc fr)"
  | Bin (op, x, y) ->
    add "(";
    add
      (match op with
      | Add -> "Int64.add "
      | Sub -> "Int64.sub "
      | Mul -> "Int64.mul "
      | And -> "Int64.logand "
      | Or -> "Int64.logor "
      | Xor -> "Int64.logxor "
      | _ -> Printf.sprintf "Semir.Value.binop %s " (binop_name op));
    add "(";
    sub x;
    add ") (";
    sub y;
    add "))"
  | Un (op, x) ->
    add "(";
    (match op with
    | Neg -> add "Int64.neg "
    | Not -> add "Int64.lognot "
    | Sext n -> add (Printf.sprintf "(fun v -> Semir.Value.sext v %d) " n)
    | Zext n -> add (Printf.sprintf "(fun v -> Semir.Value.zext v %d) " n)
    | Bool_not | Popcount | Clz | Ctz ->
      add (Printf.sprintf "Semir.Value.unop %s " (unop_name op)));
    add "(";
    sub x;
    add "))"
  | Ite (c, x, y) ->
    add "(if not (Int64.equal (";
    sub c;
    add ") 0L) then (";
    sub x;
    add ") else (";
    sub y;
    add "))"
  | Load { width; signed; addr } ->
    add
      (Printf.sprintf "(Machine.Memory.%s st.Machine.State.mem ~addr:("
         (if signed then "read_signed" else "read"));
    sub addr;
    add (Printf.sprintf ") ~width:%d)" (Semir.Ir.bytes_of_width width))
  | Reg_read { cls; index } ->
    add (Printf.sprintf "(Semir.Regaccess.read st.Machine.State.regs ~cls:%d (" cls);
    sub index;
    add "))"

and binop_name : Semir.Ir.binop -> string = function
  | Add -> "Semir.Ir.Add"
  | Sub -> "Semir.Ir.Sub"
  | Mul -> "Semir.Ir.Mul"
  | Mulhs -> "Semir.Ir.Mulhs"
  | Mulhu -> "Semir.Ir.Mulhu"
  | Divs -> "Semir.Ir.Divs"
  | Divu -> "Semir.Ir.Divu"
  | Rems -> "Semir.Ir.Rems"
  | Remu -> "Semir.Ir.Remu"
  | And -> "Semir.Ir.And"
  | Or -> "Semir.Ir.Or"
  | Xor -> "Semir.Ir.Xor"
  | Shl -> "Semir.Ir.Shl"
  | Lshr -> "Semir.Ir.Lshr"
  | Ashr -> "Semir.Ir.Ashr"
  | Ror -> "Semir.Ir.Ror"
  | Eq -> "Semir.Ir.Eq"
  | Ne -> "Semir.Ir.Ne"
  | Lts -> "Semir.Ir.Lts"
  | Ltu -> "Semir.Ir.Ltu"
  | Les -> "Semir.Ir.Les"
  | Leu -> "Semir.Ir.Leu"

and unop_name : Semir.Ir.unop -> string = function
  | Neg -> "Semir.Ir.Neg"
  | Not -> "Semir.Ir.Not"
  | Bool_not -> "Semir.Ir.Bool_not"
  | Sext n -> Printf.sprintf "(Semir.Ir.Sext %d)" n
  | Zext n -> Printf.sprintf "(Semir.Ir.Zext %d)" n
  | Popcount -> "Semir.Ir.Popcount"
  | Clz -> "Semir.Ir.Clz"
  | Ctz -> "Semir.Ir.Ctz"

let rec emit_stmt spec slots b ~indent (s : Semir.Ir.stmt) =
  let add = buf_add b in
  let pad = String.make indent ' ' in
  add pad;
  (match s with
  | Semir.Ir.Set_cell (c, e) ->
    (match slots.Slots.loc.(c) with
    | Semir.Frame.In_di i ->
      add
        (Printf.sprintf "Machine.Raw.set64 fr.di %d (* %s *) (" (8 * i)
           (Lis.Spec.cell_name spec c))
    | Semir.Frame.In_scratch i ->
      add
        (Printf.sprintf "Machine.Raw.set64 fr.scratch %d (* %s *) (" (8 * i)
           (Lis.Spec.cell_name spec c)));
    emit_expr spec slots b e;
    add ");"
  | Store { width; addr; value } ->
    add "Machine.Memory.write st.Machine.State.mem ~addr:(";
    emit_expr spec slots b addr;
    add (Printf.sprintf ") ~width:%d (" (Semir.Ir.bytes_of_width width));
    emit_expr spec slots b value;
    add ");"
  | Set_next_pc e ->
    add "set_next_pc fr (";
    emit_expr spec slots b e;
    add ");"
  | Reg_write { cls; index; value } ->
    add (Printf.sprintf "Semir.Regaccess.write st.Machine.State.regs ~cls:%d (" cls);
    emit_expr spec slots b index;
    add ") (";
    emit_expr spec slots b value;
    add ");"
  | If (c, t, f) ->
    add "if not (Int64.equal (";
    emit_expr spec slots b c;
    add ") 0L) then begin\n";
    List.iter (emit_stmt spec slots b ~indent:(indent + 2)) t;
    add pad;
    (match f with
    | [] -> add "end;"
    | _ ->
      add "end else begin\n";
      List.iter (emit_stmt spec slots b ~indent:(indent + 2)) f;
      add pad;
      add "end;")
  | Fault_illegal ->
    add
      "Machine.State.raise_fault st (Machine.Fault.Illegal_instruction (enc fr));"
  | Fault_unaligned e ->
    add "Machine.State.raise_fault st (Machine.Fault.Unaligned_access (";
    emit_expr spec slots b e;
    add "));"
  | Fault_arith m ->
    add (Printf.sprintf "Machine.State.raise_fault st (Machine.Fault.Arith %S);" m)
  | Syscall -> add "st.Machine.State.syscall_handler st;"
  | Halt -> add "st.Machine.State.halted <- true;");
  add "\n"

let sanitize name =
  String.map (fun c -> if c = '.' || c = '-' then '_' else c) (String.lowercase_ascii name)

(** [buildset_to_ocaml spec bs_name] renders the specialized simulator for
    one buildset as OCaml source text. *)
let buildset_to_ocaml (spec : Lis.Spec.t) (bs_name : string) : string =
  let bs = Lis.Spec.find_buildset spec bs_name in
  let slots = Slots.make spec bs in
  let b = Buffer.create 65536 in
  buf_add b
    (Printf.sprintf
       "(* Synthesized functional simulator: ISA %s, interface %s.\n\
       \   Generated by Specsim.Emit — do not edit.\n\
       \   DI info slots: %d; hidden scratch slots: %d; speculation: %b. *)\n\n"
       spec.name bs.bs_name slots.di_size slots.scratch_size bs.bs_speculation);
  buf_add b "open Semir.Frame\n\n";
  let ep_segs =
    Array.map
      (fun (_, syms) -> Synth.segments_of_entrypoint syms)
      bs.bs_entrypoints
  in
  (* one function per class and segment: the segment's optimized IR,
     not specialized to an encoding *)
  let flat_segs = Array.to_list ep_segs |> List.concat in
  let flat = Array.of_list flat_segs in
  let n_segs = Array.length flat in
  Array.iter
    (fun (instr : Lis.Spec.instr) ->
      let irs = Array.map (Synth.seg_ir instr) flat in
      let module Iset = Set.Make (Int) in
      let downstream = Array.make (n_segs + 1) Iset.empty in
      for k = n_segs - 1 downto 0 do
        downstream.(k) <-
          Iset.union downstream.(k + 1)
            (Iset.of_list (Semir.Ir.program_reads irs.(k)))
      done;
      Array.iteri
        (fun k ir ->
          match flat.(k) with
          | Synth.Seg_fetch -> ()
          | Synth.Seg_decode | Synth.Seg_ir _ ->
            let keep c = bs.bs_visible.(c) || Iset.mem c downstream.(k + 1) in
            let ir = Semir.Opt.optimize ~keep ir in
            buf_add b
              (Printf.sprintf "let %s_seg%d (st : Machine.State.t) (fr : t) =\n"
                 (sanitize instr.i_name) k);
            if ir = [] then buf_add b "  ignore st; ignore fr; ()\n"
            else begin
              buf_add b "  ignore st;\n";
              List.iter (emit_stmt spec slots b ~indent:2) ir
            end;
            buf_add b "\n")
        irs)
    spec.instrs;
  (* dispatch tables *)
  Array.iteri
    (fun k seg ->
      match seg with
      | Synth.Seg_fetch -> ()
      | Synth.Seg_decode | Synth.Seg_ir _ ->
        buf_add b (Printf.sprintf "let seg%d_table = [|\n" k);
        Array.iter
          (fun (i : Lis.Spec.instr) ->
            buf_add b (Printf.sprintf "  %s_seg%d;\n" (sanitize i.i_name) k))
          spec.instrs;
        buf_add b "|]\n\n")
    flat;
  buf_add b
    (Printf.sprintf
       "(* Entrypoints (semantic detail): %s *)\n"
       (String.concat ", " (Array.to_list (Array.map fst bs.bs_entrypoints))));
  Buffer.contents b
