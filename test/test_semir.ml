(** SemIR: the closure compiler is property-tested against the reference
    interpreter, and every optimization pass must preserve semantics. *)

open Semir

let n_cells = 4
let n_classes = 2

(* Class 0 is a plain power-of-two class; class 1 is narrow, not a
   power of two and has a hardwired zero, so its dynamic indices are
   bounds-checked and its writes masked. *)
let classes =
  [
    { Machine.Regfile.cname = "R"; count = 8; width = 64; hardwired_zero = None };
    { Machine.Regfile.cname = "C"; count = 5; width = 12; hardwired_zero = Some 0 };
  ]

(* Constants at the edges of 64-bit arithmetic and of the compiler's
   small-constant operand range (2^59). *)
let edge_consts =
  [
    Int64.min_int; Int64.max_int; -1L; 0L; 63L; 64L; 65L; 127L; 0xFFFFFFFFL;
    Int64.shift_left 1L 59; Int64.pred (Int64.shift_left 1L 59);
    Int64.neg (Int64.shift_left 1L 59); Int64.pred (Int64.neg (Int64.shift_left 1L 59));
  ]

let gen_binop =
  QCheck.Gen.oneofl
    Ir.
      [
        Add; Sub; Mul; Mulhs; Mulhu; Divs; Divu; Rems; Remu; And; Or; Xor; Shl; Lshr; Ashr;
        Ror; Eq; Ne; Lts; Ltu; Les; Leu;
      ]

let gen_unop =
  QCheck.Gen.(
    oneof
      [
        return Ir.Neg;
        return Ir.Not;
        return Ir.Bool_not;
        map (fun n -> Ir.Sext (1 + (n mod 64))) nat;
        map (fun n -> Ir.Zext (1 + (n mod 64))) nat;
        oneofl [ Ir.Sext 64; Ir.Zext 64 ];
        return Ir.Popcount;
        return Ir.Clz;
        return Ir.Ctz;
      ])

let gen_const =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Ir.Const (Int64.of_int v)) int;
        map (fun v -> Ir.Const v) (oneofl edge_consts) ])

let gen_width = QCheck.Gen.oneofl Ir.[ W1; W2; W4; W8 ]

(* A class-1 register number: in range by construction, or — when
   [wild] — any value, so out-of-range indices must fail identically in
   both backends. *)
let c_index ~wild sub =
  QCheck.Gen.(
    if wild then oneof [ sub; map (fun k -> Ir.Const (Int64.of_int k)) (int_range (-2) 7) ]
    else
      oneof
        [ map (fun i -> Ir.Bin (And, i, Const 3L)) sub;
          map (fun k -> Ir.Const (Int64.of_int k)) (int_bound 4) ])

let rec gen_expr ?(wild = false) depth =
  let open QCheck.Gen in
  let leaves =
    [
      gen_const;
      map (fun c -> Ir.Cell (c mod n_cells)) nat;
      return Ir.Pc;
      return Ir.Next_pc;
      map
        (fun (lo, len) ->
          let lo = lo mod 60 and len = 1 + (len mod 4) in
          Ir.Enc { lo; len; signed = len mod 2 = 0 })
        (pair nat nat);
      map (fun k -> Ir.Reg_read { cls = 0; index = Const (Int64.of_int k) }) (int_bound 7);
      map (fun k -> Ir.Reg_read { cls = 1; index = Const (Int64.of_int k) }) (int_bound 4);
    ]
  in
  if depth <= 0 then oneof leaves
  else
    let sub = gen_expr ~wild (depth - 1) in
    oneof
      [
        gen_const;
        map (fun c -> Ir.Cell (c mod n_cells)) nat;
        map3 (fun op a b -> Ir.Bin (op, a, b)) gen_binop sub sub;
        map2 (fun op a -> Ir.Bin (op, a, Const 64L)) gen_binop sub;
        map2 (fun op a -> Ir.Un (op, a)) gen_unop sub;
        map3 (fun c a b -> Ir.Ite (c, a, b)) sub sub sub;
        (* loads restricted to a small window so states stay comparable *)
        map3
          (fun width signed a ->
            Ir.Load { width; signed; addr = Ir.Bin (And, a, Const 0xF8L) })
          gen_width bool sub;
        map
          (fun i ->
            Ir.Reg_read { cls = 0; index = Ir.Bin (And, i, Const 7L) })
          sub;
        map (fun index -> Ir.Reg_read { cls = 1; index }) (c_index ~wild sub);
      ]

let rec gen_stmt ?(wild = false) depth =
  let open QCheck.Gen in
  let e = gen_expr ~wild 2 in
  let base =
    [
      map2 (fun c v -> Ir.Set_cell (c mod n_cells, v)) nat e;
      map3
        (fun width a v ->
          Ir.Store { width; addr = Ir.Bin (And, a, Const 0xF8L); value = v })
        gen_width e e;
      map (fun v -> Ir.Set_next_pc v) e;
      map2
        (fun i v ->
          Ir.Reg_write { cls = 0; index = Ir.Bin (And, i, Const 7L); value = v })
        e e;
      map2
        (fun k v -> Ir.Reg_write { cls = 0; index = Const (Int64.of_int k); value = v })
        (int_bound 7) e;
      map2 (fun index v -> Ir.Reg_write { cls = 1; index; value = v }) (c_index ~wild e) e;
    ]
  in
  if depth <= 0 then oneof base
  else
    oneof
      (map3
         (fun c t f -> Ir.If (c, t, f))
         e
         (list_size (int_bound 3) (gen_stmt ~wild (depth - 1)))
         (list_size (int_bound 3) (gen_stmt ~wild (depth - 1)))
      :: base)

let gen_program ?wild () = QCheck.Gen.(list_size (int_bound 8) (gen_stmt ?wild 2))
let print_program = Format.asprintf "%a" (Ir.pp_program ?cell_name:None)
let arb_program = QCheck.make (gen_program ()) ~print:print_program

(* ------------------------------------------------------------------ *)
(* Execution harness                                                   *)
(* ------------------------------------------------------------------ *)

type mode = Interp | Compiled

let all_scratch = Array.init n_cells (fun i -> Frame.In_scratch i)

let fresh_state seed =
  let st = Machine.State.create ~endian:Machine.Memory.Little classes in
  for i = 0 to 7 do
    Machine.Regfile.write st.regs ~cls:0 ~idx:i (Int64.of_int ((seed * 31) + (i * 1234567)))
  done;
  for i = 0 to 4 do
    Machine.Regfile.write st.regs ~cls:1 ~idx:i (Int64.of_int ((seed * 17) + (i * 733)))
  done;
  for i = 0 to 31 do
    Machine.Memory.write st.mem
      ~addr:(Int64.of_int (i * 8))
      ~width:8
      (Int64.of_int ((seed * 7) + (i * 987654321)))
  done;
  st

let fresh_frame ?(loc = all_scratch) seed =
  let fr = Frame.create ~di_slots:n_cells ~scratch_slots:n_cells in
  let pc = Int64.of_int (4096 + (seed mod 64 * 4)) in
  Frame.set_pc fr pc;
  Frame.set_next_pc fr (Int64.add pc 4L);
  Frame.set_enc fr (Int64.of_int (seed * 2654435761));
  for i = 0 to n_cells - 1 do
    Frame.write fr loc.(i) (Int64.of_int ((seed * 13) + (i * 55555)))
  done;
  fr

let run mode ?(loc = all_scratch) p seed =
  let st = fresh_state seed in
  let fr = fresh_frame seed in
  (match mode with
  | Interp -> Eval.exec ~loc st fr p
  | Compiled -> (Compile.program ~layout:st.regs ~loc p) st fr);
  (st, fr)

let all_regs (st : Machine.State.t) =
  List.init (Machine.Regfile.total st.regs) (Machine.Regfile.read_flat st.regs)

let memory_window (st : Machine.State.t) =
  List.init 32 (fun i ->
      Machine.Memory.read st.mem ~addr:(Int64.of_int (i * 8)) ~width:8)

let observe_full (st, (fr : Frame.t)) =
  let cells = List.init n_cells (fun i -> Frame.read fr (In_scratch i)) in
  (all_regs st, memory_window st, cells, Frame.next_pc fr)

let observe_arch (st, (fr : Frame.t)) =
  (* architectural state only: what DCE must preserve *)
  (all_regs st, memory_window st, Frame.next_pc fr)

(* The shapes the synthesizer compiles: a given register layout, cells
   split between DI and scratch words, the per-site memory fast path on
   or off ([fast]) and, when [journaled], speculation hooks. The program runs twice, so
   the second pass hits the page caches the first one filled. Returns
   the exception message (if a register index was out of range), the
   state after the run, and whether rolling the journal back restored
   the pre-state. *)
let split_loc = Frame.[| In_di 0; In_scratch 0; In_di 1; In_scratch 1 |]

let run_synth_shape mode ~fast ~journaled p seed =
  let st = fresh_state seed in
  let fr = fresh_frame ~loc:split_loc seed in
  let pre = (all_regs st, memory_window st) in
  let j = Specsim.Specul.create () in
  let hooks = if journaled then Some (Specsim.Specul.hooks j) else None in
  let tok = Specsim.Specul.checkpoint j st in
  let exec =
    match mode with
    | Interp -> fun () -> Eval.exec ?hooks ~loc:split_loc st fr p
    | Compiled ->
      let code =
        Compile.program ?hooks ~layout:st.regs ~mem_fast_path:fast ~loc:split_loc p
      in
      fun () -> code st fr
  in
  let failure =
    match
      exec ();
      exec ()
    with
    | () -> None
    | exception Invalid_argument m -> Some m
  in
  let cells = List.init n_cells (fun c -> Frame.read fr split_loc.(c)) in
  let post =
    (all_regs st, memory_window st, cells, Frame.next_pc fr, st.halted, st.fault)
  in
  let restored =
    journaled
    && begin
         Specsim.Specul.rollback j st tok;
         (all_regs st, memory_window st) = pre
       end
  in
  (failure, post, restored)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_compile_matches_eval =
  QCheck.Test.make ~name:"compiled closures = reference interpreter" ~count:500
    QCheck.(
      quad
        (make ~print:print_program
           Gen.(bool >>= fun wild -> gen_program ~wild ()))
        small_nat bool bool)
    (fun (p, seed, fast, journaled) ->
      let ((_, _, restored_i) as i) = run_synth_shape Interp ~fast ~journaled p seed in
      let ((_, _, restored_c) as c) =
        run_synth_shape Compiled ~fast ~journaled p seed
      in
      i = c && ((not journaled) || (restored_i && restored_c)))

let prop_fold_preserves =
  QCheck.Test.make ~name:"constant folding preserves semantics" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      observe_full (run Compiled p seed)
      = observe_full (run Compiled (Opt.fold p) seed))

let prop_const_prop_preserves =
  QCheck.Test.make ~name:"constant propagation preserves semantics" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      observe_full (run Compiled p seed)
      = observe_full (run Compiled (Opt.const_prop p) seed))

let prop_dce_preserves_arch =
  QCheck.Test.make ~name:"DCE preserves architectural state" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let dced = Opt.dce ~keep:(fun _ -> false) p in
      observe_arch (run Compiled p seed) = observe_arch (run Compiled dced seed))

let prop_specialize_enc =
  QCheck.Test.make ~name:"encoding specialization preserves semantics"
    ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let fr = fresh_frame seed in
      let sp = Opt.specialize_enc ~enc:(Frame.enc fr) p in
      observe_full (run Compiled p seed) = observe_full (run Compiled sp seed))

let prop_full_pipeline =
  QCheck.Test.make ~name:"optimize pipeline preserves architectural state"
    ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let fr = fresh_frame seed in
      let opt = Opt.optimize ~enc:(Frame.enc fr) ~keep:(fun _ -> false) p in
      observe_arch (run Compiled p seed) = observe_arch (run Compiled opt seed))

(* ------------------------------------------------------------------ *)
(* Unit tests for scalar semantics                                     *)
(* ------------------------------------------------------------------ *)

let test_value_ops () =
  Alcotest.(check int64) "sext byte" (-1L) (Value.sext 0xFFL 8);
  Alcotest.(check int64) "sext positive" 0x7FL (Value.sext 0x7FL 8);
  Alcotest.(check int64) "zext" 0xFFL (Value.zext 0xFFFFFFFFFFFFFFFFL 8);
  Alcotest.(check int64) "ror" 0x8000000000000000L (Value.ror 1L 1);
  Alcotest.(check int64) "ror wrap" 1L (Value.ror 1L 64);
  Alcotest.(check int64) "popcount" 3L (Value.popcount 0b10101L);
  Alcotest.(check int64) "clz of 1" 63L (Value.clz 1L);
  Alcotest.(check int64) "clz of 0" 64L (Value.clz 0L);
  Alcotest.(check int64) "ctz" 3L (Value.ctz 8L);
  Alcotest.(check int64) "div by zero" 0L (Value.divs 5L 0L);
  Alcotest.(check int64) "min_int / -1" Int64.min_int (Value.divs Int64.min_int (-1L));
  Alcotest.(check int64) "unsigned div" 2L (Value.divu (-1L) 0x7FFFFFFFFFFFFFFFL)

let test_enc_bits () =
  let enc = 0xABCD1234L in
  Alcotest.(check int64) "low bits" 4L (Value.enc_bits enc ~lo:0 ~len:4 ~signed:false);
  Alcotest.(check int64) "mid bits" 0xCDL
    (Value.enc_bits enc ~lo:16 ~len:8 ~signed:false);
  Alcotest.(check int64) "signed bits" (-2L)
    (Value.enc_bits 0xEL ~lo:0 ~len:4 ~signed:true)

let test_validate () =
  (match Ir.validate ~n_cells:2 ~n_classes:1 [ Ir.Set_cell (5, Const 0L) ] with
  | exception Ir.Invalid _ -> ()
  | () -> Alcotest.fail "expected Invalid");
  match
    Ir.validate ~n_cells:2 ~n_classes:1
      [ Ir.Reg_write { cls = 3; index = Const 0L; value = Const 0L } ]
  with
  | exception Ir.Invalid _ -> ()
  | () -> Alcotest.fail "expected Invalid"

let test_dce_keeps_side_effects () =
  (* A dead cell assignment is removed, a store never is. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 1L);
        Store { width = W8; addr = Const 0L; value = Const 42L };
      ]
  in
  let d = Opt.dce ~keep:(fun _ -> false) p in
  Alcotest.(check int) "only the store survives" 1 (List.length d)

let test_dce_keeps_visible () =
  let p = Ir.[ Set_cell (0, Const 1L); Set_cell (1, Const 2L) ] in
  let d = Opt.dce ~keep:(fun c -> c = 1) p in
  Alcotest.(check int) "one assignment survives" 1 (List.length d)

let test_dce_chain () =
  (* c0 feeds c1 feeds a store: everything live. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 7L);
        Set_cell (1, Bin (Add, Cell 0, Const 1L));
        Store { width = W8; addr = Const 0L; value = Cell 1 };
      ]
  in
  let d = Opt.dce ~keep:(fun _ -> false) p in
  Alcotest.(check int) "chain kept" 3 (List.length d)

let test_const_prop_folds_regid () =
  (* The block-specialization pattern: decode writes a constant id cell,
     operand read indexes a register with it. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 5L);
        Set_cell (1, Reg_read { cls = 0; index = Cell 0 });
      ]
  in
  match Opt.const_prop p with
  | [ _; Ir.Set_cell (1, Reg_read { index = Const 5L; _ }) ] -> ()
  | p' ->
    Alcotest.failf "register index not propagated: %a"
      (Ir.pp_program ?cell_name:None)
      p'

let suite =
  [
    Alcotest.test_case "scalar ops" `Quick test_value_ops;
    Alcotest.test_case "encoding bitfields" `Quick test_enc_bits;
    Alcotest.test_case "validate rejects bad IR" `Quick test_validate;
    Alcotest.test_case "DCE keeps side effects" `Quick test_dce_keeps_side_effects;
    Alcotest.test_case "DCE keeps visible cells" `Quick test_dce_keeps_visible;
    Alcotest.test_case "DCE keeps live chains" `Quick test_dce_chain;
    Alcotest.test_case "const-prop folds register ids" `Quick test_const_prop_folds_regid;
    QCheck_alcotest.to_alcotest prop_compile_matches_eval;
    QCheck_alcotest.to_alcotest prop_fold_preserves;
    QCheck_alcotest.to_alcotest prop_const_prop_preserves;
    QCheck_alcotest.to_alcotest prop_dce_preserves_arch;
    QCheck_alcotest.to_alcotest prop_specialize_enc;
    QCheck_alcotest.to_alcotest prop_full_pipeline;
  ]
