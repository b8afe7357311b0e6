(** Model-based property tests for the trickiest ISA semantics: the ARM
    shifter operand, PPC's rlwinm mask machinery, and Alpha's byte-zapper
    are each checked against independent OCaml models on random inputs.
    All four properties drive {!Gen_common.run_single} — one shared
    interface per ISA, one staged instruction per check. *)

let arm_iface = Gen_common.one_all Isa_arm.Arm.spec
let ppc_iface = Gen_common.one_all Isa_ppc.Ppc.spec
let alpha_iface = Gen_common.one_all Isa_alpha.Alpha.spec

(* ----------------------------------------------------------------- *)
(* ARM shifter operand (register shifted by immediate)                 *)
(* ----------------------------------------------------------------- *)

(* Independent model of the ARM v5 shifter (value only; carry is checked
   by targeted unit tests in test_arm.ml). *)
let arm_shifter_model ~typ ~imm5 ~rm ~carry_in =
  let rm = Int64.logand rm 0xFFFFFFFFL in
  let mask v = Int64.logand v 0xFFFFFFFFL in
  match typ with
  | 0 (* LSL *) -> mask (Int64.shift_left rm imm5)
  | 1 (* LSR *) -> if imm5 = 0 then 0L else Int64.shift_right_logical rm imm5
  | 2 (* ASR *) ->
    let s = Semir.Value.sext rm 32 in
    mask (Int64.shift_right s (if imm5 = 0 then 32 else imm5))
  | _ (* ROR / RRX *) ->
    if imm5 = 0 then
      mask
        (Int64.logor
           (Int64.shift_left (if carry_in then 1L else 0L) 31)
           (Int64.shift_right_logical rm 1))
    else
      mask
        (Int64.logor
           (Int64.shift_right_logical rm imm5)
           (Int64.shift_left rm (32 - imm5)))

let run_arm_mov ~typ ~imm5 ~rm_val ~carry_in =
  let st =
    Gen_common.run_single arm_iface
      ~pre:(fun st ->
        Machine.Regfile.write st.regs ~cls:0 ~idx:2 rm_val;
        Machine.Regfile.write st.regs ~cls:1 ~idx:2
          (if carry_in then 1L else 0L))
      (Isa_arm.Arm_asm.dp_reg ~op:13 ~rn:0 ~rd:1 ~rm:2 ~shift_type:typ
         ~shift_imm:imm5 ())
  in
  Machine.Regfile.read st.regs ~cls:0 ~idx:1

let prop_arm_shifter =
  QCheck.Test.make ~count:300 ~name:"ARM shifter matches independent model"
    QCheck.(quad (int_bound 3) (int_bound 31) (map Int64.of_int int) bool)
    (fun (typ, imm5, rm, carry_in) ->
      let rm = Int64.logand rm 0xFFFFFFFFL in
      Int64.equal
        (run_arm_mov ~typ ~imm5 ~rm_val:rm ~carry_in)
        (arm_shifter_model ~typ ~imm5 ~rm ~carry_in))

(* ----------------------------------------------------------------- *)
(* PPC rlwinm                                                          *)
(* ----------------------------------------------------------------- *)

let rlwinm_model ~rs ~sh ~mb ~me =
  let rs = Int64.logand rs 0xFFFFFFFFL in
  let rot =
    Int64.logand
      (Int64.logor (Int64.shift_left rs sh) (Int64.shift_right_logical rs (32 - sh)))
      0xFFFFFFFFL
  in
  (* mask of msb-first bit positions mb..me (wrapping) *)
  let bit i = Int64.shift_left 1L (31 - i) in
  let mask = ref 0L in
  let i = ref mb in
  let continue = ref true in
  while !continue do
    mask := Int64.logor !mask (bit !i);
    if !i = me then continue := false else i := (!i + 1) mod 32
  done;
  Int64.logand rot !mask

let run_ppc_rlwinm ~rs_val ~sh ~mb ~me =
  let st =
    Gen_common.run_single ppc_iface
      ~pre:(fun st -> Machine.Regfile.write st.regs ~cls:0 ~idx:5 rs_val)
      (Isa_ppc.Ppc_asm.rlwinm ~ra:3 ~rs:5 ~sh ~mb ~me ())
  in
  Machine.Regfile.read st.regs ~cls:0 ~idx:3

let prop_ppc_rlwinm =
  QCheck.Test.make ~count:300 ~name:"PPC rlwinm matches independent model"
    QCheck.(quad (map Int64.of_int int) (int_bound 31) (int_bound 31) (int_bound 31))
    (fun (rs, sh, mb, me) ->
      let rs = Int64.logand rs 0xFFFFFFFFL in
      Int64.equal (run_ppc_rlwinm ~rs_val:rs ~sh ~mb ~me)
        (rlwinm_model ~rs ~sh ~mb ~me))

(* ----------------------------------------------------------------- *)
(* Alpha ZAPNOT                                                        *)
(* ----------------------------------------------------------------- *)

let zapnot_model ~ra ~lit =
  let m = ref 0L in
  for i = 0 to 7 do
    if lit land (1 lsl i) <> 0 then
      m := Int64.logor !m (Int64.shift_left 0xFFL (8 * i))
  done;
  Int64.logand ra !m

let run_alpha_zapnot ~ra_val ~lit =
  let st =
    Gen_common.run_single alpha_iface
      ~pre:(fun st -> Machine.Regfile.write st.regs ~cls:0 ~idx:2 ra_val)
      (Isa_alpha.Alpha_asm.zapnot_lit ~ra:2 ~lit ~rc:1)
  in
  Machine.Regfile.read st.regs ~cls:0 ~idx:1

let prop_alpha_zapnot =
  QCheck.Test.make ~count:300 ~name:"Alpha zapnot matches independent model"
    QCheck.(pair (map Int64.of_int int) (int_bound 255))
    (fun (ra, lit) ->
      Int64.equal (run_alpha_zapnot ~ra_val:ra ~lit) (zapnot_model ~ra ~lit))

(* ----------------------------------------------------------------- *)
(* ARM flag semantics vs a 33-bit adder model                          *)
(* ----------------------------------------------------------------- *)

let run_arm_adds ~a ~b =
  let st =
    Gen_common.run_single arm_iface
      ~pre:(fun st ->
        Machine.Regfile.write st.regs ~cls:0 ~idx:2 a;
        Machine.Regfile.write st.regs ~cls:0 ~idx:3 b)
      (Isa_arm.Arm_asm.dp_reg ~s:true ~op:4 ~rn:2 ~rd:1 ~rm:3 ())
  in
  let f i = Machine.Regfile.read st.regs ~cls:1 ~idx:i in
  (Machine.Regfile.read st.regs ~cls:0 ~idx:1, f 0, f 1, f 2, f 3)

let prop_arm_add_flags =
  QCheck.Test.make ~count:300 ~name:"ARM ADDS flags match 33-bit adder model"
    QCheck.(pair (map Int64.of_int int) (map Int64.of_int int))
    (fun (a, b) ->
      let a = Int64.logand a 0xFFFFFFFFL and b = Int64.logand b 0xFFFFFFFFL in
      let sum = Int64.add a b in
      let result = Int64.logand sum 0xFFFFFFFFL in
      let n = Int64.shift_right_logical result 31 in
      let z = if Int64.equal result 0L then 1L else 0L in
      let c = Int64.shift_right_logical sum 32 in
      let sa = Semir.Value.sext a 32 and sb = Semir.Value.sext b 32 in
      let ssum = Int64.add sa sb in
      let v =
        if Int64.compare ssum (Int64.of_int32 Int32.min_int) < 0
           || Int64.compare ssum (Int64.of_int32 Int32.max_int) > 0
        then 1L
        else 0L
      in
      run_arm_adds ~a ~b = (result, n, z, c, v))

(* ----------------------------------------------------------------- *)
(* Translation validation: encoding-specialized code == the IR         *)
(* ----------------------------------------------------------------- *)

(* Every interface runs instruction sites compiled from
   [Opt.optimize ~enc ~keep] of the class's decode-plus-sequence IR. For
   every class of every shipped ISA, a random encoding of that class is
   run from random register and memory state twice: once by the
   reference interpreter on the unspecialized IR, once by the compiled,
   specialized site. Registers, memory, next pc, fault and the visible
   cells must agree. [keep] is the visibility of one_min (most DCE) or
   one_all (most cells compared), chosen per case. *)
let data_base = 0x2000L
let data_words = 256

let chain_ir (spec : Lis.Spec.t) (i : Lis.Spec.instr) =
  List.concat_map
    (function
      | Lis.Spec.A_decode -> i.i_decode | sym -> Specsim.Synth.sym_ir i sym)
    (Array.to_list spec.sequence)

(* Random machine state, a pure function of [seed]: every register is
   either a random word or a pointer into a random-filled data region. *)
let random_machine (spec : Lis.Spec.t) seed =
  let st = Lis.Spec.make_machine spec in
  let draw salt = Inject.Prng.draw ~seed ~index:0L ~salt in
  for w = 0 to data_words - 1 do
    Machine.Memory.write st.mem
      ~addr:(Int64.add data_base (Int64.of_int (8 * w)))
      ~width:8 (draw (1000 + w))
  done;
  let regs = st.regs in
  for c = 0 to Machine.Regfile.class_count regs - 1 do
    for r = 0 to (Machine.Regfile.class_def regs c).count - 1 do
      let salt = 10 * ((64 * c) + r) in
      let v =
        if Int64.logand (draw salt) 1L = 0L then draw (salt + 1)
        else
          Int64.add data_base
            (Int64.of_int (Inject.Prng.below ~seed ~index:0L ~salt:(salt + 2) (8 * data_words)))
      in
      Machine.Regfile.write regs ~cls:c ~idx:r v
    done
  done;
  st

let run_leg (spec : Lis.Spec.t) (bs : Lis.Spec.buildset) ~seed ~enc
    (i : Lis.Spec.instr) exec =
  let st = random_machine spec seed in
  let slots = Specsim.Slots.make spec bs in
  let fr =
    Semir.Frame.create ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  let pc = 0x1000L in
  Semir.Frame.set_pc fr pc;
  Semir.Frame.set_enc fr enc;
  Semir.Frame.set_next_pc fr (Int64.add pc (Int64.of_int i.i_size));
  let raised =
    match exec st fr slots.loc with
    | () -> "-"
    | exception e -> Printexc.to_string e
  in
  let visible =
    List.init slots.di_size (fun k -> Machine.Raw.get64 fr.di (8 * k))
  in
  ( Inject.Watchdog.regs_digest st.regs,
    Machine.Memory.digest st.mem,
    Semir.Frame.next_pc fr,
    (match st.fault with None -> "-" | Some f -> Machine.Fault.to_string f),
    raised,
    visible )

let check_class spec decoder (i : Lis.Spec.instr) idx ~seed ~noise bs =
  let enc =
    Int64.logand
      (Gen_common.encoding_with_noise spec i noise)
      (if i.i_size >= 8 then -1L
       else Int64.sub (Int64.shift_left 1L (8 * i.i_size)) 1L)
  in
  if Specsim.Decoder.decode decoder enc <> idx then true
  else begin
    let ir = chain_ir spec i in
    let keep c = bs.Lis.Spec.bs_visible.(c) in
    let reference =
      run_leg spec bs ~seed ~enc i (fun st fr loc -> Semir.Eval.exec ~loc st fr ir)
    in
    let specialized =
      run_leg spec bs ~seed ~enc i (fun st fr loc ->
          Semir.Compile.program ~layout:st.regs ~mem_fast_path:true ~loc
            (Semir.Opt.optimize ~enc ~keep ir)
            st fr)
    in
    if reference = specialized then true
    else
      QCheck.Test.fail_reportf "%s %s enc=0x%Lx seed=%Ld: specialized site differs"
        spec.name i.i_name enc seed
  end

let prop_specialized_sites (name, spec) =
  QCheck.Test.make ~count:20
    ~name:(Printf.sprintf "%s: Opt.optimize ~enc sites match the IR, every class" name)
    QCheck.(pair int64 bool)
    (fun (seed, all) ->
      let spec = Lazy.force spec in
      let decoder = Specsim.Decoder.make spec in
      let bs = Lis.Spec.find_buildset spec (if all then "one_all" else "one_min") in
      Array.for_all Fun.id
        (Array.mapi
           (fun idx i ->
             let seed = Inject.Prng.derive ~seed ~salt:idx in
             let noise = Inject.Prng.draw ~seed ~index:1L ~salt:0 in
             check_class spec decoder i idx ~seed ~noise bs)
           spec.instrs))

let isa_specs =
  [
    ("alpha", Isa_alpha.Alpha.spec); ("arm", Isa_arm.Arm.spec);
    ("ppc", Isa_ppc.Ppc.spec); ("riscv", Isa_riscv.Riscv.spec);
  ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_arm_shifter;
    QCheck_alcotest.to_alcotest prop_ppc_rlwinm;
    QCheck_alcotest.to_alcotest prop_alpha_zapnot;
    QCheck_alcotest.to_alcotest prop_arm_add_flags;
  ]
  @ List.map
      (fun isa -> QCheck_alcotest.to_alcotest (prop_specialized_sites isa))
      isa_specs
