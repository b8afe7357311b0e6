(** Destination-passing closure compiler for {!Ir}.

    The paper's synthesizer emits C++ specialized per interface; our analog
    compiles each action to OCaml closures once, at synthesis time, with
    every cell location, register class base, memory width and constant
    resolved statically. Execution then runs no IR dispatch at all — this
    plays the role of the paper's binary-translated execution substrate.

    No [int64] crosses a closure boundary. A leaf of an expression —
    constant, cell, static register, pc or next pc — is an operand: one
    immediate [int] naming a word of unboxed storage. Every inner node is
    one closure that runs its children's code, reads their operands and
    writes its own result straight into a destination word: a temporary
    of the frame for a child, or, for the root of a statement, the cell,
    register or next pc the statement assigns. *)

open Machine

type code = State.t -> Frame.t -> unit

let nop : code = fun _ _ -> ()

(* ------------------------------------------------------------------ *)
(* Operands and destinations                                           *)
(* ------------------------------------------------------------------ *)

(* An operand is [(payload lsl 3) lor kind]; the payload is a byte offset
   into the kind's storage, or the value of a small constant.
   Destinations use the same encoding; a register destination applies
   the register's write mask. Control words (pc, encoding, next pc) are
   [k_tmp] words at fixed offsets of [Frame.tmp]. *)
let k_tmp = 0
let k_scratch = 1
let k_di = 2
let k_reg = 3
let k_const = 4
let opnd kind payload = (payload lsl 3) lor kind

(* [rd] and [wr] are inlined into every node, so the word they move
   stays in a register. *)
let[@inline] rd (st : State.t) (fr : Frame.t) o =
  let p = o asr 3 in
  match o land 7 with
  | 0 (* k_tmp *) -> Raw.get64 fr.tmp p
  | 1 (* k_scratch *) -> Raw.get64 fr.scratch p
  | 2 (* k_di *) -> Raw.get64 fr.di p
  | 3 (* k_reg *) -> Raw.get64 st.regs.v p
  | _ (* k_const *) -> Int64.of_int p

let[@inline] set_reg (st : State.t) flat (v : int64) =
  let r = st.regs in
  Raw.set64 r.v (flat lsl 3) (Int64.logand v (Array.unsafe_get r.masks flat))

let[@inline] wr (st : State.t) (fr : Frame.t) d (v : int64) =
  let p = d asr 3 in
  match d land 7 with
  | 0 (* k_tmp *) -> Raw.set64 fr.tmp p v
  | 1 (* k_scratch *) -> Raw.set64 fr.scratch p v
  | 2 (* k_di *) -> Raw.set64 fr.di p v
  | _ (* k_reg *) -> set_reg st (p lsr 3) v

(* Constants that fit the payload are operands; the rest get a node. *)
let const_limit = Int64.shift_left 1L 59

let small_const v =
  Int64.compare v (Int64.neg const_limit) >= 0 && Int64.compare v const_limit < 0

(* ------------------------------------------------------------------ *)
(* Compile environment                                                 *)
(* ------------------------------------------------------------------ *)

(* Threaded explicitly (no module-level refs) so concurrent synthesis on
   separate domains never races on compiler state. *)
type env = {
  layout : Regfile.t;
  loc : Frame.location array;
  hooks : Hooks.t option;
  fast_mem : bool;
}

let cell_opnd env c =
  match env.loc.(c) with
  | Frame.In_di i -> opnd k_di (8 * i)
  | Frame.In_scratch i -> opnd k_scratch (8 * i)

(* The flat index of a constant register number, when it is in range;
   an out-of-range one compiles to the dynamic path, which raises at run
   time exactly as {!Eval} does. *)
let static_reg env ~cls i =
  match Regaccess.flat env.layout ~cls i with
  | flat -> Some flat
  | exception Invalid_argument _ -> None

(* Index resolution for dynamic register numbers: a mask for
   power-of-two classes ([mask >= 0]), a bounds check otherwise. *)
let[@inline] reg_index ~mask ~count i =
  if mask >= 0 then i land mask else Regaccess.clamp_int ~count i

let class_shape env cls =
  let count = (Regfile.class_def env.layout cls).count in
  let mask = if Regaccess.is_power_of_two count then count - 1 else -1 in
  (Regfile.base env.layout cls, count, mask)

let tmp_word slot =
  if slot >= Frame.tmp_slots then
    invalid_arg
      (Printf.sprintf "Compile: expression needs more than %d temporaries"
         Frame.tmp_slots);
  Frame.tmp_base + (8 * slot)

(* ------------------------------------------------------------------ *)
(* Memory: per-site software TLB                                       *)
(* ------------------------------------------------------------------ *)

(* With the fast path on, each load/store site carries a one-entry page
   cache: a hit costs a few integer compares plus a direct [Bytes]
   access. A different memory, a page cross, or a stale generation
   ([Memory.clear], or the page being newly marked as code) falls back
   to {!Memory}. Store sites never cache code pages, and marking a page
   as code bumps the generation, so fast-path stores can never bypass
   the code-write hooks. *)
type site_tlb = {
  mutable tl_mem : Memory.t;
  mutable tl_gen : int;
  mutable tl_idx : int;
  mutable tl_page : Bytes.t;
  mutable tl_swap : bool;  (** memory byte order differs from the host's *)
}

(* Plain module-init value, not [lazy]: a lazy forced from two domains
   at once is undefined behaviour in OCaml 5, and fresh TLBs are built
   during concurrent synthesis. *)
let tlb_dummy_mem = Memory.create Little

let fresh_tlb () =
  {
    tl_mem = tlb_dummy_mem;
    tl_gen = -1;
    tl_idx = -1;
    tl_page = Bytes.empty;
    tl_swap = false;
  }

let tlb_refill tl m idx =
  tl.tl_mem <- m;
  tl.tl_gen <- Memory.generation m;
  tl.tl_idx <- idx;
  tl.tl_page <- Memory.lookup_page m idx;
  tl.tl_swap <- (Memory.endian m = Memory.Little) = Sys.big_endian

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] page_read p ~swap off ~w ~signed =
  match w with
  | 1 ->
    let b = Char.code (Bytes.unsafe_get p off) in
    Int64.of_int (if signed then (b lxor 0x80) - 0x80 else b)
  | 2 ->
    let h = get16 p off in
    let h = if swap then bswap16 h else h in
    Int64.of_int (if signed then (h lxor 0x8000) - 0x8000 else h)
  | 4 ->
    let x = get32 p off in
    let x = if swap then bswap32 x else x in
    let v = Int64.of_int32 x in
    if signed then v else Int64.logand v 0xFFFFFFFFL
  | _ ->
    let x = Raw.get64 p off in
    if swap then bswap64 x else x

let[@inline] page_write p ~swap off ~w (v : int64) =
  match w with
  | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xff))
  | 2 ->
    let h = Int64.to_int v land 0xffff in
    set16 p off (if swap then bswap16 h else h)
  | 4 ->
    let x = Int64.to_int32 v in
    set32 p off (if swap then bswap32 x else x)
  | _ -> Raw.set64 p off (if swap then bswap64 v else v)

let[@inline] addr_bits (a : int64) = Int64.to_int a land max_int

let[@inline] sext_bytes ~signed ~w (v : int64) =
  if signed && w < 8 then
    let s = 64 - (8 * w) in
    Int64.shift_right (Int64.shift_left v s) s
  else v

(* Each site has one slow path, through {!Memory} and the free
   temporary [bounce]; the fast path only adds the TLB check in front. *)
let load ~fast ~w ~signed ca oa d ~bounce : code =
  let slow (st : State.t) (fr : Frame.t) ai =
    Memory.read_into st.mem ~addr:ai ~width:w fr.tmp bounce;
    wr st fr d (sext_bytes ~signed ~w (Raw.get64 fr.tmp bounce))
  in
  if not fast then fun st fr ->
    ca st fr;
    let a = rd st fr oa in
    slow st fr (addr_bits a)
  else begin
    let tl = fresh_tlb () in
    let max_off = Memory.page_size - w in
    fun st fr ->
      ca st fr;
      let a = rd st fr oa in
      let ai = addr_bits a in
      let off = ai land Memory.page_mask and idx = ai lsr Memory.page_bits in
      let m = st.mem in
      if
        idx = tl.tl_idx && m == tl.tl_mem
        && tl.tl_gen = Memory.generation m
        && off <= max_off
      then begin
        let v = page_read tl.tl_page ~swap:tl.tl_swap off ~w ~signed in
        wr st fr d v
      end
      else begin
        slow st fr ai;
        if off <= max_off then tlb_refill tl m idx
      end
  end

(* A [hook] (the speculation journal) must see every store, so a
   journaled site always takes the slow path; speculation dominates
   its cost anyway. *)
let store ~fast ~(hook : Hooks.t option) ~w ca cv oa ov ~bounce : code =
  let slow (st : State.t) (fr : Frame.t) ai =
    Memory.write_from st.mem ~addr:ai ~width:w fr.tmp bounce
  in
  if Option.is_some hook || not fast then fun st fr ->
    ca st fr;
    cv st fr;
    let a = rd st fr oa in
    Raw.set64 fr.tmp bounce (rd st fr ov);
    (match hook with Some h -> h.on_store st a w | None -> ());
    slow st fr (addr_bits a)
  else begin
    let tl = fresh_tlb () in
    let max_off = Memory.page_size - w in
    fun st fr ->
      ca st fr;
      cv st fr;
      let a = rd st fr oa in
      let v = rd st fr ov in
      let ai = addr_bits a in
      let off = ai land Memory.page_mask and idx = ai lsr Memory.page_bits in
      let m = st.mem in
      if
        idx = tl.tl_idx && m == tl.tl_mem
        && tl.tl_gen = Memory.generation m
        && off <= max_off
      then page_write tl.tl_page ~swap:tl.tl_swap off ~w v
      else begin
        Raw.set64 fr.tmp bounce v;
        slow st fr ai;
        (* Never cache a code page: a fast-path hit must imply the write
           needs no code-write hook. *)
        if off <= max_off && not (Memory.is_code_page m idx) then
          tlb_refill tl m idx
      end
  end

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

(* One explicit lambda per operator: a shared higher-order helper would
   not be inlined and would box both operands and the result. *)
let binop (op : Ir.binop) ca cb oa ob d : code =
  match op with
  | Add ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.add x y in
      wr st fr d v
  | Sub ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.sub x y in
      wr st fr d v
  | Mul ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.mul x y in
      wr st fr d v
  | And ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.logand x y in
      wr st fr d v
  | Or ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.logor x y in
      wr st fr d v
  | Xor ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.logxor x y in
      wr st fr d v
  | Shl ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.shift_left x (Int64.to_int y land 63) in
      wr st fr d v
  | Lshr ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.shift_right_logical x (Int64.to_int y land 63) in
      wr st fr d v
  | Ashr ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.shift_right x (Int64.to_int y land 63) in
      wr st fr d v
  | Ror ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let s = Int64.to_int y land 63 in
      let v =
        if s = 0 then x
        else
          Int64.logor (Int64.shift_right_logical x s) (Int64.shift_left x (64 - s))
      in
      wr st fr d v
  | Eq ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.of_int (if (x : int64) = y then 1 else 0) in
      wr st fr d v
  | Ne ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.of_int (if (x : int64) <> y then 1 else 0) in
      wr st fr d v
  | Lts ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.of_int (if (x : int64) < y then 1 else 0) in
      wr st fr d v
  | Les ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = Int64.of_int (if (x : int64) <= y then 1 else 0) in
      wr st fr d v
  | Ltu ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      (* unsigned order is signed order with the sign bit flipped *)
      let x = Int64.sub x Int64.min_int and y = Int64.sub y Int64.min_int in
      let v = Int64.of_int (if (x : int64) < y then 1 else 0) in
      wr st fr d v
  | Leu ->
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let x = Int64.sub x Int64.min_int and y = Int64.sub y Int64.min_int in
      let v = Int64.of_int (if (x : int64) <= y then 1 else 0) in
      wr st fr d v
  | Mulhs | Mulhu | Divs | Divu | Rems | Remu ->
    let f = Value.binop op in
    fun st fr ->
      ca st fr; cb st fr;
      let x = rd st fr oa and y = rd st fr ob in
      let v = f x y in
      wr st fr d v

let unop (op : Ir.unop) ca oa d : code =
  match op with
  | Neg ->
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = Int64.neg x in
      wr st fr d v
  | Not ->
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = Int64.logxor x (-1L) in
      wr st fr d v
  | Bool_not ->
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = Int64.of_int (if (x : int64) = 0L then 1 else 0) in
      wr st fr d v
  | Sext n when n < 64 ->
    let s = 64 - n in
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = Int64.shift_right (Int64.shift_left x s) s in
      wr st fr d v
  | Zext n when n < 64 ->
    let m = Int64.sub (Int64.shift_left 1L n) 1L in
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = Int64.logand x m in
      wr st fr d v
  | Sext _ | Zext _ ->
    fun st fr ->
      ca st fr;
      let v = rd st fr oa in
      wr st fr d v
  | Popcount | Clz | Ctz ->
    let f = Value.unop op in
    fun st fr ->
      ca st fr;
      let x = rd st fr oa in
      let v = f x in
      wr st fr d v

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let leaf env (e : Ir.expr) =
  match e with
  | Const v when small_const v -> Some (opnd k_const (Int64.to_int v))
  | Cell c -> Some (cell_opnd env c)
  | Pc -> Some (opnd k_tmp Frame.pc_off)
  | Next_pc -> Some (opnd k_tmp Frame.next_pc_off)
  | Reg_read { cls; index = Const i } ->
    Option.map (fun flat -> opnd k_reg (8 * flat)) (static_reg env ~cls i)
  | _ -> None

(* A compiled child: its code ([nop] for a leaf), its operand, and the
   first temporary its siblings may use. *)
type child = { pre : code; o : int; next : int }

let move o d : code = fun st fr -> let v = rd st fr o in wr st fr d v

(* [expr env e ~dst ~slot] computes [e] into [dst], using temporaries
   from [slot] up. A node writes [dst] only after reading its children,
   so children may reuse [dst]'s own temporary. *)
let rec expr env (e : Ir.expr) ~dst ~slot : code =
  match leaf env e with
  | Some o -> move o dst
  | None -> (
    match e with
    | Const k -> fun st fr -> wr st fr dst k
    | Enc { lo; len; signed } ->
      let eo = Frame.enc_off in
      if signed then
        let l = 64 - lo - len and r = 64 - len in
        fun st fr ->
          let x = Raw.get64 fr.tmp eo in
          let v = Int64.shift_right (Int64.shift_left x l) r in
          wr st fr dst v
      else if lo + len >= 64 then fun st fr ->
        let x = Raw.get64 fr.tmp eo in
        let v = Int64.shift_right_logical x lo in
        wr st fr dst v
      else
        let m = Int64.sub (Int64.shift_left 1L len) 1L in
        fun st fr ->
          let x = Raw.get64 fr.tmp eo in
          let v = Int64.logand (Int64.shift_right_logical x lo) m in
          wr st fr dst v
    | Bin (op, a, b) ->
      let a = child env a ~slot in
      let b = child env b ~slot:a.next in
      binop op a.pre b.pre a.o b.o dst
    | Un (op, a) ->
      let a = child env a ~slot in
      unop op a.pre a.o dst
    | Ite (c, a, b) ->
      let c = child env c ~slot in
      let ca = expr env a ~dst ~slot and cb = expr env b ~dst ~slot in
      let cc = c.pre and oc = c.o in
      fun st fr ->
        cc st fr;
        let x = rd st fr oc in
        if (x : int64) = 0L then cb st fr else ca st fr
    | Load { width; signed; addr } ->
      let a = child env addr ~slot in
      load ~fast:env.fast_mem ~w:(Ir.bytes_of_width width) ~signed a.pre a.o
        dst ~bounce:(tmp_word slot)
    | Reg_read { cls; index } ->
      let i = child env index ~slot in
      let base, count, mask = class_shape env cls in
      let ci = i.pre and oi = i.o in
      fun st fr ->
        ci st fr;
        let x = rd st fr oi in
        let flat = base + reg_index ~mask ~count (Int64.to_int x) in
        let v = Raw.get64 st.regs.v (flat lsl 3) in
        wr st fr dst v
    | Cell _ | Pc | Next_pc -> assert false (* always leaves *))

and child env e ~slot =
  match leaf env e with
  | Some o -> { pre = nop; o; next = slot }
  | None ->
    let o = opnd k_tmp (tmp_word slot) in
    { pre = expr env e ~dst:o ~slot; o; next = slot + 1 }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt env (s : Ir.stmt) : code =
  match s with
  | Set_cell (c, e) -> expr env e ~dst:(cell_opnd env c) ~slot:0
  | Set_next_pc e -> expr env e ~dst:(opnd k_tmp Frame.next_pc_off) ~slot:0
  | Store { width; addr; value } ->
    let a = child env addr ~slot:0 in
    let v = child env value ~slot:a.next in
    store ~fast:env.fast_mem ~hook:env.hooks ~w:(Ir.bytes_of_width width)
      a.pre v.pre a.o v.o ~bounce:(tmp_word v.next)
  | Reg_write { cls; index; value } -> (
    let static =
      match index with Const i -> static_reg env ~cls i | _ -> None
    in
    match (static, env.hooks) with
    | Some flat, None -> expr env value ~dst:(opnd k_reg (8 * flat)) ~slot:0
    | Some flat, Some h ->
      let v = child env value ~slot:0 in
      let cv = v.pre and ov = v.o in
      fun st fr ->
        cv st fr;
        h.on_reg_write st flat;
        let x = rd st fr ov in
        set_reg st flat x
    | None, hooks -> (
      let i = child env index ~slot:0 in
      let v = child env value ~slot:i.next in
      let base, count, mask = class_shape env cls in
      let ci = i.pre and cv = v.pre and oi = i.o and ov = v.o in
      match hooks with
      | None ->
        fun st fr ->
          ci st fr;
          cv st fr;
          let x = rd st fr oi in
          let flat = base + reg_index ~mask ~count (Int64.to_int x) in
          let y = rd st fr ov in
          set_reg st flat y
      | Some h ->
        fun st fr ->
          ci st fr;
          cv st fr;
          let x = rd st fr oi in
          let flat = base + reg_index ~mask ~count (Int64.to_int x) in
          h.on_reg_write st flat;
          let y = rd st fr ov in
          set_reg st flat y))
  | If (c, t, f) -> (
    let c = child env c ~slot:0 in
    let ct = block env t and cf = block env f in
    let cc = c.pre and oc = c.o in
    match f with
    | [] ->
      fun st fr ->
        cc st fr;
        let x = rd st fr oc in
        if (x : int64) <> 0L then ct st fr
    | _ ->
      fun st fr ->
        cc st fr;
        let x = rd st fr oc in
        if (x : int64) = 0L then cf st fr else ct st fr)
  | Fault_illegal ->
    let eo = Frame.enc_off in
    fun st fr ->
      State.raise_fault st (Fault.Illegal_instruction (Raw.get64 fr.tmp eo))
  | Fault_unaligned e ->
    let a = child env e ~slot:0 in
    let ca = a.pre and oa = a.o in
    fun st fr ->
      ca st fr;
      State.raise_fault st (Fault.Unaligned_access (rd st fr oa))
  | Fault_arith msg -> fun st _ -> State.raise_fault st (Fault.Arith msg)
  | Syscall -> fun st _ -> st.syscall_handler st
  | Halt -> fun st _ -> st.halted <- true

(* [block env stmts] fuses a statement list into one closure. *)
and block env (stmts : Ir.stmt list) : code =
  match stmts with
  | [] -> nop
  | [ s ] -> stmt env s
  | [ s1; s2 ] ->
    let c1 = stmt env s1 and c2 = stmt env s2 in
    fun st fr ->
      c1 st fr;
      c2 st fr
  | s1 :: s2 :: rest ->
    let c1 = stmt env s1 and c2 = stmt env s2 in
    let crest = block env rest in
    fun st fr ->
      c1 st fr;
      c2 st fr;
      crest st fr

let program ?hooks ~layout ?(mem_fast_path = false) ~loc (p : Ir.program) :
    code =
  block { layout; loc; hooks; fast_mem = mem_fast_path } p
