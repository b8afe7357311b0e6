(** Instruction decoder synthesized from the (mask, match) pairs of the
    specification.

    A first-level table indexed by the ISA's declared decode key narrows
    each encoding to a short candidate list that is scanned in declaration
    order (first match wins, so specialized encodings are declared before
    the general forms they refine). *)

type t = {
  lo : int;
  len : int;
  buckets : (int64 * int64 * int) array array;
      (** per key value: (mask, match, instruction index) candidates *)
}

let make (spec : Lis.Spec.t) : t =
  let lo = spec.decode_lo and len = spec.decode_len in
  let n_keys = 1 lsl len in
  let key_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L len) 1L) lo in
  let buckets = Array.make n_keys [] in
  (* Walk instructions in reverse so each bucket list ends up in
     declaration order. *)
  for i = Array.length spec.instrs - 1 downto 0 do
    let ins = spec.instrs.(i) in
    let fixed = Int64.logand ins.i_mask key_mask in
    for key = 0 to n_keys - 1 do
      let key_bits = Int64.shift_left (Int64.of_int key) lo in
      (* The instruction can match an encoding with this key iff the key
         bits agree wherever the instruction's mask constrains them. *)
      if
        Int64.equal
          (Int64.logand key_bits fixed)
          (Int64.logand ins.i_match fixed)
      then
        buckets.(key) <- (ins.i_mask, ins.i_match, i) :: buckets.(key)
    done
  done;
  { lo; len; buckets = Array.map Array.of_list buckets }

(* A plain loop: no closure, and [enc] stays unboxed when [decode_word]
   reads it straight from frame storage. *)
let[@inline] decode_enc t (enc : int64) =
  let key =
    Int64.to_int (Int64.shift_right_logical enc t.lo) land ((1 lsl t.len) - 1)
  in
  let cands = Array.unsafe_get t.buckets key in
  let n = Array.length cands in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    let mask, mtch, idx = Array.unsafe_get cands !i in
    if (Int64.logand enc mask : int64) = mtch then found := idx;
    incr i
  done;
  !found

(** [decode t enc] is the instruction index matching [enc], or [-1]. *)
let decode t enc = decode_enc t enc

(** [decode_word t b off] decodes the encoding stored at byte [off] of
    [b] ({!Machine.Raw.get64}). *)
let decode_word t b off = decode_enc t (Machine.Raw.get64 b off)

(** Largest candidate-list length (decoder quality metric for tests). *)
let max_bucket t =
  Array.fold_left (fun m b -> max m (Array.length b)) 0 t.buckets

(** Pairs of instructions that can both match some encoding (the earlier
    one wins). Useful as a description lint: a pair is fine when it is an
    intentional specialization, suspicious otherwise. *)
let overlaps (spec : Lis.Spec.t) : (string * string) list =
  let res = ref [] in
  let n = Array.length spec.instrs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = spec.instrs.(i) and b = spec.instrs.(j) in
      let common = Int64.logand a.i_mask b.i_mask in
      if
        Int64.equal (Int64.logand a.i_match common)
          (Int64.logand b.i_match common)
      then res := (a.i_name, b.i_name) :: !res
    done
  done;
  List.rev !res
