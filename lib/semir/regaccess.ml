(** Dynamic-index register access shared by {!Eval} and {!Compile}.

    Register indices normally come from encoding bitfields and are in range
    by construction; classes whose size is a power of two are accessed with
    a mask, others with a bounds check, so a malformed description can
    never corrupt adjacent register classes. *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(** [clamp ~count idx] maps an arbitrary 64-bit index expression value into
    [0, count): masked for power-of-two classes, bounds-checked otherwise. *)
let clamp_int ~count i =
  if is_power_of_two count then i land (count - 1)
  else if i >= 0 && i < count then i
  else invalid_arg (Printf.sprintf "register index %d out of range (%d)" i count)

let clamp ~count idx = clamp_int ~count (Int64.to_int idx)

(** [flat regs ~cls idx] resolves a dynamic index to a flat register index. *)
let flat (regs : Machine.Regfile.t) ~cls idx =
  let count = (Machine.Regfile.class_def regs cls).count in
  Machine.Regfile.base regs cls + clamp ~count idx

let read (regs : Machine.Regfile.t) ~cls idx =
  let count = (Machine.Regfile.class_def regs cls).count in
  let base = Machine.Regfile.base regs cls in
  Machine.Regfile.read_flat regs (base + clamp ~count idx)

let write (regs : Machine.Regfile.t) ~cls idx v =
  let count = (Machine.Regfile.class_def regs cls).count in
  let base = Machine.Regfile.base regs cls in
  Machine.Regfile.write_flat regs (base + clamp ~count idx) v
