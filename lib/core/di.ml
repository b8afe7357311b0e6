(** Dynamic instruction record — the data structure passed across the
    functional-to-timing interface (paper Fig. 2).

    The header (pc, encoding, next pc, fault, instruction index) is the
    paper's "minimal information needed to control the simulator"; the
    [info] words hold the interface-visible cells for the chosen buildset,
    laid out by {!Slots}: slot [i] is the unboxed word at byte [8 * i]
    ({!Machine.Raw}), which compiled actions write in place. *)

type t = {
  mutable pc : int64;
  mutable encoding : int64;
  mutable next_pc : int64;
  mutable instr_index : int;  (** decoded instruction id; -1 before decode *)
  mutable fault : Machine.Fault.t option;
  mutable ckpt : int;  (** speculation checkpoint token; -1 if none *)
  mutable fetched : Tblock.t;
      (** the translation unit a Step fetch found at [pc]; the later steps
          of this instruction run its code *)
  info : Bytes.t;
}

let create ~info_slots =
  {
    pc = 0L;
    encoding = 0L;
    next_pc = 0L;
    instr_index = -1;
    fault = None;
    ckpt = -1;
    fetched = Tblock.dummy;
    info = Bytes.make (8 * max info_slots 1) '\000';
  }

let clear t =
  t.pc <- 0L;
  t.encoding <- 0L;
  t.next_pc <- 0L;
  t.instr_index <- -1;
  t.fault <- None;
  t.ckpt <- -1;
  t.fetched <- Tblock.dummy;
  Bytes.fill t.info 0 (Bytes.length t.info) '\000'

(** Number of info slots. *)
let slots t = Bytes.length t.info / 8

(** [size spec t] is the decoded instruction's encoded size in bytes;
    before decode it is 4, the fetch stride. *)
let size (spec : Lis.Spec.t) t =
  if t.instr_index >= 0 then spec.instrs.(t.instr_index).i_size else 4

(** [falls_through spec t] holds when [t.next_pc] is the sequential
    successor: [t.pc] plus {!size}, not a fixed 4-byte stride. *)
let falls_through spec t =
  (t.next_pc : int64) = Int64.add t.pc (Int64.of_int (size spec t))

let check_get t slot =
  if slot < 0 || slot >= slots t then invalid_arg "Di.get: slot out of range"

(** [get t slot] reads a visible cell by its DI slot (from {!Slots}). *)
let get t slot =
  check_get t slot;
  Machine.Raw.get64 t.info (8 * slot)

(** [set t slot v] overwrites a visible cell (fault injection, tests). *)
let set t slot v =
  if slot < 0 || slot >= slots t then invalid_arg "Di.set: slot out of range";
  Machine.Raw.set64 t.info (8 * slot) v

(** [get_equal t slot v] is [Int64.equal (get t slot) v] without boxing
    the word. *)
let get_equal t slot (v : int64) =
  check_get t slot;
  Machine.Raw.get64 t.info (8 * slot) = v

(** [get_lsr t slot bits] is [Int64.to_int (Int64.shift_right_logical
    (get t slot) bits)], with {!get}'s range check, computed without
    boxing the word: a register number at [bits = 0], a cache line
    number (exact for [bits >= 1]) otherwise. Timing models read DI
    words on their per-instruction paths through it. *)
let get_lsr t slot bits =
  check_get t slot;
  Int64.to_int (Int64.shift_right_logical (Machine.Raw.get64 t.info (8 * slot)) bits)
