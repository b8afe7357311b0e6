(** Per-instruction execution frame.

    The frame is the runtime view of one dynamic instruction while its
    actions run: its pc, its encoding, its computed next pc, and the two
    cell stores — [di], the interface-visible information retained in the
    dynamic-instruction record handed to the timing simulator, and
    [scratch], the hidden store that is reused from instruction to
    instruction and never escapes the functional simulator. Which cell
    lives where is the buildset's informational-detail decision.

    All of it is unboxed [Bytes] storage, 8 bytes per word, accessed with
    {!Machine.Raw}: cell [i] of either store is the word at byte [8 * i].
    [tmp] holds the three control words (pc, encoding, next pc) at
    {!pc_off}, {!enc_off} and {!next_pc_off}, followed by the
    temporaries compiled code writes intermediate results into. *)

open Machine

(** Storage assignment for one cell, fixed at synthesis time. *)
type location =
  | In_di of int  (** visible: slot in the retained DI information words *)
  | In_scratch of int  (** hidden: slot in the reused scratch words *)

type t = {
  tmp : Bytes.t;
  mutable di : Bytes.t;
  scratch : Bytes.t;
}

let pc_off = 0
let enc_off = 8
let next_pc_off = 16

(** Byte offset of the first temporary in [tmp]. *)
let tmp_base = 24

(** Temporaries per frame. The compiler reuses them stack-wise within a
    statement, so this bounds expression nesting, not program size. *)
let tmp_slots = 64

let words n = Bytes.make (8 * max n 1) '\000'

let create ~di_slots ~scratch_slots =
  {
    tmp = Bytes.make (tmp_base + (8 * tmp_slots)) '\000';
    di = words di_slots;
    scratch = words scratch_slots;
  }

let pc fr = Raw.get64 fr.tmp pc_off
let enc fr = Raw.get64 fr.tmp enc_off
let next_pc fr = Raw.get64 fr.tmp next_pc_off
let set_pc fr v = Raw.set64 fr.tmp pc_off v
let set_enc fr v = Raw.set64 fr.tmp enc_off v
let set_next_pc fr v = Raw.set64 fr.tmp next_pc_off v

(** [read fr loc] and [write fr loc v] are the slow-path accessors used by
    the reference interpreter; compiled code resolves locations statically. *)
let read fr = function
  | In_di i -> Raw.get64 fr.di (8 * i)
  | In_scratch i -> Raw.get64 fr.scratch (8 * i)

let write fr loc v =
  match loc with
  | In_di i -> Raw.set64 fr.di (8 * i) v
  | In_scratch i -> Raw.set64 fr.scratch (8 * i) v
