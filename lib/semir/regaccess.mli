(** Dynamic-index register access shared by {!Eval} and {!Compile}.
    Power-of-two register classes are accessed with a mask, others with a
    bounds check, so a malformed description can never corrupt adjacent
    register classes. *)

val is_power_of_two : int -> bool

(** [clamp ~count idx] maps a 64-bit index value into [0, count).
    @raise Invalid_argument for out-of-range indices of non-power-of-two
    classes. *)
val clamp : count:int -> int64 -> int

(** [clamp_int ~count i] is [clamp] of an index already converted with
    [Int64.to_int]. *)
val clamp_int : count:int -> int -> int

(** [flat regs ~cls idx] resolves a dynamic index to a flat register index. *)
val flat : Machine.Regfile.t -> cls:int -> int64 -> int

val read : Machine.Regfile.t -> cls:int -> int64 -> int64
val write : Machine.Regfile.t -> cls:int -> int64 -> int64 -> unit
