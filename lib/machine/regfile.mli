(** Architectural register file made of named register classes.

    An ISA declares classes such as [GPR\[32\]] or [CR\[8\]]; the register
    file flattens every class into one backing array. A class may declare a
    hardwired-zero register (Alpha's R31, for example): reads of it return
    zero and writes to it are discarded. Values wider than the class width
    are masked on write. *)

type class_def = {
  cname : string;
  count : int;  (** number of registers in the class *)
  width : int;  (** register width in bits, 1..64 *)
  hardwired_zero : int option;
      (** index within the class that always reads as zero *)
}

(** The record is exposed read-only so compiled code can reach the
    backing words directly: flat register [i] is the 8 bytes at [8 * i]
    of [v] ({!Raw.get64}); [masks.(i)] is its write mask, [0L] for a
    hardwired zero. Writers must apply the mask. *)
type t = private {
  classes : class_def array;
  bases : int array;
  total : int;
  v : Bytes.t;
  masks : int64 array;
}

(** [create classes] builds a register file with all registers zero.
    @raise Invalid_argument on duplicate class names or invalid sizes. *)
val create : class_def list -> t

(** [copy t] is a deep copy (used by checkpointing simulators). *)
val copy : t -> t

(** [class_index t name] is the positional index of class [name].
    @raise Not_found if there is no such class. *)
val class_index : t -> string -> int

val class_count : t -> int
val class_def : t -> int -> class_def

(** [base t c] is the offset of class [c] in the flat array; register [i] of
    class [c] lives at flat index [base t c + i]. *)
val base : t -> int -> int

(** Total number of registers across all classes. *)
val total : t -> int

(** [read t ~cls ~idx] reads register [idx] of class [cls] (bounds-checked). *)
val read : t -> cls:int -> idx:int -> int64

(** [write t ~cls ~idx v] writes [v] (masked to the class width) unless the
    register is the class's hardwired zero. *)
val write : t -> cls:int -> idx:int -> int64 -> unit

(** Flat accessors used by synthesized code after bounds and hardwiring have
    been resolved statically. [read_flat]/[write_flat] still honour
    hardwired-zero registers. *)
val read_flat : t -> int -> int64
val write_flat : t -> int -> int64 -> unit

(** [is_hardwired_flat t i] tells whether flat index [i] is a hardwired zero. *)
val is_hardwired_flat : t -> int -> bool

(** [mask_flat t i] is the width mask applied to writes at flat index [i]. *)
val mask_flat : t -> int -> int64

(** [blit ~src ~dst] copies all register values from [src] to [dst]
    (the layouts must match). *)
val blit : src:t -> dst:t -> unit

(** [equal a b] compares layouts and contents. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
