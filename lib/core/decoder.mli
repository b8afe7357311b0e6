(** Instruction decoder synthesized from the specification's (mask, match)
    pairs: a first-level table on the ISA's declared decode key narrows
    each encoding to a short candidate list scanned in declaration order
    (first match wins, so specialized encodings are declared before the
    general forms they refine). *)

type t

val make : Lis.Spec.t -> t

(** [decode t enc] is the matching instruction index, or [-1]. *)
val decode : t -> int64 -> int

(** [decode_word t b off] decodes the word at byte [off] of [b] (read
    with {!Machine.Raw.get64}) without boxing it. *)
val decode_word : t -> Bytes.t -> int -> int

(** Largest candidate-list length (decoder quality metric). *)
val max_bucket : t -> int

(** Pairs of instructions that can both match some encoding (the earlier
    one wins) — a description lint. *)
val overlaps : Lis.Spec.t -> (string * string) list
