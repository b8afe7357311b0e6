(** Unboxed 64-bit access to [Bytes] storage.

    Register files, frames, DI records and the speculation journal keep
    their 64-bit words in [Bytes] and access them through these
    primitives. Declared [external], they expand in place at every use
    site even across [-opaque] module boundaries, so a read feeding
    arithmetic and a write of a computed value never box an [int64].
    Offsets are in bytes and unchecked; byte order is the host's, which
    is invisible as long as a word is only ever read back through
    [get64]. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
