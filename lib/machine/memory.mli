(** Sparse, paged byte-addressable memory.

    Pages are allocated on demand, so the full 64-bit address space is
    usable without preallocation. Reads of never-written locations return
    zero. Multi-byte accesses honour the endianness chosen at creation
    time and may span page boundaries. *)

type endian = Little | Big

type t

(** [create endian] returns an empty memory. *)
val create : endian -> t

val endian : t -> endian

(** Number of pages currently allocated (for tests and statistics). *)
val page_count : t -> int

(** [read mem ~addr ~width] reads [width] bytes (1, 2, 4 or 8) at [addr]
    and returns them zero-extended to 64 bits.
    @raise Invalid_argument on an unsupported width. *)
val read : t -> addr:int64 -> width:int -> int64

(** [read_signed] is [read] followed by sign extension from [width] bytes. *)
val read_signed : t -> addr:int64 -> width:int -> int64

(** [write mem ~addr ~width v] stores the low [width] bytes of [v] at [addr].
    @raise Invalid_argument on an unsupported width. *)
val write : t -> addr:int64 -> width:int -> int64 -> unit

(** [read_into t ~addr ~width dst off] is [read] with the address given
    as {!addr_int} would truncate it, and the result stored with
    {!Raw.set64} at byte [off] of [dst]: the engine's zero-allocation
    access path. *)
val read_into : t -> addr:int -> width:int -> Bytes.t -> int -> unit

(** [write_from t ~addr ~width src off] is [write] of the word at byte
    [off] of [src] (read with {!Raw.get64}). *)
val write_from : t -> addr:int -> width:int -> Bytes.t -> int -> unit

val read_byte : t -> int64 -> int
val write_byte : t -> int64 -> int -> unit

(** [load_bytes mem addr b] copies the whole of [b] into memory at [addr]. *)
val load_bytes : t -> int64 -> bytes -> unit

(** [dump_bytes mem addr len] reads [len] bytes starting at [addr]. *)
val dump_bytes : t -> int64 -> int -> bytes

(** [clear mem] drops every page, returning the memory to its initial state. *)
val clear : t -> unit

(** [fold_pages mem ~init ~f] folds over allocated pages in increasing
    page-index order; each page is 4096 bytes. The callback must not
    mutate the memory. Used by {!Checkpoint}. *)
val fold_pages : t -> init:'a -> f:('a -> int -> bytes -> 'a) -> 'a

(** Page size in bytes (4096). *)
val page_size : int

(** log2 of {!page_size}: [addr lsr page_bits] is the page index. *)
val page_bits : int

(** [page_size - 1]: [addr land page_mask] is the in-page offset. *)
val page_mask : int

(** [addr_int a] is the canonical native-int form of address [a] (the
    full 64-bit space is truncated losslessly for programs living below
    [max_int]). Page index and offset are derived from this value. *)
val addr_int : int64 -> int

(** [lookup_page mem index] returns the backing bytes of page [index],
    allocating it on demand. The returned buffer is live: writes through
    it are visible to subsequent reads, but bypass code-page write hooks
    — callers caching it must revalidate via {!generation}. *)
val lookup_page : t -> int -> bytes

(** [generation mem] changes whenever previously handed-out page buffers
    may no longer be trusted: on {!clear} and when a page is newly marked
    as code. A one-entry per-site page cache is valid only while the
    generation it captured still matches. *)
val generation : t -> int

(** [note_code_page mem index] marks page [index] as holding translated
    code: subsequent writes to it invoke the code-write hooks. Bumps
    {!generation} the first time a page is marked. *)
val note_code_page : t -> int -> unit

val is_code_page : t -> int -> bool

(** [add_code_write_hook mem f] arranges for [f index] to run after any
    write that touches a page previously passed to {!note_code_page}.
    Hooks compose: earlier hooks still run (several synthesized
    interfaces may share one memory). {!clear} drops the code-page set
    but keeps the hooks installed. *)
val add_code_write_hook : t -> (int -> unit) -> unit

(** [digest mem] is a 64-bit hash of the allocated contents. All-zero
    pages hash like absent pages, so two memories with the same byte
    contents digest equally regardless of which addresses were merely
    touched. Used by divergence checkers to compare memories in O(pages)
    instead of O(address space). *)
val digest : t -> int64

(** [blit_all ~src ~dst] makes [dst]'s contents byte-equal to [src]
    (clearing [dst] first). The endiannesses must match.
    @raise Sim_error.Error on an endianness mismatch. *)
val blit_all : src:t -> dst:t -> unit

(** [equal_contents a b] compares contents via {!digest}. *)
val equal_contents : t -> t -> bool
