type endian = Little | Big

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  endian : endian;
  pages : (int, Bytes.t) Hashtbl.t;
  (* One-entry cache of the most recently touched page: instruction fetch
     and stack traffic hit the same page repeatedly. *)
  mutable last_index : int;
  mutable last_page : Bytes.t;
  (* Bumped whenever the page table may have moved under an external
     cache: on [clear] and when a page is newly marked as holding
     translated code. Per-site page caches compare this before trusting
     a remembered [Bytes.t]. *)
  mutable generation : int;
  (* Pages known to hold translated code. [code_lo]/[code_hi] bound the
     marked page indices so the common data-store case pays two integer
     compares, not a hash probe. *)
  code_pages : (int, unit) Hashtbl.t;
  mutable code_lo : int;
  mutable code_hi : int;
  mutable on_code_write : int -> unit;
}

let no_page = Bytes.create 0

let create endian =
  {
    endian;
    pages = Hashtbl.create 64;
    last_index = -1;
    last_page = no_page;
    generation = 0;
    code_pages = Hashtbl.create 8;
    code_lo = max_int;
    code_hi = min_int;
    on_code_write = ignore;
  }

let endian t = t.endian
let page_count t = Hashtbl.length t.pages
let generation t = t.generation

let clear t =
  Hashtbl.reset t.pages;
  t.last_index <- -1;
  t.last_page <- no_page;
  Hashtbl.reset t.code_pages;
  t.code_lo <- max_int;
  t.code_hi <- min_int;
  t.generation <- t.generation + 1

let note_code_page t index =
  if not (Hashtbl.mem t.code_pages index) then begin
    Hashtbl.replace t.code_pages index ();
    if index < t.code_lo then t.code_lo <- index;
    if index > t.code_hi then t.code_hi <- index;
    (* A per-site cache may hold this page from when it was plain data;
       force those caches to revalidate so stores take the guarded path. *)
    t.generation <- t.generation + 1
  end

let is_code_page t index =
  index >= t.code_lo && index <= t.code_hi && Hashtbl.mem t.code_pages index

let add_code_write_hook t f =
  let prev = t.on_code_write in
  t.on_code_write <- (fun idx -> prev idx; f idx)

(* Addresses are truncated to the native-int range; programs in this
   simulator live far below 2^62 so the truncation is lossless. *)
let to_int (a : int64) = Int64.to_int a land max_int
let addr_int = to_int

let page t index =
  if index = t.last_index then t.last_page
  else
    let p =
      match Hashtbl.find_opt t.pages index with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.add t.pages index p;
        p
    in
    t.last_index <- index;
    t.last_page <- p;
    p

let lookup_page = page

let read_byte t addr =
  let a = to_int addr in
  Bytes.unsafe_get (page t (a lsr page_bits)) (a land page_mask) |> Char.code

let write_byte t addr v =
  let a = to_int addr in
  let idx = a lsr page_bits in
  Bytes.unsafe_set (page t idx) (a land page_mask)
    (Char.unsafe_chr (v land 0xff));
  if idx >= t.code_lo && idx <= t.code_hi && Hashtbl.mem t.code_pages idx then
    t.on_code_write idx

let check_width width =
  match width with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg (Printf.sprintf "Memory: unsupported width %d" width)

(* Slow path: assemble bytes one at a time (page-spanning or odd widths). *)
let read_bytes_slow t a width =
  let v = ref 0L in
  (match t.endian with
  | Little ->
    for i = width - 1 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (read_byte t (Int64.of_int (a + i))))
    done
  | Big ->
    for i = 0 to width - 1 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (read_byte t (Int64.of_int (a + i))))
    done);
  !v

let write_bytes_slow t a width v =
  match t.endian with
  | Little ->
    for i = 0 to width - 1 do
      write_byte t
        (Int64.of_int (a + i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done
  | Big ->
    for i = 0 to width - 1 do
      write_byte t
        (Int64.of_int (a + i))
        (Int64.to_int (Int64.shift_right_logical v (8 * (width - 1 - i)))
        land 0xff)
    done

(* [read_int]/[write_int] take the address already truncated by
   [to_int]; [read_into]/[write_from] use them to move a word between
   memory and [Bytes] storage without boxing it. *)
let[@inline] read_int t a width =
  check_width width;
  let off = a land page_mask in
  if off + width <= page_size then begin
    let p = page t (a lsr page_bits) in
    match (width, t.endian) with
    | 1, _ -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | 2, Little -> Int64.of_int (Bytes.get_uint16_le p off)
    | 2, Big -> Int64.of_int (Bytes.get_uint16_be p off)
    | 4, Little -> Int64.of_int32 (Bytes.get_int32_le p off) |> Int64.logand 0xFFFFFFFFL
    | 4, Big -> Int64.of_int32 (Bytes.get_int32_be p off) |> Int64.logand 0xFFFFFFFFL
    | 8, Little -> Bytes.get_int64_le p off
    | 8, Big -> Bytes.get_int64_be p off
    | _ -> assert false
  end
  else read_bytes_slow t a width

let read t ~addr ~width = read_int t (to_int addr) width

let read_into t ~addr ~width dst off =
  let v = read_int t (addr land max_int) width in
  Raw.set64 dst off v

let sign_extend v width =
  let bits = 64 - (8 * width) in
  Int64.shift_right (Int64.shift_left v bits) bits

let read_signed t ~addr ~width = sign_extend (read t ~addr ~width) width

let[@inline] write_int t a width v =
  check_width width;
  let off = a land page_mask in
  if off + width <= page_size then begin
    let idx = a lsr page_bits in
    let p = page t idx in
    (match (width, t.endian) with
    | 1, _ -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xff))
    | 2, Little -> Bytes.set_uint16_le p off (Int64.to_int v land 0xffff)
    | 2, Big -> Bytes.set_uint16_be p off (Int64.to_int v land 0xffff)
    | 4, Little -> Bytes.set_int32_le p off (Int64.to_int32 v)
    | 4, Big -> Bytes.set_int32_be p off (Int64.to_int32 v)
    | 8, Little -> Bytes.set_int64_le p off v
    | 8, Big -> Bytes.set_int64_be p off v
    | _ -> assert false);
    if idx >= t.code_lo && idx <= t.code_hi && Hashtbl.mem t.code_pages idx
    then t.on_code_write idx
  end
  else write_bytes_slow t a width v

let write t ~addr ~width v = write_int t (to_int addr) width v

let write_from t ~addr ~width src off =
  let v = Raw.get64 src off in
  write_int t (addr land max_int) width v

let load_bytes t addr b =
  for i = 0 to Bytes.length b - 1 do
    write_byte t (Int64.add addr (Int64.of_int i)) (Char.code (Bytes.get b i))
  done

(* Iterate allocated pages in increasing index order (stable output for
   serialization). *)
let fold_pages t ~init ~f =
  Hashtbl.fold (fun idx page acc -> (idx, page) :: acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left (fun acc (idx, page) -> f acc idx page) init

let zero_page = Bytes.make page_size '\000'

(* splitmix64 finalizer: a cheap, well-mixed 64-bit hash step. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let digest t =
  (* Canonical: an all-zero page hashes like an absent page, so machines
     that merely touched different addresses still compare equal. *)
  fold_pages t ~init:0x9E3779B97F4A7C15L ~f:(fun acc idx page ->
      if Bytes.equal page zero_page then acc
      else begin
        let h = ref (mix64 (Int64.logxor acc (Int64.of_int idx))) in
        for w = 0 to (page_size / 8) - 1 do
          h := mix64 (Int64.logxor !h (Bytes.get_int64_le page (w * 8)))
        done;
        !h
      end)

let blit_all ~src ~dst =
  if src.endian <> dst.endian then
    raise
      (Sim_error.Error
         (Sim_error.make ~component:"memory" "blit_all: endianness mismatch"));
  clear dst;
  fold_pages src ~init:() ~f:(fun () idx page ->
      if not (Bytes.equal page zero_page) then
        Hashtbl.replace dst.pages idx (Bytes.copy page))

let equal_contents a b = Int64.equal (digest a) (digest b)

let dump_bytes t addr len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (read_byte t (Int64.add addr (Int64.of_int i))))
  done;
  b
