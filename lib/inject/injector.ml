(** Deterministic fault injectors.

    An injector corrupts the *timing* machine's state at configurable
    sites and rates; every decision is keyed on (seed, instruction index)
    through {!Prng}, so a campaign replays exactly. The corruption sites
    mirror the ways a buggy timing model can diverge from the functional
    specification:

    - [Reg_bitflip] — flip one bit of one architectural register;
    - [Mem_byte] — XOR one byte of an allocated memory page;
    - [Pc_skew] — displace the fetch PC by a few words;
    - [Fault_sub] — substitute a spurious architectural fault (the
      machine halts as if the ISA had trapped);
    - [Di_slot] — corrupt one visible cell of the dynamic-instruction
      record at the interface boundary. This perturbs only the
      information the timing model consumes, not architectural state, so
      a state-comparing checker is *expected not to* catch it; campaigns
      report it separately as "timing-only".

    The injector plugs into {!Timing.Timingfirst.run}'s [bug] callback. *)

type site = Reg_bitflip | Mem_byte | Pc_skew | Fault_sub | Di_slot

let all_sites = [ Reg_bitflip; Mem_byte; Pc_skew; Fault_sub; Di_slot ]
let architectural_sites = [ Reg_bitflip; Mem_byte; Pc_skew; Fault_sub ]

(** Sites whose corruption is visible in architectural state (and hence
    detectable by a state-comparing checker). *)
let is_architectural = function
  | Reg_bitflip | Mem_byte | Pc_skew | Fault_sub -> true
  | Di_slot -> false

let site_to_string = function
  | Reg_bitflip -> "reg"
  | Mem_byte -> "mem"
  | Pc_skew -> "pc"
  | Fault_sub -> "fault"
  | Di_slot -> "di"

let site_of_string = function
  | "reg" -> Some Reg_bitflip
  | "mem" -> Some Mem_byte
  | "pc" -> Some Pc_skew
  | "fault" -> Some Fault_sub
  | "di" -> Some Di_slot
  | _ -> None

(** One injection that actually happened. [e_index] is the victim
    machine's instruction count at injection time. *)
type event = { e_index : int64; e_site : site; e_desc : string }

type t = {
  seed : int64;
  rate : float;
  sites : site array;
  mutable events_rev : event list;
  mutable injected : int;
}

let create ~seed ~rate ?(sites = all_sites) () =
  if rate < 0.0 || rate > 1.0 then
    Machine.Sim_error.raisef ~component:"inject"
      ~context:[ ("rate", string_of_float rate) ]
      "injection rate must be within [0, 1]";
  if sites = [] then
    Machine.Sim_error.raisef ~component:"inject" "no injection sites enabled";
  { seed; rate; sites = Array.of_list sites; events_rev = []; injected = 0 }

(** Injections so far, in chronological order. *)
let events t = List.rev t.events_rev

let n_injected t = t.injected

let log t index site desc =
  t.events_rev <- { e_index = index; e_site = site; e_desc = desc } :: t.events_rev;
  t.injected <- t.injected + 1

let inject_reg t ~index (st : Machine.State.t) =
  let total = Machine.Regfile.total st.regs in
  (* skip hardwired-zero registers: writes to them are discarded *)
  let rec pick flat tries =
    if tries > total then None
    else if Machine.Regfile.is_hardwired_flat st.regs flat then
      pick ((flat + 1) mod total) (tries + 1)
    else Some flat
  in
  match pick (Prng.below ~seed:t.seed ~index ~salt:2 total) 0 with
  | None -> ()
  | Some flat ->
    let mask = Machine.Regfile.mask_flat st.regs flat in
    (* count the writable bits so the flipped bit survives the width mask *)
    let width = ref 0 in
    while
      !width < 64
      && not (Int64.equal (Int64.logand mask (Int64.shift_left 1L !width)) 0L)
    do
      incr width
    done;
    let bit = Prng.below ~seed:t.seed ~index ~salt:3 (max 1 !width) in
    let old = Machine.Regfile.read_flat st.regs flat in
    Machine.Regfile.write_flat st.regs flat
      (Int64.logxor old (Int64.shift_left 1L bit));
    log t index Reg_bitflip (Printf.sprintf "flat reg %d bit %d" flat bit)

let inject_mem t ~index (st : Machine.State.t) =
  let n_pages = Machine.Memory.page_count st.mem in
  if n_pages > 0 then begin
    let nth = Prng.below ~seed:t.seed ~index ~salt:4 n_pages in
    let page_idx =
      (* allocated pages in index order; find the nth *)
      let k = ref 0 and found = ref (-1) in
      Machine.Memory.fold_pages st.mem ~init:() ~f:(fun () idx _ ->
          if !k = nth then found := idx;
          incr k);
      !found
    in
    let off = Prng.below ~seed:t.seed ~index ~salt:5 Machine.Memory.page_size in
    let addr =
      Int64.of_int ((page_idx * Machine.Memory.page_size) + off)
    in
    let x = 1 + Prng.below ~seed:t.seed ~index ~salt:6 255 in
    let old = Machine.Memory.read_byte st.mem addr in
    Machine.Memory.write_byte st.mem addr (old lxor x);
    log t index Mem_byte (Printf.sprintf "byte at 0x%Lx xor 0x%02x" addr x)
  end

let inject_pc t ~index (st : Machine.State.t) =
  let words = 1 + Prng.below ~seed:t.seed ~index ~salt:7 4 in
  let sign = if Prng.below ~seed:t.seed ~index ~salt:8 2 = 0 then 1 else -1 in
  let delta = Int64.of_int (4 * words * sign) in
  st.pc <- Int64.add st.pc delta;
  log t index Pc_skew (Printf.sprintf "pc skewed by %Ld" delta)

let inject_fault t ~index (st : Machine.State.t) =
  Machine.State.raise_fault st
    (Machine.Fault.Arith (Printf.sprintf "injected@%Ld" index));
  log t index Fault_sub "spurious arithmetic fault"

let inject_di t ~index (di : Specsim.Di.t) =
  let n = Specsim.Di.slots di in
  let slot = Prng.below ~seed:t.seed ~index ~salt:9 n in
  Specsim.Di.set di slot
    (Int64.logxor (Specsim.Di.get di slot) (Prng.draw ~seed:t.seed ~index ~salt:10));
  log t index Di_slot (Printf.sprintf "di slot %d" slot)

(** [bug t st di] — the per-instruction corruption hook. Keyed on
    [st.instr_count], so re-execution during recovery (which does not call
    the hook) cannot shift later injections. *)
let bug t (st : Machine.State.t) (di : Specsim.Di.t) =
  let index = st.instr_count in
  if Prng.uniform ~seed:t.seed ~index ~salt:0 < t.rate then
    let site =
      t.sites.(Prng.below ~seed:t.seed ~index ~salt:1 (Array.length t.sites))
    in
    match site with
    | Reg_bitflip -> inject_reg t ~index st
    | Mem_byte -> inject_mem t ~index st
    | Pc_skew -> inject_pc t ~index st
    | Fault_sub -> inject_fault t ~index st
    | Di_slot -> inject_di t ~index di

(** [journaled_corrupt t ~trial journal st] corrupts one register and one
    memory word *through the speculation journal* — the shape of a
    wrong-path write. Used to prove that {!Specsim.Specul} rollback
    restores state byte-exactly even when the speculative path was
    actively corrupting. *)
let journaled_corrupt t ~trial (j : Specsim.Specul.t) (st : Machine.State.t) =
  let index = Int64.of_int trial in
  let total = Machine.Regfile.total st.regs in
  let rec pick flat tries =
    if tries > total then None
    else if Machine.Regfile.is_hardwired_flat st.regs flat then
      pick ((flat + 1) mod total) (tries + 1)
    else Some flat
  in
  (match pick (Prng.below ~seed:t.seed ~index ~salt:11 total) 0 with
  | None -> ()
  | Some flat ->
    Specsim.Specul.record_reg j st flat;
    Machine.Regfile.write_flat st.regs flat
      (Prng.draw ~seed:t.seed ~index ~salt:12));
  let addr =
    Int64.of_int (8 * Prng.below ~seed:t.seed ~index ~salt:13 4096)
  in
  Specsim.Specul.record_store j st addr 8;
  Machine.Memory.write st.mem ~addr ~width:8
    (Prng.draw ~seed:t.seed ~index ~salt:14)
