(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (DI slots
    vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and every
    instruction is specialized against its concrete encoding and cached
    (the binary-translation analog) — in basic blocks on block-semantic
    buildsets, one instruction at a time on the others. *)

open Machine

exception Synth_error of string

let synth_error fmt = Format.kasprintf (fun m -> raise (Synth_error m)) fmt

type backend = Compiled | Interpreted

(* Seeded block-engine defects for mutation-testing the fuzzer (see the
   interface). *)
type mutation = Stale_chain | Skip_invalidate | Stride4

let mutation_names =
  [ (Stale_chain, "stale-chain"); (Skip_invalidate, "skip-invalidate");
    (Stride4, "stride4") ]

let mutation_to_string m = List.assoc m mutation_names

let mutation_of_string s =
  List.find_map (fun (m, n) -> if n = s then Some m else None) mutation_names

(* Segment: compilation-time view of an entrypoint's parts. Fetch and
   decode are engine builtins; everything else is instruction IR. *)
type seg = Seg_fetch | Seg_decode | Seg_ir of Lis.Spec.action_sym list

let spec_window = 64

(* --- Segment construction ----------------------------------------- *)

let segments_of_entrypoint (syms : Lis.Spec.action_sym list) : seg list =
  let flush acc cur =
    match cur with [] -> acc | _ -> Seg_ir (List.rev cur) :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (flush acc cur)
    | Lis.Spec.A_fetch :: rest -> go (Seg_fetch :: flush acc cur) [] rest
    | Lis.Spec.A_decode :: rest -> go (Seg_decode :: flush acc cur) [] rest
    | sym :: rest -> go acc (sym :: cur) rest
  in
  go [] [] syms

let sym_ir (i : Lis.Spec.instr) = function
  | Lis.Spec.A_fetch | Lis.Spec.A_decode -> []
  | Lis.Spec.A_read_operands -> i.i_read
  | Lis.Spec.A_writeback -> i.i_writeback
  | Lis.Spec.A_user name -> Lis.Spec.user_action i name

(* IR contributed by a segment for instruction [i]; decode contributes the
   generated operand-id extraction. *)
let seg_ir (i : Lis.Spec.instr) = function
  | Seg_fetch -> []
  | Seg_decode -> i.i_decode
  | Seg_ir syms -> List.concat_map (sym_ir i) syms

module Iset = Set.Make (Int)

let reads_of (p : Semir.Ir.program) = Iset.of_list (Semir.Ir.program_reads p)

(* [Obs.Clock.elapsed_ns], inlined here so a timestamp is never boxed. *)
let[@inline] elapsed_since t0 = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)

(* --- Plan --------------------------------------------------------- *)

(* Everything synthesis derives from the description before compiling
   any code: the entrypoint shape, per-class facts, and the cells that
   must survive DCE whatever entrypoint runs next. *)
type plan = {
  spec : Lis.Spec.t;
  bs : Lis.Spec.buildset;
  ep_fetch : bool array;  (** per entrypoint: fetches / decodes / runs IR *)
  ep_decode : bool array;
  ep_ir : bool array;
  is_ctrl : bool array;  (** per class: may end a block *)
  seg_ir_of : (Semir.Ir.program * (int -> bool) * int64) array array;
      (** per class, per entrypoint: its IR, the cells DCE keeps —
          visible cells, cross-instruction carriers (cells some
          instruction reads before it writes them) and cells a later
          entrypoint of the same instruction reads — and the encoding
          bits it reads *)
  store_free : bool array;
      (** per class: statically store- and syscall-free ({!Analysis.Absint}) *)
  size64 : int64 array;
  size_mask : int64 array;
  max_block : int;
}

let check_hidden_crossing ~allow_hidden_crossing (spec : Lis.Spec.t)
    (bs : Lis.Spec.buildset) =
  match Liveness.check spec bs with
  | violations when violations <> [] && not allow_hidden_crossing ->
    let summary = Liveness.summarize violations in
    synth_error
      "buildset %s/%s hides %d cell(s) that cross entrypoint boundaries:@\n%s"
      spec.name bs.bs_name (List.length summary)
      (String.concat "\n"
         (List.map
            (fun (c, w, r) -> Printf.sprintf "  '%s' written in '%s', read in '%s'" c w r)
            summary))
  | _ -> ()

let rec stmt_is_ctrl (s : Semir.Ir.stmt) =
  match s with
  | Set_next_pc _ | Syscall | Halt | Fault_illegal | Fault_unaligned _
  | Fault_arith _ ->
    true
  | If (_, t, f) -> List.exists stmt_is_ctrl t || List.exists stmt_is_ctrl f
  | Set_cell _ | Store _ | Reg_write _ -> false

(* Cells read by [ir] before it writes them. *)
let upward_exposed ir =
  let rec go live reads = function
    | [] -> reads
    | s :: rest ->
      let exposed = Iset.diff (Iset.of_list (Semir.Ir.stmt_reads [] s)) live in
      let live = Iset.union live (Iset.of_list (Semir.Ir.stmt_writes [] s)) in
      go live (Iset.union reads exposed) rest
  in
  go Iset.empty Iset.empty ir

let plan ~absint ~(stats : Iface.stats) (spec : Lis.Spec.t)
    (bs : Lis.Spec.buildset) : plan =
  let ep_segs =
    Array.map (fun (_, syms) -> segments_of_entrypoint syms) bs.bs_entrypoints
  in
  let has f = Array.map (List.exists f) ep_segs in
  let rec ir_before_decode = function
    | Seg_ir _ :: _ -> true
    | Seg_fetch :: rest -> ir_before_decode rest
    | Seg_decode :: _ | [] -> false
  in
  if ir_before_decode (List.concat (Array.to_list ep_segs)) then
    synth_error "buildset %s/%s runs instruction actions before 'decode'"
      spec.name bs.bs_name;
  if bs.bs_block && Array.length ep_segs <> 1 then
    synth_error "buildset %s/%s: 'semantic block' requires a single entrypoint"
      spec.name bs.bs_name;
  (* per class, each entrypoint's IR; the entrypoints partition the
     sequence, so together they are the whole instruction *)
  let ep_irs =
    Array.map
      (fun (i : Lis.Spec.instr) -> Array.map (List.concat_map (seg_ir i)) ep_segs)
      spec.instrs
  in
  let chain_ir = Array.map (fun irs -> List.concat (Array.to_list irs)) ep_irs in
  let carried =
    Array.fold_left (fun acc ir -> Iset.union acc (upward_exposed ir)) Iset.empty chain_ir
  in
  let base_keep c = bs.bs_visible.(c) || Iset.mem c carried in
  let parcel n = if n >= 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * n)) 1L in
  let seg_ir_of =
    Array.mapi
      (fun ii irs ->
        let i = spec.instrs.(ii) in
        (* the encoding bits a segment reads, or -1 when they are all the
           operand bits of the parcel (no two sites could share it) *)
        let bits ir =
          let b = Semir.Ir.program_enc_bits ir in
          let free = Int64.logand (parcel i.i_size) (Int64.lognot i.i_mask) in
          if Array.length irs = 1 || Int64.logand free b = free then -1L else b
        in
        let segs = Array.map (fun ir -> (ir, base_keep, bits ir)) irs in
        let later = ref Iset.empty in
        for k = Array.length irs - 1 downto 1 do
          later := Iset.union !later (reads_of irs.(k));
          let read_later = !later in
          let ir, _, bits = segs.(k - 1) in
          segs.(k - 1) <- (ir, (fun c -> base_keep c || Iset.mem c read_later), bits)
        done;
        segs)
      ep_irs
  in
  (* Static effect analysis: which classes are provably store-free (no
     [Store] on any path, no syscall whose handler could write memory)?
     Their blocks cannot invalidate translated code, so they skip the
     per-site SMC recheck. The analysis is sound, never required:
     [absint = false] degrades every verdict to "unsafe". *)
  let store_free =
    if not absint then Array.make (Array.length spec.instrs) false
    else
      let t0 = Obs.Clock.now_ns () in
      let safe = Array.map Analysis.Absint.store_free (Analysis.Absint.summarize spec) in
      stats.absint_ns <- elapsed_since t0;
      safe
  in
  if not bs.bs_block then
    stats.fastpath_classes <- List.length (List.filter Fun.id (Array.to_list store_free));
  let per_class f = Array.map (fun (i : Lis.Spec.instr) -> f i.i_size) spec.instrs in
  { spec; bs; seg_ir_of; store_free;
    ep_fetch = has (fun s -> s = Seg_fetch);
    ep_decode = has (fun s -> s = Seg_decode);
    ep_ir = has (fun s -> s <> Seg_fetch);
    is_ctrl = Array.map (List.exists stmt_is_ctrl) chain_ir;
    size64 = per_class Int64.of_int;
    size_mask = per_class parcel;
    max_block = (if bs.bs_block then 64 else 1) }

(* --- Site compiler ------------------------------------------------ *)

(* An instruction's entrypoint segments in order, until the machine halts. *)
let run_segs (segs : Semir.Compile.code array) : Semir.Compile.code =
  let n = Array.length segs in
  if n = 1 then segs.(0)
  else fun st fr ->
    let k = ref 0 in
    while !k < n && not st.State.halted do
      (Array.unsafe_get segs !k) st fr;
      incr k
    done

(* The shared translation cache: specialization depends only on the
   class and the encoding, never on the pc, so loops entered at several
   pcs, duplicated code and rebuilt units reuse compiled sites. Each
   entrypoint's segment is [Opt.optimize ~enc] of its IR. A segment
   depends only on the encoding bits it reads, so on multi-entrypoint
   buildsets sites that agree on them share it. The cache survives
   [flush_code_cache]: its keys stay correct whatever memory holds. *)
let site_compiler (p : plan) ~compile (stats : Iface.stats) =
  let tbl : (int * int64, Tblock.site) Hashtbl.t = Hashtbl.create 256 in
  (* per class and entrypoint: the segment compiled for each value of
     the encoding bits it reads *)
  let shared = Array.map (Array.map (fun _ -> [])) p.seg_ir_of in
  let segment enc idx k (ir, keep, bits) =
    if bits = -1L then compile (Semir.Opt.optimize ~enc ~keep ir)
    else
      let key = if bits = 0L then 0L else Int64.logand enc bits in
      match List.assoc_opt key shared.(idx).(k) with
      | Some c -> c
      | None ->
        let c = compile (Semir.Opt.optimize ~enc ~keep ir) in
        shared.(idx).(k) <- (key, c) :: shared.(idx).(k);
        c
  in
  fun enc idx ->
    let key = (idx, enc) in
    match Hashtbl.find_opt tbl key with
    | Some s ->
      stats.site_cache_hits <- stats.site_cache_hits + 1;
      s
    | None ->
      stats.sites_compiled <- stats.sites_compiled + 1;
      let segs = Array.mapi (segment enc idx) p.seg_ir_of.(idx) in
      Hashtbl.add tbl key segs;
      segs

(* --- Unit cache --------------------------------------------------- *)

(* The translation units of one interface, keyed by pc, with the
   successor-cache dispatch every call style goes through. *)
type cache = {
  dispatch : int64 -> Tblock.t;  (** the valid unit at a pc, built on a miss *)
  flush : unit -> unit;
}

let unit_cache (p : plan) ~mutate ~compile_site ~wrap_site ~(illegal : Tblock.site)
    (st : State.t) (stats : Iface.stats) : cache =
  let stale_chain = mutate = Some Stale_chain in
  let spec = p.spec in
  let decoder = Decoder.make spec in
  let instr_bytes64 = Int64.of_int spec.instr_bytes in
  let blocks : (int64, Tblock.t) Hashtbl.t = Hashtbl.create 1024 in
  (* Pages holding translated code, mapped to the units compiled from
     them; a write to such a page invalidates those units (and thereby
     every chain link into them, since dispatch re-checks [b_valid]). *)
  let page_blocks : (int, Tblock.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let last_block = ref Tblock.dummy in
  if mutate <> Some Skip_invalidate then
    Memory.add_code_write_hook st.mem (fun pidx ->
        match Hashtbl.find_opt page_blocks pidx with
        | None -> ()
        | Some l ->
          List.iter
            (fun (b : Tblock.t) ->
              if b.b_valid then begin
                b.b_valid <- false;
                Hashtbl.remove blocks b.b_pc0;
                stats.block_invalidations <- stats.block_invalidations + 1
              end)
            !l;
          l := [];
          last_block := Tblock.dummy);
  let build_block pc0 =
    let read pc = Memory.read st.mem ~addr:pc ~width:spec.instr_bytes in
    let window = read pc0 in
    (* the fall-through pc and the sites, reversed, as (pc, parcel,
       class, site); the parcel drops the tail of the fetch window (the
       next instruction's) before it keys the site cache *)
    let rec scan pc n acc =
      let enc = if n = 0 then window else read pc in
      let idx = Decoder.decode decoder enc in
      if idx < 0 then (Int64.add pc instr_bytes64, (pc, enc, idx, illegal) :: acc)
      else begin
        let mask = p.size_mask.(idx) in
        let enc = if Int64.logand enc mask = enc then enc else Int64.logand enc mask in
        let acc = (pc, enc, idx, compile_site enc idx) :: acc in
        let next = Int64.add pc p.size64.(idx) in
        if p.is_ctrl.(idx) || n + 1 >= p.max_block then (next, acc)
        else scan next (n + 1) acc
      end
    in
    let fall, rev_sites = scan pc0 0 [] in
    let sites = Array.of_list (List.rev rev_sites) in
    let n = Array.length sites in
    let stable = Array.for_all (fun (_, _, i, _) -> i >= 0 && p.store_free.(i)) sites in
    stats.blocks_compiled <- stats.blocks_compiled + 1;
    if stable then stats.stable_blocks <- stats.stable_blocks + 1;
    (* the site pcs plus the fall-through pc; the seeded [Stride4] defect
       walks a uniform 4 bytes instead, wrong on any other stride *)
    let pcs =
      if mutate = Some Stride4 then
        Array.init (n + 1) (fun i -> Int64.add pc0 (Int64.of_int (4 * i)))
      else Array.append (Array.map (fun (pc, _, _, _) -> pc) sites) [| fall |]
    in
    let b =
      { Tblock.b_pc0 = pc0;
        b_codes = Array.map (fun (_, _, _, segs) -> wrap_site segs) sites;
        b_segs = (let _, _, _, segs = sites.(0) in segs);
        b_encs = Array.map (fun (_, enc, _, _) -> enc) sites;
        b_idxs = Array.map (fun (_, _, i, _) -> i) sites;
        b_pcs = pcs;
        b_window = window;
        b_fetch_next =
          (if Int64.sub pcs.(1) pc0 = instr_bytes64 then pcs.(1)
           else Int64.add pc0 instr_bytes64);
        b_stable = stable; b_valid = true;
        b_s1_pc = -1L; b_s1 = Tblock.dummy; b_s2_pc = -1L; b_s2 = Tblock.dummy }
    in
    (* Register the code pages this unit was translated from. *)
    let lo = Memory.addr_int pc0 lsr Memory.page_bits in
    let hi = Memory.addr_int (Int64.sub pcs.(n) 1L) lsr Memory.page_bits in
    for pidx = lo to hi do
      Memory.note_code_page st.mem pidx;
      let l =
        match Hashtbl.find_opt page_blocks pidx with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add page_blocks pidx l;
          l
      in
      l := b :: !l
    done;
    b
  in
  let find_block pc0 =
    match Hashtbl.find_opt blocks pc0 with
    | Some b ->
      stats.block_hits <- stats.block_hits + 1;
      b
    | None ->
      let b = build_block pc0 in
      Hashtbl.add blocks pc0 b;
      b
  in
  (* Chained dispatch: try the predecessor's successor cache before the
     hash table, installing / promoting on the way (most recent first).
     [trust] is the single-trust invariant ([b_valid] is the only thing
     dispatch believes); [Stale_chain] breaks it for every real block. *)
  let trust (b : Tblock.t) =
    b.b_valid || (stale_chain && not (Int64.equal b.b_pc0 (-1L)))
  in
  let install (prev : Tblock.t) pc0 b =
    prev.b_s2_pc <- prev.b_s1_pc;
    prev.b_s2 <- prev.b_s1;
    prev.b_s1_pc <- pc0;
    prev.b_s1 <- b;
    b
  in
  let chained b =
    stats.chain_taken <- stats.chain_taken + 1;
    stats.block_hits <- stats.block_hits + 1;
    b
  in
  let lookup_from (prev : Tblock.t) (pc0 : int64) =
    if not (trust prev) then find_block pc0
    else if prev.b_s1_pc = pc0 && trust prev.b_s1 then chained prev.b_s1
    else if prev.b_s2_pc = pc0 && trust prev.b_s2 then
      chained (install prev pc0 prev.b_s2)
    else begin
      stats.chain_miss <- stats.chain_miss + 1;
      install prev pc0 (find_block pc0)
    end
  in
  (* A dispatched unit must start at the requested pc — the one
     structural invariant the successor caches could silently break. A
     violation is an "engine" {!Sim_error} (exit code 5), the signal the
     supervised runtime's degradation ladder demotes on. *)
  let dispatch pc0 =
    let b = lookup_from !last_block pc0 in
    if b.b_pc0 <> pc0 then
      Sim_error.raisef ~component:"engine"
        ~context:
          [ ("pc", Printf.sprintf "0x%Lx" pc0);
            ("block_pc0", Printf.sprintf "0x%Lx" b.b_pc0);
            ("instructions", Int64.to_string st.instr_count) ]
        "block dispatch invariant violated: cached block does not start at \
         the dispatch pc";
    last_block := b;
    b
  in
  let flush () =
    stats.block_invalidations <- stats.block_invalidations + 1;
    (* Invalidate before dropping: chain links and [last_block] may still
       point at these units, and dispatch trusts only [b_valid]. The
       shared site cache survives — [(class, encoding)] keys stay correct
       whatever memory now holds. The memory's code-page set also stays:
       other interfaces on the same machine may still have live units. *)
    Hashtbl.iter (fun _ (b : Tblock.t) -> b.b_valid <- false) blocks;
    Hashtbl.reset blocks;
    Hashtbl.reset page_blocks;
    last_block := Tblock.dummy
  in
  { dispatch; flush }

(* --- Observers ---------------------------------------------------- *)

(* Instrumentation is selected at synthesis time — the compiled-in hook
   pattern. Without a full [obs] context every wrapper is the identity:
   no flag tests, no extra indirection, the zero-overhead guarantee.
   With one, every entrypoint crossing is counted and timed into log2
   histograms, and one event per instruction (or per block) goes to the
   trace ring when one is attached. Profile-only contexts get only the
   profiler attribution in {!executor}. *)
type observers = {
  full : bool;
  wrap_site : Semir.Compile.code array -> Semir.Compile.code;  (** whole instruction *)
  wrap_exec : (limit:int -> Di.t -> int) -> limit:int -> Di.t -> int;  (** one unit *)
  wrap_step : (Di.t -> int -> unit) -> Di.t -> int -> unit;
}

let observers (p : plan) ~obs ~journal (st : State.t) (stats : Iface.stats) =
  match obs with
  | Some (o : Obs.t) when o.Obs.full ->
    let module R = Obs.Registry in
    let reg = o.Obs.reg in
    let crossings = R.counter reg "synth.entrypoint_calls" in
    let per_ep f suffix =
      Array.map (fun (nm, _) -> f reg ("synth.ep." ^ nm ^ suffix)) p.bs.bs_entrypoints
    in
    let ep_calls = per_ep R.counter ".calls" and ep_hist = per_ep R.histogram ".ns" in
    let block_hist = R.histogram reg "synth.block.ns" in
    List.iter
      (fun (name, f) -> R.probe reg name (fun () -> R.Int (f ())))
      ([ ("core.instrs_executed", fun () -> Int64.to_int stats.instrs_executed);
         ("core.block_cache.hits", fun () -> stats.block_hits);
         ("core.block_cache.compiled", fun () -> stats.blocks_compiled);
         ("core.block_cache.invalidations", fun () -> stats.block_invalidations);
         ("core.block_cache.chain_taken", fun () -> stats.chain_taken);
         ("core.block_cache.chain_miss", fun () -> stats.chain_miss);
         ("core.block_cache.site_cache_hits", fun () -> stats.site_cache_hits);
         ("core.block_cache.stable_blocks", fun () -> stats.stable_blocks);
         ("core.absint_ns", fun () -> stats.absint_ns) ]
      @ (if p.bs.bs_block then []
         else [ ("core.absint_fastpath_classes", fun () -> stats.fastpath_classes) ])
      @ [ ("core.fused_closures_compiled", fun () -> stats.sites_compiled);
          ("core.fused_closure_reuse", fun () ->
              max 0 (Int64.to_int stats.instrs_executed - stats.sites_compiled)) ]);
    Option.iter (fun j -> Specul.register_obs j o) journal;
    (* one observed entrypoint crossing: the timed unit of Table III *)
    let crossed k dt =
      R.incr crossings;
      R.incr ep_calls.(k);
      Obs.Hist.record ep_hist.(k) dt
    in
    (* Block buildsets count each retired site as one crossing of their
       one entrypoint and time whole blocks; the others count and time
       each entrypoint segment. *)
    let observed_segs segs st fr =
      let k = ref 0 in
      while !k < Array.length segs && not st.State.halted do
        let t0 = Obs.Clock.now_ns () in
        segs.(!k) st fr;
        crossed !k (elapsed_since t0);
        incr k
      done
    in
    let observed_block exec ~limit (di0 : Di.t) =
      let t0 = Obs.Clock.now_ns () in
      let n = exec ~limit di0 in
      let dt = elapsed_since t0 in
      R.add crossings n;
      R.add ep_calls.(0) n;
      Obs.Hist.record block_hist dt;
      (match o.Obs.ring with
      | Some ring when n > 0 ->
        Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:dt ~name:"block" ~cat:"block"
          ~args:[ ("pc", Obs.Ring.I di0.pc); ("instrs", Obs.Ring.I (Int64.of_int n)) ]
      | Some _ | None -> ());
      n
    in
    let traced_instr ring exec ~limit (di0 : Di.t) =
      if st.halted then exec ~limit di0
      else begin
        let t0 = Obs.Clock.now_ns () in
        let n = exec ~limit di0 in
        let name =
          if di0.instr_index >= 0 then p.spec.instrs.(di0.instr_index).i_name else "?"
        in
        Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:(elapsed_since t0) ~name ~cat:"instr"
          ~args:[ ("pc", Obs.Ring.I di0.pc) ];
        n
      end
    in
    {
      full = true;
      wrap_site = (if p.bs.bs_block then run_segs else observed_segs);
      wrap_exec =
        (match o.Obs.ring with
        | _ when p.bs.bs_block -> observed_block
        | Some ring -> traced_instr ring
        | None -> fun exec -> exec);
      wrap_step =
        (fun step di k ->
          let t0 = Obs.Clock.now_ns () in
          step di k;
          crossed k (elapsed_since t0));
    }
  | Some _ | None ->
    { full = false; wrap_site = run_segs; wrap_exec = Fun.id; wrap_step = Fun.id }

(* --- Executor ----------------------------------------------------- *)

(* One executor for every call style: [run_block], [run_one] and
   [run_fast] dispatch the unit at the fetch pc and run its sites;
   [step] runs one entrypoint segment of the unit its fetch step
   recorded on the DI record. *)
let executor (p : plan) ~(cache : cache) ~(obs : observers) ~prof ~journal
    ~stale_chain ~(slots : Slots.t) (st : State.t) (stats : Iface.stats) : Iface.t =
  let frame =
    Semir.Frame.create ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  let ftmp = frame.tmp in
  let pc_off, enc_off, next_pc_off = Semir.Frame.(pc_off, enc_off, next_pc_off) in
  let auto_checkpoint (di : Di.t) =
    match journal with
    | None -> ()
    | Some j ->
      di.ckpt <- Specul.checkpoint j st;
      Specul.auto_trim j ~window:spec_window
  in
  (* Engine-owned DI ring returned by [run_block]. *)
  let dis = ref (Array.init 4 (fun _ -> Di.create ~info_slots:slots.di_size)) in
  let ensure_dis n =
    if Array.length !dis < n then
      dis :=
        Array.init (max n (2 * Array.length !dis)) (fun i ->
            if i < Array.length !dis then !dis.(i)
            else Di.create ~info_slots:slots.di_size)
  in
  (* Sites write their visible cells here when no DI record is filled. *)
  let scratch_di = Bytes.make (8 * max 1 slots.di_size) '\000' in
  (* The frame's next pc as a boxed value, reusing one unit [b] holds —
     site [k]'s fall-through pc or a successor-cache key — so the usual
     exits store it into a DI record or [st.pc] without allocating. *)
  let boxed_next_pc (b : Tblock.t) k =
    let npc = Raw.get64 ftmp next_pc_off in
    let fall = Array.unsafe_get b.b_pcs k in
    if npc = fall then fall
    else if npc = b.b_s1_pc then b.b_s1_pc
    else if npc = b.b_s2_pc then b.b_s2_pc
    else npc
  in
  (* The site loop: runs up to [limit] sites of unit [b], commits the
     retired count and returns it (a halting site retires nothing). With
     [fill] each site gets a DI record — [di0], then the engine ring —
     and its speculation checkpoint. [b_valid] is re-checked after every
     site, so a store into this block's own code stops it after that
     site; stable blocks (no site can store) and the seeded
     [Stale_chain] defect skip the recheck. *)
  let run_sites ~fill ~limit (di0 : Di.t) (b : Tblock.t) =
    let codes = b.b_codes and encs = b.b_encs and idxs = b.b_idxs and pcs = b.b_pcs in
    let len = min limit (Array.length codes) in
    if fill then ensure_dis len else frame.di <- scratch_di;
    let dis = !dis in
    let k = ref 0 in
    let go = ref true in
    while !go do
      let pc = Array.unsafe_get pcs !k and enc = Array.unsafe_get encs !k in
      Raw.set64 ftmp pc_off pc;
      Raw.set64 ftmp enc_off enc;
      Raw.set64 ftmp next_pc_off (Array.unsafe_get pcs (!k + 1));
      if fill then begin
        let di = if !k = 0 then di0 else Array.unsafe_get dis !k in
        di.pc <- pc;
        di.encoding <- enc;
        di.instr_index <- Array.unsafe_get idxs !k;
        di.fault <- None;
        auto_checkpoint di;
        frame.di <- di.info;
        (Array.unsafe_get codes !k) st frame;
        di.next_pc <- boxed_next_pc b (!k + 1);
        di.fault <- st.fault
      end
      else (Array.unsafe_get codes !k) st frame;
      if st.halted then go := false
      else begin
        incr k;
        if !k >= len || not (b.b_valid || b.b_stable || stale_chain) then
          go := false
      end
    done;
    if !k > 0 then begin
      (* the last executed site's next_pc is the continuation; on a halt
         the fetch pc stays put (rollback restores it anyway) *)
      if not st.halted then st.pc <- boxed_next_pc b !k;
      st.instr_count <- Int64.add st.instr_count (Int64.of_int !k);
      stats.instrs_executed <- Int64.add stats.instrs_executed (Int64.of_int !k)
    end;
    !k
  in
  (* Hot-region profiling, compiled in outside the observers: units
     attribute their retired count at their entry pc, stepped flows at
     [retire], where the timing simulator commits. *)
  let note =
    match prof with
    | None -> fun ~pc:_ _ -> ()
    | Some pr -> fun ~pc n -> if n > 0 then Obs.Prof.note pr ~pc ~instrs:n
  in
  (* [exec ~limit di0] runs the unit at the fetch pc with DI records. *)
  let exec =
    let exec =
      obs.wrap_exec (fun ~limit di0 ->
          if st.halted then 0
          else run_sites ~fill:true ~limit di0 (cache.dispatch st.pc))
    in
    match prof with
    | None -> exec
    | Some _ ->
      fun ~limit di0 ->
        let n = exec ~limit di0 in
        note ~pc:di0.pc n;
        n
  in
  let run_block () =
    let n = exec ~limit:max_int !dis.(0) in
    (!dis, n)
  in
  let run_one di = ignore (exec ~limit:1 di) in

  (* --- Step: one entrypoint of the unit fetched for [di] -------------- *)
  let interface_error (di : Di.t) what =
    Sim_error.raisef ~component:"interface"
      ~context:
        [ ("isa", p.spec.name); ("buildset", p.bs.bs_name);
          ("pc", Printf.sprintf "0x%Lx" di.pc) ]
      "entrypoint called before %s" what
  in
  (* What fetch reports: the full fetch window, the next pc one window
     on. Decode then names the class, truncates the encoding to its
     parcel and corrects [next_pc] — all from the unit the fetch found,
     so decode sees the encoding read at fetch time even if memory has
     changed since. *)
  let fetch (di : Di.t) =
    let b = cache.dispatch di.pc in
    di.fetched <- b;
    di.encoding <- b.b_window;
    di.next_pc <- b.b_fetch_next
  in
  let fetched (di : Di.t) =
    let b = di.fetched in
    if b.b_pc0 <> di.pc then interface_error di "fetch";
    b
  in
  let decode (di : Di.t) =
    let b = fetched di in
    let idx = b.b_idxs.(0) in
    if idx < 0 then State.raise_fault st (Fault.Illegal_instruction di.encoding)
    else begin
      di.instr_index <- idx;
      di.encoding <- b.b_encs.(0);
      di.next_pc <- b.b_pcs.(1)
    end
  in
  let run_segment (di : Di.t) k =
    let b = fetched di in
    Raw.set64 ftmp pc_off di.pc;
    Raw.set64 ftmp enc_off di.encoding;
    Raw.set64 ftmp next_pc_off di.next_pc;
    frame.di <- di.info;
    b.b_segs.(k) st frame;
    if Raw.get64 ftmp next_pc_off <> di.next_pc then
      di.next_pc <- boxed_next_pc b 1
  in
  let step =
    obs.wrap_step (fun (di : Di.t) k ->
        if not st.halted then begin
          if p.ep_fetch.(k) then fetch di;
          if p.ep_decode.(k) then decode di
          else if p.ep_ir.(k) && di.instr_index < 0 then
            interface_error di "decode";
          if p.ep_ir.(k) && not st.halted then run_segment di k
        end;
        di.fault <- st.fault)
  in
  let retire (di : Di.t) =
    st.pc <- di.next_pc;
    st.instr_count <- Int64.add st.instr_count 1L;
    stats.instrs_executed <- Int64.add stats.instrs_executed 1L
  in
  let retire =
    match prof with None -> retire | Some _ -> fun di -> retire di; note ~pc:di.Di.pc 1
  in

  (* [run_fast] loops over units: journaled interfaces (checkpoints ride
     on DI records) and fully observed ones fill the engine ring, the
     rest run bare sites. A call returns after at most [n] instructions
     plus block slack — the preemption point watchdogs rely on. *)
  let no_di = Di.create ~info_slots:0 in
  let run_unit =
    if Option.is_some journal || obs.full then fun () ->
      ignore (exec ~limit:max_int !dis.(0))
    else
      match prof with
      | None ->
        fun () ->
          ignore (run_sites ~fill:false ~limit:max_int no_di (cache.dispatch st.pc))
      | Some _ ->
        fun () ->
          let b = cache.dispatch st.pc in
          note ~pc:b.b_pc0 (run_sites ~fill:false ~limit:max_int no_di b)
  in
  let run_fast n =
    let start = st.instr_count in
    while Int64.to_int (Int64.sub st.instr_count start) < n && not st.halted do
      run_unit ()
    done;
    Int64.to_int (Int64.sub st.instr_count start)
  in
  let with_journal f =
    match journal with
    | Some j -> f j
    | None ->
      Sim_error.raisef ~component:"interface"
        ~context:[ ("isa", p.spec.name); ("buildset", p.bs.bs_name) ]
        "interface was synthesized without speculation"
  in
  { Iface.spec = p.spec; bs = p.bs; st; slots; journal;
    entry_names = Array.map fst p.bs.bs_entrypoints;
    run_one; run_block; step; retire; run_fast;
    redirect = (fun pc -> st.pc <- pc);
    checkpoint = (fun () -> with_journal (fun j -> Specul.checkpoint j st));
    rollback = (fun tok -> with_journal (fun j -> Specul.rollback j st tok));
    commit_ckpt = (fun tok -> with_journal (fun j -> Specul.commit j tok));
    flush_code_cache = cache.flush; prof; stats }

(* --- Synthesis ---------------------------------------------------- *)

let make ?(backend = Compiled) ?(allow_hidden_crossing = false) ?(absint = true)
    ?mutate ?obs ?st (spec : Lis.Spec.t) (bs_name : string) : Iface.t =
  let bs = Lis.Spec.find_buildset spec bs_name in
  let st = match st with Some s -> s | None -> Lis.Spec.make_machine spec in
  check_hidden_crossing ~allow_hidden_crossing spec bs;
  let stats =
    { Iface.blocks_compiled = 0; block_hits = 0; block_invalidations = 0;
      sites_compiled = 0; site_cache_hits = 0; chain_taken = 0; chain_miss = 0;
      instrs_executed = 0L; absint_ns = 0; fastpath_classes = 0;
      stable_blocks = 0 }
  in
  let p = plan ~absint ~stats spec bs in
  (* the seeded defects break the block engine only *)
  let mutate = if bs.bs_block then mutate else None in
  let journal = if bs.bs_speculation then Some (Specul.create ()) else None in
  let hooks = Option.map Specul.hooks journal in
  let slots = Slots.make spec bs in
  let compile ir =
    match backend with
    | Compiled ->
      Semir.Compile.program ?hooks ~layout:st.regs ~mem_fast_path:true
        ~loc:slots.loc ir
    | Interpreted -> fun st fr -> Semir.Eval.exec ?hooks ~loc:slots.loc st fr ir
  in
  let obs_ = observers p ~obs ~journal st stats in
  let compile_site = site_compiler p ~compile stats in
  (* an encoding no class matches faults in the decoding entrypoint *)
  let illegal =
    let fault = compile [ Semir.Ir.Fault_illegal ] and decoded = ref false in
    Array.map
      (fun d ->
        decoded := !decoded || d;
        if !decoded then fault else Semir.Compile.nop)
      p.ep_decode
  in
  let cache =
    unit_cache p ~mutate ~compile_site ~wrap_site:obs_.wrap_site ~illegal st stats
  in
  let prof = match obs with Some o -> o.Obs.prof | None -> None in
  executor p ~cache ~obs:obs_ ~prof ~journal
    ~stale_chain:(mutate = Some Stale_chain) ~slots st stats
