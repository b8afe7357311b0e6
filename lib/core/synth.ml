(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (DI slots
    vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and — for
    block-semantic buildsets — each basic block is specialized against its
    concrete instruction encodings and cached (the binary-translation
    analog). *)

open Machine

exception Synth_error of string

let synth_error fmt = Format.kasprintf (fun m -> raise (Synth_error m)) fmt

(** Execution backend: [Compiled] closures (default) or the reference
    [Interpreted] AST walker (paper footnote 5's baseline). *)
type backend = Compiled | Interpreted

(** Deliberate engine defects used to mutation-test the conformance
    fuzzer ([lisim fuzz --mutate]). Each reintroduces a bug class the
    translation-cache engine defends against: [Stale_chain] trusts
    successor-cache links and cached blocks without re-checking
    [b_valid]; [Skip_invalidate] never registers the code-write hook, so
    stores to translated code leave stale blocks live; [Stride4]
    hard-codes a 4-byte stride in block pc arrays (wrong for any other
    instruction size). [None] (the default) leaves the engine exactly as
    shipped. *)
type mutation = Stale_chain | Skip_invalidate | Stride4

let mutation_to_string = function
  | Stale_chain -> "stale-chain"
  | Skip_invalidate -> "skip-invalidate"
  | Stride4 -> "stride4"

let mutation_of_string = function
  | "stale-chain" -> Some Stale_chain
  | "skip-invalidate" -> Some Skip_invalidate
  | "stride4" -> Some Stride4
  | _ -> None

(* An entrypoint is a sequence of items; fetch and decode are engine
   builtins, everything else is per-instruction compiled code. *)
type item =
  | I_fetch
  | I_decode of Semir.Compile.code array  (* per instruction *)
  | I_chunk of Semir.Compile.code array

(* Segment: compilation-time view of an item. *)
type seg = Seg_fetch | Seg_decode | Seg_ir of Lis.Spec.action_sym list

let spec_window = 64

(* ------------------------------------------------------------------ *)
(* Segment construction                                                *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Translation cache                                                   *)
(* ------------------------------------------------------------------ *)

(* A compiled, cached basic block. [b_pcs] has len+1 entries; the last
   one is the fall-through pc, so the execution loop does no per-
   instruction address arithmetic. [b_s1]/[b_s2] form a bi-morphic
   inline cache on exit pc: when the previous block's exit lands on a
   remembered successor, dispatch goes block-to-block without touching
   the hash table. [b_valid] is cleared when a write lands on a page
   holding this block's code (or on [flush_code_cache]); the execution
   loop re-checks it after every site so a block that rewrites itself
   stops at the site that did the write. *)
type block = {
  b_pc0 : int64;
  b_codes : Semir.Compile.code array;
  b_encs : int64 array;
  b_idxs : int array;
  b_pcs : int64 array;
  b_stable : bool;
      (** every site is statically store- and syscall-free, so the block
          cannot invalidate itself (or any other block) mid-run: the
          per-site [b_valid] recheck is elided. Invalidation between
          runs is still honored — dispatch only trusts [b_valid]. *)
  mutable b_valid : bool;
  mutable b_s1_pc : int64;
  mutable b_s1 : block;
  mutable b_s2_pc : int64;
  mutable b_s2 : block;
}

(* Sentinel predecessor/successor: never valid, so it can neither be
   dispatched through nor receive successor installs. *)
let rec dummy_block =
  {
    b_pc0 = -1L;
    b_codes = [||];
    b_encs = [||];
    b_idxs = [||];
    b_pcs = [||];
    b_stable = false;
    b_valid = false;
    b_s1_pc = -1L;
    b_s1 = dummy_block;
    b_s2_pc = -1L;
    b_s2 = dummy_block;
  }

(* A block handed to dispatch must start at the pc that was requested —
   the one structural invariant the successor caches could silently
   break. The check is a single 64-bit compare per block dispatch; a
   violation is reported as an "engine" {!Sim_error} (exit code 5), the
   structured signal the supervised runtime's degradation ladder
   demotes on instead of executing wrong code. *)
let dispatch_invariant_violation (st : State.t) ~want ~got =
  Sim_error.raisef ~component:"engine"
    ~context:
      [
        ("pc", Printf.sprintf "0x%Lx" want);
        ("block_pc0", Printf.sprintf "0x%Lx" got);
        ("instructions", Int64.to_string st.State.instr_count);
      ]
    "block dispatch invariant violated: cached block does not start at the \
     dispatch pc"

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let make ?(backend = Compiled) ?(allow_hidden_crossing = false) ?(absint = true)
    ?mutate ?obs ?st (spec : Lis.Spec.t)
    (bs_name : string) : Iface.t =
  let bs = Lis.Spec.find_buildset spec bs_name in
  let st = match st with Some s -> s | None -> Lis.Spec.make_machine spec in
  let slots = Slots.make spec bs in
  (match Liveness.check spec bs with
  | [] -> ()
  | violations when not allow_hidden_crossing ->
    let summary = Liveness.summarize violations in
    synth_error
      "buildset %s/%s hides %d cell(s) that cross entrypoint boundaries:@\n%s"
      spec.name bs.bs_name (List.length summary)
      (String.concat "\n"
         (List.map
            (fun (c, w, r) ->
              Printf.sprintf "  '%s' written in '%s', read in '%s'" c w r)
            summary))
  | _ -> ());
  let journal = if bs.bs_speculation then Some (Specul.create ()) else None in
  let hooks = Option.map Specul.hooks journal in
  let layout = st.State.regs in
  let loc = slots.Slots.loc in
  let frame =
    Semir.Frame.create ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  (* The frame's control words, read and written unboxed. *)
  let ftmp = frame.tmp in
  let pc_off = Semir.Frame.pc_off
  and enc_off = Semir.Frame.enc_off
  and next_pc_off = Semir.Frame.next_pc_off in
  let n_instrs = Array.length spec.instrs in
  let decoder = Decoder.make spec in
  let instr_bytes64 = Int64.of_int spec.instr_bytes in
  (* Per-instruction encoded width: fetch always reads the full
     [instr_bytes] window; decode then corrects [next_pc] and truncates
     the encoding to the decoded instruction's own parcel. Both are
     no-ops for uniform ISAs. *)
  let size64 =
    Array.map (fun (i : Lis.Spec.instr) -> Int64.of_int i.i_size) spec.instrs
  in
  let size_mask =
    Array.map
      (fun (i : Lis.Spec.instr) ->
        if i.i_size >= 8 then -1L
        else Int64.sub (Int64.shift_left 1L (8 * i.i_size)) 1L)
      spec.instrs
  in
  let stale_chain = mutate = Some Stale_chain in
  let skip_invalidate = mutate = Some Skip_invalidate in
  let stride4 = mutate = Some Stride4 in
  let stats =
    {
      Iface.blocks_compiled = 0;
      block_hits = 0;
      block_invalidations = 0;
      sites_compiled = 0;
      site_cache_hits = 0;
      chain_taken = 0;
      chain_miss = 0;
      instrs_executed = 0L;
      absint_ns = 0;
      fastpath_classes = 0;
      stable_blocks = 0;
    }
  in

  (* Static effect analysis: which instruction classes are provably
     store-free (no [Store] on any path, no syscall whose handler could
     write memory)? Such classes can never invalidate translated code,
     so they get the memory fast path outside block mode and their
     blocks skip the per-site SMC recheck. The analysis is sound, never
     required: [absint = false] degrades every verdict to "unsafe". *)
  let class_store_free =
    if not absint then Array.make n_instrs false
    else begin
      let t0 = Obs.Clock.now_ns () in
      let sums = Analysis.Absint.summarize spec in
      let safe = Array.map Analysis.Absint.store_free sums in
      stats.Iface.absint_ns <- Obs.Clock.elapsed_ns t0;
      safe
    end
  in
  if not bs.bs_block then
    stats.Iface.fastpath_classes <-
      Array.fold_left (fun n s -> if s then n + 1 else n) 0 class_store_free;

  let compile_program ?(mem_fast_path = false) ir =
    match backend with
    | Compiled -> Semir.Compile.program ?hooks ~layout ~mem_fast_path ~loc ir
    | Interpreted -> fun st fr -> Semir.Eval.exec ?hooks ~loc st fr ir
  in

  (* --- entrypoint plans ---------------------------------------------- *)
  let ep_segs =
    Array.map (fun (_, syms) -> segments_of_entrypoint syms) bs.bs_entrypoints
  in
  let flat_segs = Array.to_list ep_segs |> List.concat in
  (* Sanity: per-instruction dispatch needs decode before any IR. *)
  (let seen_decode = ref false in
   List.iter
     (fun s ->
       match s with
       | Seg_decode -> seen_decode := true
       | Seg_ir _ when not !seen_decode ->
         synth_error
           "buildset %s/%s runs instruction actions before 'decode'" spec.name
           bs.bs_name
       | Seg_ir _ | Seg_fetch -> ())
     flat_segs);

  (* Per-instruction optimized IR per IR-bearing segment, with cross-
     segment liveness driving DCE: a cell assignment survives only if the
     cell is interface-visible or read by a later segment. *)
  let n_segs = List.length flat_segs in
  let flat_segs_arr = Array.of_list flat_segs in
  let per_instr_seg_ir =
    Array.init n_instrs (fun ii ->
        let instr = spec.instrs.(ii) in
        let irs = Array.map (seg_ir instr) flat_segs_arr in
        (* downstream reads per segment *)
        let downstream = Array.make (n_segs + 1) Iset.empty in
        for k = n_segs - 1 downto 0 do
          downstream.(k) <- Iset.union downstream.(k + 1) (reads_of irs.(k))
        done;
        Array.mapi
          (fun k ir ->
            let keep c =
              bs.bs_visible.(c) || Iset.mem c downstream.(k + 1)
            in
            Semir.Opt.optimize ~keep ir)
          irs)
  in
  let ep_items : item array array =
    let seg_index = ref 0 in
    Array.map
      (fun segs ->
        Array.of_list
          (List.map
             (fun seg ->
               let k = !seg_index in
               incr seg_index;
               match seg with
               | Seg_fetch -> I_fetch
               | Seg_decode ->
                 I_decode
                   (Array.init n_instrs (fun ii ->
                        compile_program
                          ~mem_fast_path:class_store_free.(ii)
                          per_instr_seg_ir.(ii).(k)))
               | Seg_ir _ ->
                 I_chunk
                   (Array.init n_instrs (fun ii ->
                        compile_program
                          ~mem_fast_path:class_store_free.(ii)
                          per_instr_seg_ir.(ii).(k))))
             segs))
      ep_segs
  in

  (* --- execution ------------------------------------------------------ *)
  let exec_item (di : Di.t) = function
    | I_fetch ->
      let pc = Raw.get64 ftmp pc_off in
      Memory.read_into st.mem ~addr:(Int64.to_int pc) ~width:spec.instr_bytes
        ftmp enc_off;
      Raw.set64 ftmp next_pc_off (Int64.add pc instr_bytes64)
    | I_decode codes ->
      let idx = Decoder.decode_word decoder ftmp enc_off in
      if idx < 0 then
        State.raise_fault st
          (Fault.Illegal_instruction (Raw.get64 ftmp enc_off))
      else begin
        di.instr_index <- idx;
        let enc = Raw.get64 ftmp enc_off and pc = Raw.get64 ftmp pc_off in
        Raw.set64 ftmp enc_off
          (Int64.logand enc (Array.unsafe_get size_mask idx));
        Raw.set64 ftmp next_pc_off
          (Int64.add pc (Array.unsafe_get size64 idx));
        (Array.unsafe_get codes idx) st frame
      end
    | I_chunk codes ->
      let idx = di.instr_index in
      if idx < 0 then
        Sim_error.raisef ~component:"interface"
          ~context:
            [ ("isa", spec.name); ("buildset", bs.bs_name);
              ("pc", Printf.sprintf "0x%Lx" di.pc) ]
          "entrypoint called before decode"
      else (Array.unsafe_get codes idx) st frame
  in
  let exec_items di (items : item array) =
    let n = Array.length items in
    let k = ref 0 in
    while !k < n && not st.halted do
      exec_item di (Array.unsafe_get items !k);
      incr k
    done
  in
  let load_frame (di : Di.t) =
    Raw.set64 ftmp pc_off di.pc;
    Raw.set64 ftmp enc_off di.encoding;
    Raw.set64 ftmp next_pc_off di.next_pc;
    frame.di <- di.info
  in
  (* Header words are boxed only when they changed: most Step calls
     leave both as they were. *)
  let save_frame (di : Di.t) =
    let enc = Raw.get64 ftmp enc_off and next_pc = Raw.get64 ftmp next_pc_off in
    if enc <> di.encoding then di.encoding <- enc;
    if next_pc <> di.next_pc then di.next_pc <- next_pc;
    di.fault <- st.fault
  in

  let auto_checkpoint (di : Di.t) =
    match journal with
    | None -> ()
    | Some j ->
      di.ckpt <- Specul.checkpoint j st;
      Specul.auto_trim j ~window:spec_window
  in

  (* --- observability --------------------------------------------------- *)
  (* Instrumentation is selected here, at synthesis time — the
     compiled-in hook pattern. Without a full [obs] context the
     entrypoint runner is the plain item loop, no ring hook is installed
     and every closure below is the uninstrumented one: no flag tests,
     no extra indirection, the zero-overhead guarantee. With a full
     context every entrypoint call and engine segment is counted and
     timed into log2 histograms, and one event per instruction (or per
     block) goes to the trace ring when one is attached. Profile-only
     contexts skip all of this: the profiler attribution wrappers further
     down are their whole instrumentation. *)
  let full_obs = match obs with Some o when o.Obs.full -> Some o | _ -> None in
  let ring = match full_obs with Some o -> o.Obs.ring | None -> None in
  let n_eps = Array.length ep_items in
  (* [exec_ep di k] runs entrypoint [k]: the one crossing [run_one] and
     [step] are built from. [observe_block] wraps the block engine's
     [run_block]. *)
  let exec_ep, observe_block =
    match full_obs with
    | None -> ((fun di k -> exec_items di ep_items.(k)), fun run_block -> run_block)
    | Some (o : Obs.t) ->
      let module R = Obs.Registry in
      let reg = o.Obs.reg in
      let crossings = R.counter reg "synth.entrypoint_calls" in
      let ep_names = Array.map fst bs.bs_entrypoints in
      let ep_calls =
        Array.map (fun nm -> R.counter reg ("synth.ep." ^ nm ^ ".calls")) ep_names
      in
      let ep_hist =
        Array.map (fun nm -> R.histogram reg ("synth.ep." ^ nm ^ ".ns")) ep_names
      in
      let seg_calls =
        Array.map
          (fun nm -> R.counter reg ("synth.seg." ^ nm ^ ".calls"))
          [| "fetch"; "decode"; "ir" |]
      in
      let seg_hist =
        Array.map
          (fun nm -> R.histogram reg ("synth.seg." ^ nm ^ ".ns"))
          [| "fetch"; "decode"; "ir" |]
      in
      let block_hist = R.histogram reg "synth.block.ns" in
      (* Fused-closure accounting: in per-instruction modes every
         IR-bearing segment holds one eagerly-compiled closure per
         instruction; in block mode closures are specialized per site
         and cached with the block. *)
      let n_code_segs =
        Array.fold_left
          (fun acc items ->
            Array.fold_left
              (fun acc item ->
                match item with I_fetch -> acc | I_decode _ | I_chunk _ -> acc + 1)
              acc items)
          0 ep_items
      in
      R.probe reg "core.instrs_executed" (fun () ->
          R.Int (Int64.to_int stats.Iface.instrs_executed));
      (* block-cache gauges exist only where a block cache does, so a
         block pass sharing a registry with a per-instruction primary
         interface contributes them without fighting over names *)
      if bs.bs_block then begin
        R.probe reg "core.block_cache.hits" (fun () ->
            R.Int stats.Iface.block_hits);
        R.probe reg "core.block_cache.compiled" (fun () ->
            R.Int stats.Iface.blocks_compiled);
        R.probe reg "core.block_cache.invalidations" (fun () ->
            R.Int stats.Iface.block_invalidations);
        R.probe reg "core.block_cache.chain_taken" (fun () ->
            R.Int stats.Iface.chain_taken);
        R.probe reg "core.block_cache.chain_miss" (fun () ->
            R.Int stats.Iface.chain_miss);
        R.probe reg "core.block_cache.site_cache_hits" (fun () ->
            R.Int stats.Iface.site_cache_hits);
        R.probe reg "core.block_cache.stable_blocks" (fun () ->
            R.Int stats.Iface.stable_blocks)
      end;
      R.probe reg "core.absint_ns" (fun () -> R.Int stats.Iface.absint_ns);
      if not bs.bs_block then
        R.probe reg "core.absint_fastpath_classes" (fun () ->
            R.Int stats.Iface.fastpath_classes);
      R.probe reg "core.fused_closures_compiled" (fun () ->
          R.Int
            (if bs.bs_block then stats.Iface.sites_compiled
             else n_code_segs * n_instrs));
      R.probe reg "core.fused_closure_reuse" (fun () ->
          R.Int
            (if bs.bs_block then
               max 0
                 (Int64.to_int stats.Iface.instrs_executed
                 - stats.Iface.sites_compiled)
             else
               max 0
                 (seg_calls.(1).R.n + seg_calls.(2).R.n - (n_code_segs * n_instrs))));
      (match journal with Some j -> Specul.register_obs j o | None -> ());
      let exec_item_obs di item =
        let k = match item with I_fetch -> 0 | I_decode _ -> 1 | I_chunk _ -> 2 in
        let t0 = Obs.Clock.now_ns () in
        exec_item di item;
        let dt = Obs.Clock.elapsed_ns t0 in
        R.incr seg_calls.(k);
        Obs.Hist.record seg_hist.(k) dt
      in
      (* one observed entrypoint crossing: the timed unit of Table III *)
      let exec_ep_obs di k =
        let t0 = Obs.Clock.now_ns () in
        let items = ep_items.(k) in
        let n = Array.length items in
        let i = ref 0 in
        while !i < n && not st.halted do
          exec_item_obs di items.(!i);
          incr i
        done;
        let dt = Obs.Clock.elapsed_ns t0 in
        R.incr crossings;
        R.incr ep_calls.(k);
        Obs.Hist.record ep_hist.(k) dt
      in
      let observe_block run_block () =
        let t0 = Obs.Clock.now_ns () in
        let (dis, n) as r = run_block () in
        let dt = Obs.Clock.elapsed_ns t0 in
        (* each executed site is one crossing of the block entrypoint *)
        R.add crossings n;
        R.add ep_calls.(0) n;
        Obs.Hist.record block_hist dt;
        (match ring with
        | Some ring when n > 0 ->
          Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:dt ~name:"block" ~cat:"block"
            ~args:
              [ ("pc", Obs.Ring.I dis.(0).Di.pc);
                ("instrs", Obs.Ring.I (Int64.of_int n)) ]
        | Some _ | None -> ());
        r
      in
      (exec_ep_obs, observe_block)
  in

  let step di k =
    load_frame di;
    exec_ep di k;
    save_frame di
  in
  let run_one (di : Di.t) =
    if not st.halted then begin
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      auto_checkpoint di;
      load_frame di;
      let k = ref 0 in
      while !k < n_eps && not st.halted do
        exec_ep di !k;
        incr k
      done;
      save_frame di;
      if not st.halted then begin
        st.pc <- di.next_pc;
        st.instr_count <- Int64.add st.instr_count 1L;
        stats.instrs_executed <- Int64.add stats.instrs_executed 1L
      end
    end
  in
  let run_one =
    match ring with
    | None -> run_one
    | Some ring ->
      fun (di : Di.t) ->
        if not st.halted then begin
          let t0 = Obs.Clock.now_ns () in
          run_one di;
          let name =
            if di.instr_index >= 0 then spec.instrs.(di.instr_index).i_name
            else "?"
          in
          Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:(Obs.Clock.elapsed_ns t0) ~name
            ~cat:"instr"
            ~args:[ ("pc", Obs.Ring.I di.pc) ]
        end
  in

  (* --- block mode ------------------------------------------------------ *)
  if bs.bs_block && n_eps <> 1 then
    synth_error "buildset %s/%s: 'semantic block' requires a single entrypoint"
      spec.name bs.bs_name;
  (* Full per-instruction chain IR in sequence order (fetch excluded),
     used for per-site specialization. *)
  let chain_ir =
    Array.map
      (fun (i : Lis.Spec.instr) ->
        List.concat_map
          (fun sym ->
            match sym with
            | Lis.Spec.A_decode -> i.i_decode
            | other -> sym_ir i other)
          (Array.to_list spec.sequence))
      spec.instrs
  in
  let rec stmt_is_ctrl (s : Semir.Ir.stmt) =
    match s with
    | Set_next_pc _ | Syscall | Halt | Fault_illegal | Fault_unaligned _
    | Fault_arith _ ->
      true
    | If (_, t, f) -> List.exists stmt_is_ctrl t || List.exists stmt_is_ctrl f
    | Set_cell _ | Store _ | Reg_write _ -> false
  in
  let is_ctrl = Array.map (List.exists stmt_is_ctrl) chain_ir in
  (* Cells read by some instruction before it writes them (cross-
     instruction carriers); they must survive DCE in block mode. *)
  let carried =
    Array.fold_left
      (fun acc ir ->
        let rec upward live (reads : Iset.t) = function
          | [] -> reads
          | s :: rest ->
            let srs = Iset.of_list (Semir.Ir.stmt_reads [] s) in
            let exposed = Iset.diff srs live in
            let live =
              Iset.union live (Iset.of_list (Semir.Ir.stmt_writes [] s))
            in
            upward live (Iset.union reads exposed) rest
        in
        Iset.union acc (upward Iset.empty Iset.empty ir))
      Iset.empty chain_ir
  in
  let block_keep c = bs.bs_visible.(c) || Iset.mem c carried in

  let max_block = 64 in
  let module Bcache = Hashtbl in
  let blocks : (int64, block) Bcache.t = Bcache.create 1024 in
  (* Shared translation cache: specialization depends only on the
     encoding, never on the pc, so loops entered at several pcs,
     duplicated code and rebuilt blocks reuse compiled sites instead of
     recompiling, and every site gets the per-site memory fast path. The
     cache survives [flush_code_cache]: entries keyed by
     [(instr, encoding)] stay correct whatever memory now holds. *)
  let site_tbl : (int * int64, Semir.Compile.code) Hashtbl.t =
    Hashtbl.create 256
  in
  let compile_site enc idx =
    let key = (idx, enc) in
    match Hashtbl.find_opt site_tbl key with
    | Some c ->
      stats.Iface.site_cache_hits <- stats.Iface.site_cache_hits + 1;
      c
    | None ->
      stats.Iface.sites_compiled <- stats.Iface.sites_compiled + 1;
      let ir = Semir.Opt.optimize ~enc ~keep:block_keep chain_ir.(idx) in
      let c = compile_program ~mem_fast_path:true ir in
      Hashtbl.add site_tbl key c;
      c
  in
  let illegal_site : Semir.Compile.code =
   fun st fr ->
    State.raise_fault st (Fault.Illegal_instruction (Raw.get64 fr.tmp enc_off))
  in
  (* Pages holding translated code, mapped to the blocks compiled from
     them; a write to such a page invalidates those blocks (and thereby
     every chain link into them, since dispatch re-checks [b_valid]). *)
  let page_blocks : (int, block list ref) Hashtbl.t = Hashtbl.create 16 in
  let last_block = ref dummy_block in
  if bs.bs_block && not skip_invalidate then
    Memory.add_code_write_hook st.mem (fun pidx ->
        match Hashtbl.find_opt page_blocks pidx with
        | None -> ()
        | Some l ->
          List.iter
            (fun b ->
              if b.b_valid then begin
                b.b_valid <- false;
                Bcache.remove blocks b.b_pc0;
                stats.Iface.block_invalidations <-
                  stats.Iface.block_invalidations + 1
              end)
            !l;
          l := [];
          last_block := dummy_block);
  let build_block pc0 =
    let codes = ref [] and encs = ref [] and idxs = ref [] in
    let rev_pcs = ref [] in
    let n = ref 0 in
    let pc = ref pc0 in
    let stop = ref false in
    let stable = ref true in
    while not !stop do
      let enc = Memory.read st.mem ~addr:!pc ~width:spec.instr_bytes in
      let idx = Decoder.decode decoder enc in
      if idx < 0 then begin
        codes := illegal_site :: !codes;
        encs := enc :: !encs;
        idxs := idx :: !idxs;
        rev_pcs := !pc :: !rev_pcs;
        incr n;
        pc := Int64.add !pc instr_bytes64;
        stable := false;
        stop := true
      end
      else begin
        (* truncate to the decoded parcel: the tail of the fetch window
           belongs to the next instruction, and must not key the site
           cache or leak into operand fields *)
        let enc = Int64.logand enc (Array.unsafe_get size_mask idx) in
        if not class_store_free.(idx) then stable := false;
        codes := compile_site enc idx :: !codes;
        encs := enc :: !encs;
        idxs := idx :: !idxs;
        rev_pcs := !pc :: !rev_pcs;
        incr n;
        pc := Int64.add !pc (Array.unsafe_get size64 idx);
        if is_ctrl.(idx) || !n >= max_block then stop := true
      end
    done;
    stats.Iface.blocks_compiled <- stats.Iface.blocks_compiled + 1;
    if !stable then stats.Iface.stable_blocks <- stats.Iface.stable_blocks + 1;
    (* [pcs] carries the true site addresses plus the fall-through pc;
       the seeded [Stride4] defect replaces them with a uniform 4-byte
       walk, observable on any ISA whose real strides differ. *)
    let pcs =
      if stride4 then
        Array.init (!n + 1) (fun i -> Int64.add pc0 (Int64.of_int (4 * i)))
      else Array.of_list (List.rev (!pc :: !rev_pcs))
    in
    let b =
      {
        b_pc0 = pc0;
        b_codes = Array.of_list (List.rev !codes);
        b_encs = Array.of_list (List.rev !encs);
        b_idxs = Array.of_list (List.rev !idxs);
        b_pcs = pcs;
        b_stable = !stable;
        b_valid = true;
        b_s1_pc = -1L;
        b_s1 = dummy_block;
        b_s2_pc = -1L;
        b_s2 = dummy_block;
      }
    in
    (* Register the code pages this block was translated from. *)
    let lo = Memory.addr_int pc0 lsr Memory.page_bits in
    let hi = Memory.addr_int (Int64.sub pcs.(!n) 1L) lsr Memory.page_bits in
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
    match Bcache.find_opt blocks pc0 with
    | Some b ->
      stats.Iface.block_hits <- stats.Iface.block_hits + 1;
      b
    | None ->
      let b = build_block pc0 in
      Bcache.add blocks pc0 b;
      b
  in
  (* Chained dispatch: try the predecessor's successor cache before the
     hash table, installing / promoting on the way (most recent first). *)
  (* [trust] is the single-trust invariant ([b_valid] is the only thing
     dispatch believes); [Stale_chain] breaks it for every real block. *)
  let trust b = b.b_valid || (stale_chain && not (Int64.equal b.b_pc0 (-1L))) in
  let lookup_from prev (pc0 : int64) =
    if not (trust prev) then find_block pc0
    else if prev.b_s1_pc = pc0 && trust prev.b_s1 then begin
      stats.Iface.chain_taken <- stats.Iface.chain_taken + 1;
      stats.Iface.block_hits <- stats.Iface.block_hits + 1;
      prev.b_s1
    end
    else if prev.b_s2_pc = pc0 && trust prev.b_s2 then begin
      let b = prev.b_s2 in
      prev.b_s2_pc <- prev.b_s1_pc;
      prev.b_s2 <- prev.b_s1;
      prev.b_s1_pc <- pc0;
      prev.b_s1 <- b;
      stats.Iface.chain_taken <- stats.Iface.chain_taken + 1;
      stats.Iface.block_hits <- stats.Iface.block_hits + 1;
      b
    end
    else begin
      stats.Iface.chain_miss <- stats.Iface.chain_miss + 1;
      let b = find_block pc0 in
      prev.b_s2_pc <- prev.b_s1_pc;
      prev.b_s2 <- prev.b_s1;
      prev.b_s1_pc <- pc0;
      prev.b_s1 <- b;
      b
    end
  in
  (* One block-dispatch step: the block at the fetch pc, checked against
     the dispatch invariant, becomes the next predecessor. *)
  let dispatch () =
    let pc0 = st.pc in
    let b = lookup_from !last_block pc0 in
    if b.b_pc0 <> pc0 then
      dispatch_invariant_violation st ~want:pc0 ~got:b.b_pc0;
    last_block := b;
    b
  in
  (* Engine-owned DI ring returned by [run_block]. *)
  let dis = ref (Array.init 4 (fun _ -> Di.create ~info_slots:slots.di_size)) in
  let ensure_dis n =
    if Array.length !dis < n then begin
      let bigger =
        Array.init (max n (2 * Array.length !dis)) (fun i ->
            if i < Array.length !dis then !dis.(i)
            else Di.create ~info_slots:slots.di_size)
      in
      dis := bigger
    end
  in
  (* Sites write their visible cells here when no DI record is filled. *)
  let scratch_di = Bytes.make (8 * max 1 slots.di_size) '\000' in
  (* [boxed_next_pc b k] is the frame's next pc as a boxed value, reusing
     one block [b] already holds — site [k]'s fall-through pc or a
     successor-cache key — so the usual site and block exits store it
     into a DI record or [st.pc] without allocating. *)
  let boxed_next_pc b k =
    let npc = Raw.get64 ftmp next_pc_off in
    let fall = Array.unsafe_get b.b_pcs k in
    if npc = fall then fall
    else if npc = b.b_s1_pc then b.b_s1_pc
    else if npc = b.b_s2_pc then b.b_s2_pc
    else npc
  in
  (* The site loop, shared by [run_block] and [run_fast]: runs block [b]
     from its first site, commits the retired count and returns it (a
     halting site retires nothing). With [fill] every site gets a DI
     record in the engine ring, speculation checkpoint included; without
     it sites write into [scratch_di]. [b_valid] is re-checked after
     every site: a store that hits this block's own code page stops
     execution after the site that performed it, so stale sites never
     run. Stable blocks skip the recheck — none of their sites can store,
     so nothing can invalidate any block while they run — and so does
     the seeded [Stale_chain] defect. *)
  let run_sites ~fill b =
    let codes = b.b_codes
    and encs = b.b_encs
    and idxs = b.b_idxs
    and pcs = b.b_pcs in
    let len = Array.length codes in
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
        let di = Array.unsafe_get dis !k in
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
      if not st.halted then
        st.pc <- boxed_next_pc b !k;
      st.instr_count <- Int64.add st.instr_count (Int64.of_int !k);
      stats.instrs_executed <-
        Int64.add stats.instrs_executed (Int64.of_int !k)
    end;
    !k
  in
  let run_block =
    observe_block (fun () ->
        if st.halted then (!dis, 0)
        else begin
          let n = run_sites ~fill:true (dispatch ()) in
          (!dis, n)
        end)
  in

  let retire (di : Di.t) =
    st.pc <- di.next_pc;
    st.instr_count <- Int64.add st.instr_count 1L;
    stats.instrs_executed <- Int64.add stats.instrs_executed 1L
  in
  let redirect pc = st.pc <- pc in
  let no_spec (_ : unit) =
    Sim_error.raisef ~component:"interface"
      ~context:[ ("isa", spec.name); ("buildset", bs.bs_name) ]
      "interface was synthesized without speculation"
  in
  let checkpoint () =
    match journal with Some j -> Specul.checkpoint j st | None -> no_spec ()
  in
  let rollback tok =
    match journal with Some j -> Specul.rollback j st tok | None -> no_spec ()
  in
  let commit_ckpt tok =
    match journal with Some j -> Specul.commit j tok | None -> no_spec ()
  in
  let flush_code_cache () =
    stats.Iface.block_invalidations <- stats.Iface.block_invalidations + 1;
    (* Invalidate before dropping: chain links and [last_block] may still
       point at these blocks, and dispatch trusts only [b_valid]. The
       shared site cache survives — [(instr, encoding)] keys stay correct
       whatever memory now holds. The memory's code-page set also stays:
       other interfaces on the same machine may still have live blocks. *)
    Bcache.iter (fun _ b -> b.b_valid <- false) blocks;
    Bcache.reset blocks;
    Hashtbl.reset page_blocks;
    last_block := dummy_block
  in

  (* --- hot-region profiling -------------------------------------------- *)
  (* Same compiled-in rule as the counters above, layered outside them so
     it works in both full and profile-only contexts. Attribution uses
     the retired-instruction delta, so halted entries and uncounted
     halting instructions attribute exactly what [instr_count] records.
     Block interfaces attribute whole blocks at their entry pc — the
     translation cache's block extents are the aggregation unit. Stepped
     flows attribute at [retire], where the timing simulator commits. *)
  let prof = match obs with Some o -> o.Obs.prof | None -> None in
  let run_one, run_block, retire =
    match prof with
    | None -> (run_one, run_block, retire)
    | Some p ->
      let note_delta before pc =
        let d = Int64.to_int (Int64.sub st.instr_count before) in
        if d > 0 then Obs.Prof.note p ~pc ~instrs:d
      in
      let run_one_p (di : Di.t) =
        let before = st.instr_count in
        run_one di;
        note_delta before di.pc
      in
      let run_block_p () =
        let before = st.instr_count in
        let (dis, n) as r = run_block () in
        if n > 0 then note_delta before dis.(0).Di.pc;
        r
      in
      let retire_p (di : Di.t) =
        retire di;
        Obs.Prof.note p ~pc:di.pc ~instrs:1
      in
      (run_one_p, run_block_p, retire_p)
  in
  (* Non-block buildsets still offer [run_block] as a one-instruction
     batch so consumers can be written against one call style. *)
  let run_block =
    if bs.bs_block then run_block
    else fun () ->
      ensure_dis 1;
      let d = !dis in
      run_one d.(0);
      (d, if st.halted && st.fault <> None then 0 else 1)
  in

  (* --- fast dispatch --------------------------------------------------- *)
  (* [run_fast] is one loop over one unit of execution. Block interfaces
     whose blocks must materialize DI records — journaled ones (the
     speculation checkpoints ride on them) and fully observed ones — run
     [run_block]; every other block interface runs the site loop straight
     off the successor caches, attributing each block to the profiler
     when one is compiled in. Non-block interfaces run [run_one]. A call
     returns after at most [n] instructions plus block slack — the
     preemption point watchdogs rely on, so chained dispatch cannot spin
     past a slice. *)
  let run_unit =
    if not bs.bs_block then begin
      let di = Di.create ~info_slots:slots.di_size in
      fun () -> run_one di
    end
    else if Option.is_some journal || Option.is_some full_obs then fun () ->
      ignore (run_block ())
    else
      match prof with
      | None -> fun () -> ignore (run_sites ~fill:false (dispatch ()))
      | Some p ->
        fun () ->
          let b = dispatch () in
          let k = run_sites ~fill:false b in
          if k > 0 then Obs.Prof.note p ~pc:b.b_pc0 ~instrs:k
  in
  let run_fast n =
    let start = st.instr_count in
    while Int64.to_int (Int64.sub st.instr_count start) < n && not st.halted do
      run_unit ()
    done;
    Int64.to_int (Int64.sub st.instr_count start)
  in
  {
    Iface.spec;
    bs;
    st;
    slots;
    journal;
    entry_names = Array.map fst bs.bs_entrypoints;
    run_one;
    run_block;
    step;
    retire;
    redirect;
    checkpoint;
    rollback;
    commit_ckpt;
    flush_code_cache;
    run_fast;
    prof;
    stats;
  }
