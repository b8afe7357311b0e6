(** Timing-directed simulator (paper §II-C).

    The timing model is in control: a scalar in-order five-stage pipeline
    (IF ID EX MEM WB) asks the functional simulator to perform each element
    of an instruction's behaviour exactly when the microarchitecture would —
    fetch in IF, decode and operand fetch in ID, address/evaluate in EX,
    memory access in MEM, writeback and exceptions in WB. This requires an
    interface with high semantic detail (the seven-entrypoint Step
    interfaces) and high informational detail (operand register numbers
    feed the scoreboard).

    The pipeline stalls on RAW hazards via a scoreboard (no bypass
    network), takes I/D-cache latencies, resolves branches in EX with a
    not-taken fetch policy, and serializes system calls. IF fetches at a
    4-byte stride; when decode finds an instruction of another size, ID
    redirects the younger fetch to the true fall-through (no flush). *)

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  mispredict_penalty_extra : int;
      (** cycles beyond the natural refetch bubble *)
}

let default_config =
  { l1i = Cache.l1i_default; l1d = Cache.l1d_default; mispredict_penalty_extra = 0 }

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  raw_stall_cycles : int64;
  branch_flushes : int64;
  icache_miss_rate : float;
  dcache_miss_rate : float;
}

(* Entrypoint positions of the canonical step buildsets. *)
let ep_fetch = 0
let ep_decode = 1
let ep_operands = 2
let ep_execute = 3
let ep_memory = 4
let ep_writeback = 5
let ep_exception = 6

type slot = {
  di : Specsim.Di.t;
  mutable busy : bool;
  mutable stall : int;  (** remaining cycles in this stage *)
  mutable dests : int list;  (** flat register ids being produced *)
  mutable srcs : int list;
  mutable decoded : bool;
  mutable operands_read : bool;
  mutable syscall : bool;
}

let fresh_slot (iface : Specsim.Iface.t) =
  {
    di = Specsim.Di.create ~info_slots:iface.slots.di_size;
    busy = false;
    stall = 0;
    dests = [];
    srcs = [];
    decoded = false;
    operands_read = false;
    syscall = false;
  }

let clear (s : slot) =
  s.busy <- false;
  s.stall <- 0;
  s.dests <- [];
  s.srcs <- [];
  s.decoded <- false;
  s.operands_read <- false;
  s.syscall <- false

let run ?(config = default_config) (iface : Specsim.Iface.t) ~budget : result =
  if Specsim.Iface.n_entrypoints iface <> 7 then
    invalid_arg
      "Directed.run: needs a seven-entrypoint Step interface (e.g. step_all)";
  let st = iface.st in
  let kinds = Specsim.Classify.of_spec iface.spec in
  let slot_of_cell c = iface.slots.di_slot_of_cell.(c) in
  let regs = st.regs in
  let flat_of (cls, id_cell) (di : Specsim.Di.t) =
    let s = slot_of_cell id_cell in
    if s < 0 then None
    else
      Some
        (Machine.Regfile.base regs cls + Int64.to_int (Specsim.Di.get di s))
  in
  let l1i = Cache.create config.l1i in
  let l1d = Cache.create config.l1d in
  let ea_slot = Specsim.Iface.slot_of iface "effective_addr" in
  (* stage slots: 0 = IF, 1 = ID, 2 = EX, 3 = MEM, 4 = WB *)
  let stages = Array.init 5 (fun _ -> fresh_slot iface) in
  let fetch_pc = ref st.pc in
  let serialize = ref false in
  let cycles = ref 0L in
  let retired = ref 0L in
  let raw_stalls = ref 0L in
  let flushes = ref 0L in
  let move a b =
    (* move stage contents from index a to empty index b *)
    let tmp = stages.(b) in
    stages.(b) <- stages.(a);
    stages.(a) <- tmp;
    clear stages.(a)
  in
  let in_flight_dests ~from =
    let acc = ref [] in
    for i = from to 4 do
      if stages.(i).busy then acc := stages.(i).dests @ !acc
    done;
    !acc
  in
  let budget64 = Int64.of_int budget in
  while (not st.halted) && Int64.compare !retired budget64 < 0 do
    cycles := Int64.add !cycles 1L;
    (* ---- WB ---- *)
    let wb = stages.(4) in
    if wb.busy then begin
      iface.step wb.di ep_writeback;
      if not st.halted then iface.step wb.di ep_exception;
      if not st.halted then begin
        iface.retire wb.di;
        retired := Int64.add !retired 1L
      end;
      if wb.syscall then begin
        serialize := false;
        fetch_pc := wb.di.next_pc
      end;
      clear wb
    end;
    (* ---- MEM ---- *)
    let mem = stages.(3) in
    if mem.busy && not st.halted then
      if mem.stall > 0 then mem.stall <- mem.stall - 1
      else if not stages.(4).busy then move 3 4;
    (* ---- EX ---- *)
    let ex = stages.(2) in
    if ex.busy && not st.halted && not stages.(3).busy then begin
      iface.step ex.di ep_execute;
      (* branch resolution: not-taken fetch policy *)
      if not (Specsim.Di.falls_through iface.spec ex.di) then begin
        clear stages.(0);
        clear stages.(1);
        (* a squashed younger syscall no longer serializes *)
        serialize := false;
        fetch_pc := ex.di.next_pc;
        flushes := Int64.add !flushes 1L;
        cycles := Int64.add !cycles (Int64.of_int config.mispredict_penalty_extra)
      end;
      (* D-cache access begins as the instruction enters MEM *)
      let k = if ex.di.instr_index >= 0 then Some kinds.(ex.di.instr_index) else None in
      let lat =
        match (k, ea_slot) with
        | Some k, Some s when k.is_load || k.is_store ->
          Cache.latency l1d (Specsim.Di.get ex.di s)
        | _ -> 1
      in
      move 2 3;
      stages.(3).stall <- lat - 1;
      (* the memory action itself runs as the access completes *)
      iface.step stages.(3).di ep_memory
    end;
    (* ---- ID ---- *)
    let id = stages.(1) in
    if id.busy && not st.halted && not stages.(2).busy then begin
      if not id.decoded then begin
        iface.step id.di ep_decode;
        id.decoded <- true;
        if (not st.halted) && id.di.instr_index >= 0 then begin
          let k = kinds.(id.di.instr_index) in
          id.syscall <- k.is_syscall;
          id.srcs <-
            Array.to_list k.src_regs
            |> List.filter_map (fun sr -> flat_of sr id.di);
          id.dests <-
            Array.to_list k.dest_regs
            |> List.filter_map (fun dr -> flat_of dr id.di);
          if k.is_syscall then begin
            (* serialize: squash the younger fetch, stop fetching *)
            clear stages.(0);
            serialize := true
          end;
          (* not 4 bytes long: the younger fetch went to the wrong
             address; refetch at the fall-through *)
          let size = Specsim.Di.size iface.spec id.di in
          if size <> 4 then begin
            clear stages.(0);
            fetch_pc := Int64.add id.di.pc (Int64.of_int size)
          end
        end
      end;
      if st.halted then clear id
      else begin
        let hazards = in_flight_dests ~from:2 in
        let raw = List.exists (fun s -> List.mem s hazards) id.srcs in
        if raw then raw_stalls := Int64.add !raw_stalls 1L
        else begin
          iface.step id.di ep_operands;
          id.operands_read <- true;
          move 1 2
        end
      end
    end;
    (* ---- IF ---- *)
    let iff = stages.(0) in
    if (not st.halted) && not !serialize then
      if iff.busy then begin
        if iff.stall > 0 then iff.stall <- iff.stall - 1
        else if not stages.(1).busy then move 0 1
      end
      else if not stages.(1).busy then begin
        iff.busy <- true;
        iff.di.pc <- !fetch_pc;
        iff.di.instr_index <- -1;
        iff.di.fault <- None;
        iface.step iff.di ep_fetch;
        iff.stall <- Cache.latency l1i !fetch_pc - 1;
        fetch_pc := Int64.add !fetch_pc 4L;
        if iff.stall = 0 && not stages.(1).busy then move 0 1
      end
  done;
  {
    instructions = !retired;
    cycles = !cycles;
    ipc =
      (if Int64.equal !cycles 0L then 0.
       else Int64.to_float !retired /. Int64.to_float !cycles);
    raw_stall_cycles = !raw_stalls;
    branch_flushes = !flushes;
    icache_miss_rate = Cache.miss_rate l1i;
    dcache_miss_rate = Cache.miss_rate l1d;
  }
