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
  dests : int array;  (** flat register ids being produced: [n_dests] *)
  mutable n_dests : int;
  srcs : int array;  (** flat register ids read: [n_srcs] *)
  mutable n_srcs : int;
  mutable decoded : bool;
  mutable syscall : bool;
}

let fresh_slot (iface : Specsim.Iface.t) ~max_operands =
  {
    di = Specsim.Di.create ~info_slots:iface.slots.di_size;
    busy = false;
    stall = 0;
    dests = Array.make max_operands 0;
    n_dests = 0;
    srcs = Array.make max_operands 0;
    n_srcs = 0;
    decoded = false;
    syscall = false;
  }

let clear (s : slot) =
  s.busy <- false;
  s.stall <- 0;
  s.n_dests <- 0;
  s.n_srcs <- 0;
  s.decoded <- false;
  s.syscall <- false

(* [operands iface regs ops] is the [(class base, DI slot)] pairs, laid
   out flat, of the operands in [ops] this interface makes visible. *)
let operands (iface : Specsim.Iface.t) regs (ops : (int * Semir.Ir.cell) array) =
  Array.to_list ops
  |> List.concat_map (fun (cls, id_cell) ->
         let s = iface.slots.di_slot_of_cell.(id_cell) in
         if s < 0 then [] else [ Machine.Regfile.base regs cls; s ])
  |> Array.of_list

(* Write the flat register ids of [ops] (from {!operands}) read from
   [di] into [dst]; returns their count. *)
let fill (dst : int array) (ops : int array) (di : Specsim.Di.t) =
  let n = Array.length ops / 2 in
  for j = 0 to n - 1 do
    dst.(j) <- ops.(2 * j) + Specsim.Di.get_lsr di ops.((2 * j) + 1) 0
  done;
  n

let run ?(config = default_config) (iface : Specsim.Iface.t) ~budget : result =
  if Specsim.Iface.n_entrypoints iface <> 7 then
    invalid_arg
      "Directed.run: needs a seven-entrypoint Step interface (e.g. step_all)";
  let st = iface.st in
  let kinds = Specsim.Classify.of_spec iface.spec in
  let regs = st.regs in
  let srcs_of =
    Array.map (fun (k : Specsim.Classify.kind) -> operands iface regs k.src_regs) kinds
  in
  let dests_of =
    Array.map (fun (k : Specsim.Classify.kind) -> operands iface regs k.dest_regs) kinds
  in
  let max_operands =
    Array.fold_left
      (fun m ops -> max m (Array.length ops / 2))
      0 (Array.append srcs_of dests_of)
  in
  let l1i = Cache.create config.l1i in
  let l1d = Cache.create config.l1d in
  let ea_slot =
    Option.value ~default:(-1) (Specsim.Iface.slot_of iface "effective_addr")
  in
  (* stage slots: 0 = IF, 1 = ID, 2 = EX, 3 = MEM, 4 = WB *)
  let stages = Array.init 5 (fun _ -> fresh_slot iface ~max_operands) in
  let fetch_pc = ref st.pc in
  let serialize = ref false in
  let cycles = ref 0 in
  let retired = ref 0 in
  let raw_stalls = ref 0 in
  let flushes = ref 0 in
  let move a b =
    (* move stage contents from index a to empty index b *)
    let tmp = stages.(b) in
    stages.(b) <- stages.(a);
    stages.(a) <- tmp;
    clear stages.(a)
  in
  while (not st.halted) && !retired < budget do
    incr cycles;
    (* ---- WB ---- *)
    let wb = stages.(4) in
    if wb.busy then begin
      iface.step wb.di ep_writeback;
      if not st.halted then iface.step wb.di ep_exception;
      if not st.halted then begin
        iface.retire wb.di;
        incr retired
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
        incr flushes;
        cycles := !cycles + config.mispredict_penalty_extra
      end;
      (* D-cache access begins as the instruction enters MEM *)
      let i = ex.di.instr_index in
      let lat =
        if i >= 0 && ea_slot >= 0 && (kinds.(i).is_load || kinds.(i).is_store)
        then
          Cache.latency_line l1d
            (Specsim.Di.get_lsr ex.di ea_slot (Cache.line_bits l1d))
        else 1
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
        let i = id.di.instr_index in
        if (not st.halted) && i >= 0 then begin
          let k = kinds.(i) in
          id.syscall <- k.is_syscall;
          id.n_srcs <- fill id.srcs srcs_of.(i) id.di;
          id.n_dests <- fill id.dests dests_of.(i) id.di;
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
        (* RAW hazard: a source still being produced in EX, MEM or WB *)
        let raw = ref false in
        for s = 2 to 4 do
          let older = stages.(s) in
          if older.busy then
            for d = 0 to older.n_dests - 1 do
              for r = 0 to id.n_srcs - 1 do
                if id.srcs.(r) = older.dests.(d) then raw := true
              done
            done
        done;
        if !raw then incr raw_stalls
        else begin
          iface.step id.di ep_operands;
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
        iff.stall <- Cache.latency l1i iff.di.pc - 1;
        fetch_pc := Int64.add !fetch_pc 4L;
        if iff.stall = 0 && not stages.(1).busy then move 0 1
      end
  done;
  {
    instructions = Int64.of_int !retired;
    cycles = Int64.of_int !cycles;
    ipc =
      (if !cycles = 0 then 0. else float_of_int !retired /. float_of_int !cycles);
    raw_stall_cycles = Int64.of_int !raw_stalls;
    branch_flushes = Int64.of_int !flushes;
    icache_miss_rate = Cache.miss_rate l1i;
    dcache_miss_rate = Cache.miss_rate l1d;
  }
