(** Dynamic instruction-mix statistics — a small timing-side consumer that
    needs exactly the Decode informational level (the opclass cell), used
    by the `lisim mix` command and as workload documentation.

    This is the kind of lightweight analysis tool the paper's
    functional-first organization serves: it consumes the instruction
    stream, reads only decode information, and exerts no control. *)

type summary = {
  total : int64;
  counts : (string * int64) list;  (** per instruction name, descending *)
  loads : int64;
  stores : int64;
  branches : int64;
  taken_branches : int64;
}

(** [collect_iface iface ~budget] runs [iface]'s loaded program one
    instruction at a time and histograms retired instructions. A branch
    counts as taken when its next pc is not its fall-through, the pc plus
    the decoded instruction's own size. *)
let collect_iface ?(budget = 10_000_000) (iface : Specsim.Iface.t) : summary =
  let spec = iface.spec in
  let kinds = Specsim.Classify.of_spec spec in
  let n = Array.length spec.instrs in
  let counts = Array.make n 0L in
  let loads = ref 0L
  and stores = ref 0L
  and branches = ref 0L
  and taken = ref 0L in
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  let st = iface.st in
  let budget64 = Int64.of_int budget in
  while (not st.halted) && Int64.compare st.instr_count budget64 < 0 do
    iface.run_one di;
    let idx = di.instr_index in
    if idx >= 0 && di.fault = None then begin
      counts.(idx) <- Int64.add counts.(idx) 1L;
      let k = kinds.(idx) in
      if k.is_load then loads := Int64.add !loads 1L;
      if k.is_store then stores := Int64.add !stores 1L;
      if k.is_branch then begin
        branches := Int64.add !branches 1L;
        if not (Specsim.Di.falls_through spec di) then
          taken := Int64.add !taken 1L
      end
    end
  done;
  let named =
    Array.to_list (Array.mapi (fun i c -> (spec.instrs.(i).i_name, c)) counts)
    |> List.filter (fun (_, c) -> Int64.compare c 0L > 0)
    |> List.sort (fun (_, a) (_, b) -> Int64.compare b a)
  in
  {
    total = st.instr_count;
    counts = named;
    loads = !loads;
    stores = !stores;
    branches = !branches;
    taken_branches = !taken;
  }

(** [collect target ~buildset program ~budget] loads [program] and runs
    {!collect_iface}. The buildset must expose [opclass] (Decode or All
    detail). [obs] compiles instrumentation into the interface driven by
    the collection run. *)
let collect ?(buildset = "one_decode") ?budget ?obs (t : Workload.target)
    (program : Vir.Lang.program) : summary =
  let l = Workload.load ?obs t ~buildset program in
  collect_iface ?budget l.iface

let pct part total =
  if Int64.equal total 0L then 0.
  else 100. *. Int64.to_float part /. Int64.to_float total

let print ppf (s : summary) =
  Format.fprintf ppf "%Ld instructions retired@." s.total;
  Format.fprintf ppf "loads %.1f%%  stores %.1f%%  branches %.1f%% (%.1f%% taken)@."
    (pct s.loads s.total) (pct s.stores s.total) (pct s.branches s.total)
    (pct s.taken_branches (if Int64.equal s.branches 0L then 1L else s.branches));
  List.iteri
    (fun i (name, c) ->
      if i < 15 then
        Format.fprintf ppf "  %-12s %10Ld  %5.1f%%@." name c (pct c s.total))
    s.counts
