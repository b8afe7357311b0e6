(* lisbench: the lisim benchmark executable (normally run through
   run.py, which builds it first).

     lisbench --workload W --seed N --seconds S --trace 0|1
     lisbench --selftest

   One process, one domain. Every run repeats its set-up several times,
   then samples the workload's cells round by round, in an order drawn
   from the seed, until the time is up (the first round always
   completes, so every cell is run and checked). The last stdout line is
   the JSON result; the lines before it stamp the host and give the
   simulated-statistics digest. NOTES.md explains every metric. *)

open Cells

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by linear interpolation; [iqr_share] is (q3 - q1) / median. *)
let iqr_share xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then 0.
  else
    let q p =
      let x = p *. float_of_int (n - 1) in
      let i = int_of_float x in
      let f = x -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
    in
    let m = median xs in
    if m = 0. then 0. else (q 0.75 -. q 0.25) /. m

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log (Float.max x 1e-12)) 0. xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Host stamp                                                           *)
(* ------------------------------------------------------------------ *)

let in_container () =
  Sys.file_exists "/.dockerenv"
  ||
  match open_in "/proc/self/cgroup" with
  | ic ->
    let s = In_channel.input_all ic in
    close_in ic;
    List.exists
      (fun k ->
        let n = String.length k and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = k || go (i + 1)) in
        go 0)
      [ "docker"; "containerd"; "kubepods"; "lxc"; "podman" ]
  | exception Sys_error _ -> false

let host_stamp ~seed =
  Obs.Export.(
    to_string
      (Obj
         [
           ("cores", Int (Int64.of_int (Domain.recommended_domain_count ())));
           ("ocaml", Str Sys.ocaml_version);
           ("flambda", Bool Build_flags.flambda);
           ("container", Bool (in_container ()));
           ("seed", Int (Int64.of_int seed));
         ]))

(* ------------------------------------------------------------------ *)
(* Set-up: spec load + Synth.make of every interface used + image load  *)
(* ------------------------------------------------------------------ *)

type setup = {
  total_s : float;
  spec_ms : float;  (** per ISA *)
  synth_ms : float;  (** per interface *)
  absint_ms : float;  (** per interface *)
}

let setup_once cells =
  let uniq l = List.sort_uniq compare l in
  let isa_names = uniq (List.map (fun c -> c.isa) cells) in
  let ifaces = uniq (List.map (fun c -> (c.isa, c.bs, c.observe)) cells) in
  let images = uniq (List.map (fun c -> (c.isa, c.kernel.kname)) cells) in
  let t0 = now () in
  let isas = List.map (fun n -> (n, load_isa n)) isa_names in
  let t1 = now () in
  let absint = ref 0 in
  List.iter
    (fun (n, bs, o) ->
      let obs = obs_of o in
      let i = Specsim.Synth.make ?obs (List.assoc n isas).spec bs in
      absint := !absint + i.stats.absint_ns)
    ifaces;
  let t2 = now () in
  List.iter
    (fun (n, kname) ->
      let isa = List.assoc n isas in
      let k = (List.find (fun c -> c.kernel.kname = kname) cells).kernel in
      let st = Lis.Spec.make_machine isa.spec in
      ignore (Workload.load_image isa.target k.program st))
    images;
  let t3 = now () in
  Gc.minor ();
  let k = speed ~probe_ns:(probe ()) in
  let ms n dt = k *. float_of_int dt /. 1e6 /. float_of_int (max 1 n) in
  ( isas,
    {
      total_s = k *. float_of_int (t3 - t0) /. 1e9;
      spec_ms = ms (List.length isa_names) (t1 - t0);
      synth_ms = ms (List.length ifaces) (t2 - t1);
      absint_ms = ms (List.length ifaces) !absint;
    } )

let setup_reps = 21

(* The median of [setup_reps] set-ups: [first], taken before the rounds
   (the run keeps only its loaded specs: every sample re-synthesizes its
   interface and reloads its image outside the timed window), and the
   rest after them, so their garbage does not inflate the rounds' peak
   heap. *)
let setup_median cells first =
  let runs = first :: List.init (setup_reps - 1) (fun _ -> snd (setup_once cells)) in
  let m f = median (List.map f runs) in
  {
    total_s = m (fun s -> s.total_s);
    spec_ms = m (fun s -> s.spec_ms);
    synth_ms = m (fun s -> s.synth_ms);
    absint_ms = m (fun s -> s.absint_ms);
  }

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)
(* ------------------------------------------------------------------ *)

type pass = Untraced | Traced

(* Per cell and pass: its samples, newest first. *)
type record = {
  cell : cell;
  pass : pass;
  mutable samples : sample list;
  mutable events : int * int * int * int;
      (** traced DI stream of the last sample: instructions, loads,
          stores, branches *)
}

(* Everything a run learns about its cells. *)
type run = {
  records : record list;
  failures : (string, string) Hashtbl.t;  (** cell id -> first failure *)
  digests : (string, string) Hashtbl.t;  (** cell id -> simulated statistics *)
  tracer : Tracer.t;
  self_ns : (org, int ref * int ref) Hashtbl.t;  (** timing self ns, instrs *)
  gc : Tracer.gc;
  mutable gc_instrs : int;
  mutable gc_ns : int;
}

let fail run c why =
  if not (Hashtbl.mem run.failures c.id) then Hashtbl.replace run.failures c.id why

let run_rounds ~seed ~seconds ~units isas =
  let run =
    {
      records = List.map
          (fun (pass, cell) -> { cell; pass; samples = []; events = (0, 0, 0, 0) })
          units;
      failures = Hashtbl.create 16;
      digests = Hashtbl.create 256;
      tracer = Tracer.create ();
      self_ns = Hashtbl.create 4;
      gc = Tracer.gc_zero ();
      gc_instrs = 0;
      gc_ns = 0;
    }
  in
  let outcomes = Hashtbl.create 64 in
  let rng = Random.State.make [| seed |] in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let sample r =
    let c = r.cell in
    let isa = List.assoc c.isa isas in
    let s =
      match r.pass with
      | Untraced ->
        let s =
          run_sample isa c
            ~before:(fun () -> Tracer.gc_poll None)
            ~after:(fun () -> Tracer.gc_poll (Some run.gc))
        in
        run.gc_instrs <- run.gc_instrs + s.instrs;
        run.gc_ns <- run.gc_ns + s.ns;
        s
      | Traced ->
        let tr = run.tracer in
        let ns0 = ref 0 and calls0 = ref 0 and ev0 = ref [||] in
        let s =
          run_sample isa c
            ~wrap:(Tracer.wrap tr isa.kinds)
            ~before:(fun () ->
              ns0 := tr.iface_ns;
              calls0 := tr.iface_calls;
              ev0 := [| tr.instrs; tr.loads; tr.stores; tr.branches |])
        in
        r.events <-
          ( tr.instrs - !ev0.(0),
            tr.loads - !ev0.(1),
            tr.stores - !ev0.(2),
            tr.branches - !ev0.(3) );
        if c.org <> Fast then begin
          let self, instrs =
            match Hashtbl.find_opt run.self_ns c.org with
            | Some p -> p
            | None ->
              let p = (ref 0, ref 0) in
              Hashtbl.replace run.self_ns c.org p;
              p
          in
          self :=
            !self + s.ns - (tr.iface_ns - !ns0)
            - ((tr.iface_calls - !calls0) * Lazy.force Tracer.clock_ns);
          instrs := !instrs + s.instrs
        end;
        s
    in
    (match s.failure with Some why -> fail run c why | None -> ());
    (match Hashtbl.find_opt run.digests c.id with
    | None -> Hashtbl.replace run.digests c.id s.digest
    | Some d ->
      if not (String.equal d s.digest) then
        fail run c "simulated statistics differ between samples or passes");
    (if c.goal = Complete then
       let key = (c.isa, c.kernel.kname) in
       match Hashtbl.find_opt outcomes key with
       | None -> Hashtbl.replace outcomes key s.outcome
       | Some o ->
         if not (String.equal o s.outcome) then
           fail run c ("outcome differs across interfaces: " ^ s.outcome ^ " vs " ^ o));
    r.samples <- s :: r.samples
  in
  let first = ref true in
  while !first || now () < deadline do
    let order = shuffle rng run.records in
    Array.iter (fun r -> if !first || now () < deadline then sample r) order;
    first := false
  done;
  run

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* Host-normalized (see {!Cells.probe}). *)
let ns_per_instr (s : sample) =
  normalize ~probe_ns:s.probe_ns s.ns /. float_of_int (max 1 s.instrs)

let cell_ns r = median (List.map ns_per_instr r.samples)

let of_pass p run = List.filter (fun r -> r.pass = p && r.samples <> []) run.records

let mips records = geomean (List.map (fun r -> 1e3 /. cell_ns r) records)

let words f records =
  let w = List.fold_left (fun a r -> a +. median (List.map f r.samples)) 0. records in
  let n =
    List.fold_left (fun a r -> a + (List.hd r.samples).instrs) 0 records
  in
  ratio w (float_of_int n)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let end_to_end run (st : setup) ~peak_heap =
  let rs = of_pass Untraced run in
  [
    ("mips", mips rs, "MIPS");
    ("minor_words_per_instr", words (fun s -> s.minor_words) rs, "words");
    ("major_words_per_instr", words (fun s -> s.major_words) rs, "words");
    ("peak_heap_mb", peak_heap, "MB");
    ("setup_s", st.total_s, "s");
  ]

let all_buildsets =
  block_buildsets @ List.map fst detailed_buildsets

let step_calls =
  [ "fetch"; "decode"; "operands"; "execute"; "memory"; "writeback"; "exception"; "retire" ]

(* Composes the isolated layer costs by the events counted in each
   traced non-block cell and compares the prediction with the cell's
   measured (untraced) ns/instr: Table III measured rather than
   derived. Every memory access is costed at the page-switch rate. *)
let model_residual run isas micro =
  let get n = Option.value ~default:0. (List.assoc_opt n micro) in
  let rd = get "micro.mem_read_switch_ns" and wr = get "micro.mem_write_switch_ns" in
  let cache = get "micro.cache_access_ns" and bp = get "micro.predictor_update_ns" in
  let ck = get "micro.specul_ckpt_commit_ns" in
  let measured = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace measured r.cell.id (cell_ns r)) (of_pass Untraced run);
  let predicted = ref 0. and total = ref 0. in
  List.iter
    (fun r ->
      let c = r.cell in
      let n, loads, stores, branches = r.events in
      match Hashtbl.find_opt measured c.id with
      | Some m when c.org <> Fast && c.observe = Plain && n > 0 ->
        let per x = float_of_int x /. float_of_int n in
        let ld = per loads and sto = per stores and br = per branches in
        let isa = List.assoc c.isa isas in
        let timing =
          match c.org with
          | Fast -> 0.
          | Funcfirst | Specff -> cache +. ((ld +. sto) *. cache) +. (br *. bp)
          | Directed -> cache +. ((ld +. sto) *. cache)
        in
        let journal =
          if (Lis.Spec.find_buildset isa.spec c.bs).bs_speculation then ck else 0.
        in
        predicted :=
          !predicted +. rd
          +. get ("micro.decode_ns." ^ c.isa)
          +. (ld *. rd) +. (sto *. wr) +. timing +. journal;
        total := !total +. m
      | _ -> ())
    (of_pass Traced run);
  if !total = 0. then 0. else 1. -. (!predicted /. !total)

(* Every per-layer metric, in BENCHMARK.json order; a layer the workload
   does not exercise reads 0. *)
let per_layer_names =
  [ "lis.spec_load_ms"; "core.synth_make_ms"; "core.absint_ms" ]
  @ List.concat_map
      (fun bs -> [ "core." ^ bs ^ ".ns_per_instr"; "core." ^ bs ^ ".iqr_share" ])
      all_buildsets
  @ [
      "core.block.ns_per_call";
      "core.block.instrs_per_call";
      "core.block.chain_rate";
      "core.block.site_reuse_rate";
      "core.block.compiled_per_minstr";
      "core.block.invalidations_per_minstr";
      "core.block.warmup_share";
      "core.one.ns_per_call";
    ]
  @ List.map (fun s -> "core.step." ^ s ^ ".ns_per_call") step_calls
  @ [
      "core.specul.rollback_ns";
      "core.specul.rollbacks_per_kinstr";
      "timing.funcfirst.self_ns_per_instr";
      "timing.directed.self_ns_per_instr";
      "timing.specff.self_ns_per_instr";
    ]
  @ List.map (fun i -> "timing.directed.flushes_per_kinstr." ^ i) isa_names
  @ [
      "machine.syscall_ns";
      "machine.syscalls_per_kinstr";
      "gc.minor_collections_per_minstr";
      "gc.major_slices_per_minstr";
      "gc.time_share";
      "obs.overhead_full";
      "obs.overhead_profile";
      "trace.overhead";
      "micro.mem_read_resident_ns";
      "micro.mem_read_switch_ns";
      "micro.mem_write_resident_ns";
      "micro.mem_write_switch_ns";
    ]
  @ List.map (fun i -> "micro.decode_ns." ^ i) isa_names
  @ [
      "micro.cache_access_ns";
      "micro.predictor_update_ns";
      "micro.specul_ckpt_commit_ns";
      "model.residual_share";
    ]

let per_layer_unit name =
  let has sub =
    let n = String.length sub and m = String.length name in
    let rec go i = i + n <= m && (String.sub name i n = sub || go (i + 1)) in
    go 0
  in
  if has "per_minstr" then "1/Minstr"
  else if has "per_kinstr" then "1/kinstr"
  else if has "instrs_per_call" then "instrs"
  else if has "_ms" then "ms"
  else if has "_ns" || has "ns_per_" then "ns"
  else "share"

(* A pair-matched slowdown: geometric mean over cells of
   (ns/instr of [slow]) / (ns/instr of [base]), minus one. *)
let paired_overhead base slow =
  let ratios =
    List.filter_map
      (fun (b, s) -> if cell_ns b > 0. then Some (cell_ns s /. cell_ns b) else None)
      (List.combine base slow)
  in
  if ratios = [] then 0. else geomean ratios -. 1.

(* The share of the block cells' timed windows spent in the first [run_n]
   slice beyond the rate of the slices after it: translation, site
   compilation and cold host caches. Per cell the median excess over the
   median window, then summed over cells. *)
let warmup_share records =
  let excess (s : sample) =
    let n1, t1 = s.first_slice in
    if s.instrs <= n1 then 0.
    else
      float_of_int t1
      -. (float_of_int n1 *. float_of_int (s.ns - t1) /. float_of_int (s.instrs - n1))
  in
  let sum f = List.fold_left (fun a r -> a +. median (List.map f r.samples)) 0. records in
  ratio (sum excess) (sum (fun s -> float_of_int s.ns))

let per_layer run isas (st : setup) micro =
  let tbl = Hashtbl.create 128 in
  let set k v = Hashtbl.replace tbl k v in
  let untraced = of_pass Untraced run and traced = of_pass Traced run in
  (* span times are normalized by the traced samples' median probe *)
  let k =
    speed
      ~probe_ns:
        (int_of_float
           (median
              (List.concat_map
                 (fun r -> List.map (fun s -> float_of_int s.probe_ns) r.samples)
                 traced)))
  in
  let span_mean name =
    if Tracer.span_count run.tracer name = 0 then 0.
    else
      k
      *. (Tracer.span_mean run.tracer name
         -. float_of_int (Lazy.force Tracer.clock_ns))
  in
  let plain = List.filter (fun r -> r.cell.observe = Plain) untraced in
  set "lis.spec_load_ms" st.spec_ms;
  set "core.synth_make_ms" st.synth_ms;
  set "core.absint_ms" st.absint_ms;
  List.iter
    (fun bs ->
      match List.filter (fun r -> r.cell.bs = bs) plain with
      | [] -> ()
      | rs ->
        set ("core." ^ bs ^ ".ns_per_instr") (geomean (List.map cell_ns rs));
        set ("core." ^ bs ^ ".iqr_share")
          (median (List.map (fun r -> iqr_share (List.map ns_per_instr r.samples)) rs)))
    all_buildsets;
  (* block engine: deterministic Iface.stats of the plain block cells *)
  let blocks = List.filter (fun r -> r.cell.org = Fast) plain in
  let sum f rs = List.fold_left (fun a r -> a + f (List.hd r.samples)) 0 rs in
  let fsum f rs = float_of_int (sum f rs) in
  let b_instrs = fsum (fun s -> s.instrs) blocks in
  let dispatches = fsum (fun s -> s.stats.block_hits + s.stats.blocks_compiled) blocks in
  (* wrapped run_fast time per block dispatch over all traced samples *)
  let tr_dispatches =
    List.fold_left
      (fun a r ->
        if r.cell.org = Fast then
          a
          + List.fold_left
              (fun a s -> a + s.stats.block_hits + s.stats.blocks_compiled)
              0 r.samples
        else a)
      0 traced
  in
  set "core.block.ns_per_call"
    (ratio
       (k *. float_of_int (Obs.Hist.sum (Tracer.hist run.tracer "core.fast")))
       (float_of_int tr_dispatches));
  set "core.block.instrs_per_call" (ratio b_instrs dispatches);
  set "core.block.chain_rate"
    (ratio (fsum (fun s -> s.stats.chain_taken) blocks)
       (fsum (fun s -> s.stats.chain_taken + s.stats.chain_miss) blocks));
  set "core.block.site_reuse_rate"
    (ratio (fsum (fun s -> s.stats.site_cache_hits) blocks)
       (fsum (fun s -> s.stats.site_cache_hits + s.stats.sites_compiled) blocks));
  set "core.block.compiled_per_minstr"
    (ratio (fsum (fun s -> s.stats.blocks_compiled) blocks *. 1e6) b_instrs);
  set "core.block.invalidations_per_minstr"
    (ratio (fsum (fun s -> s.stats.block_invalidations) blocks *. 1e6) b_instrs);
  set "core.block.warmup_share" (warmup_share blocks);
  set "core.one.ns_per_call" (span_mean "core.one");
  List.iter
    (fun s ->
      set ("core.step." ^ s ^ ".ns_per_call") (span_mean ("core.step." ^ s)))
    step_calls;
  set "core.specul.rollback_ns" (span_mean "core.specul.rollback");
  let spec_instrs =
    List.fold_left
      (fun a r ->
        let isa = List.assoc r.cell.isa isas in
        if (Lis.Spec.find_buildset isa.spec r.cell.bs).bs_speculation then
          a + List.fold_left (fun a s -> a + s.instrs) 0 r.samples
        else a)
      0 traced
  in
  set "core.specul.rollbacks_per_kinstr"
    (ratio
       (float_of_int (Tracer.span_count run.tracer "core.specul.rollback") *. 1e3)
       (float_of_int spec_instrs));
  Hashtbl.iter
    (fun d (self, instrs) ->
      set ("timing." ^ org_name d ^ ".self_ns_per_instr")
        (ratio (k *. float_of_int !self) (float_of_int !instrs)))
    run.self_ns;
  (* Directed branch flushes per ISA, from the deterministic model output *)
  List.iter
    (fun i ->
      let flushes = ref 0 and retired = ref 0 in
      List.iter
        (fun r ->
          if r.cell.org = Directed && r.cell.isa = i then begin
            let s = List.hd r.samples in
            Scanf.sscanf
              (List.find (String.starts_with ~prefix:"flushes=")
                 (String.split_on_char ' ' s.model))
              "flushes=%d" (fun f -> flushes := !flushes + f);
            retired := !retired + s.instrs
          end)
        plain;
      set ("timing.directed.flushes_per_kinstr." ^ i)
        (ratio (float_of_int !flushes *. 1e3) (float_of_int !retired)))
    isa_names;
  let tr_instrs =
    List.fold_left
      (fun a r -> a + List.fold_left (fun a s -> a + s.instrs) 0 r.samples)
      0 traced
  in
  set "machine.syscall_ns" (span_mean "machine.syscall");
  set "machine.syscalls_per_kinstr"
    (ratio
       (float_of_int (Tracer.span_count run.tracer "machine.syscall") *. 1e3)
       (float_of_int tr_instrs));
  let gi = float_of_int run.gc_instrs in
  set "gc.minor_collections_per_minstr" (ratio (float_of_int run.gc.minors *. 1e6) gi);
  set "gc.major_slices_per_minstr" (ratio (float_of_int run.gc.slices *. 1e6) gi);
  set "gc.time_share" (ratio (float_of_int run.gc.gc_ns) (float_of_int run.gc_ns));
  (* observability: observed cells against their plain twins *)
  let twin_of r =
    List.find_opt (fun p -> p.cell.id = (plain_twin r.cell).id) plain
  in
  List.iter
    (fun (mode, name) ->
      let pairs =
        List.filter_map
          (fun r ->
            if r.cell.observe = mode then Option.map (fun t -> (t, r)) (twin_of r)
            else None)
          untraced
      in
      set name (paired_overhead (List.map fst pairs) (List.map snd pairs)))
    [ (Full, "obs.overhead_full"); (Profile, "obs.overhead_profile") ];
  (* the benchmark's own instruments: traced against untraced cells *)
  let pairs =
    List.filter_map
      (fun t ->
        Option.map
          (fun u -> (u, t))
          (List.find_opt (fun u -> u.cell.id = t.cell.id) untraced))
      traced
  in
  set "trace.overhead" (paired_overhead (List.map fst pairs) (List.map snd pairs));
  List.iter (fun (k, v) -> set k v) micro;
  set "model.residual_share" (model_residual run isas micro);
  List.map
    (fun n ->
      (n, Option.value ~default:0. (Hashtbl.find_opt tbl n), per_layer_unit n))
    per_layer_names

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

(* Over the workload's own cells: the plain twins a traced run adds on
   [observed] are left out, so traced and untraced digests compare. *)
let digest_of run cells =
  let lines =
    List.sort compare
      (List.filter_map (fun c -> Hashtbl.find_opt run.digests c.id) cells)
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let result_json ~attempted ~failed metrics =
  let open Obs.Export in
  let finite v = if Float.is_finite v then v else 0. in
  to_string
    (Obj
       [
         ("correct", Bool (failed = 0));
         ("attempted", Int (Int64.of_int attempted));
         ("failed", Int (Int64.of_int failed));
         ( "metrics",
           Obj
             (List.map
                (fun (n, v, u) -> (n, Obj [ ("value", Float (finite v)); ("unit", Str u) ]))
                metrics) );
       ])

let main ~workload ~seed ~seconds ~trace =
  let cells = cells_of_workload workload in
  print_endline ("host " ^ host_stamp ~seed);
  if trace then Tracer.gc_start ();
  let isas, first_setup = setup_once cells in
  let units =
    if trace then
      let twins =
        List.filter_map
          (fun c -> if c.observe <> Plain then Some (plain_twin c) else None)
          cells
      in
      List.map (fun c -> (Untraced, c)) (cells @ twins)
      @ List.map (fun c -> (Traced, c)) cells
    else List.map (fun c -> (Untraced, c)) cells
  in
  (* isolated layer costs, measured on a compacted heap before the rounds
     leave garbage behind *)
  let micro =
    if trace then begin
      Gc.compact ();
      let m = Micro.run isas in
      Gc.minor ();
      let k = speed ~probe_ns:(probe ()) in
      List.map (fun (n, v) -> (n, k *. v)) m
    end
    else []
  in
  let run = run_rounds ~seed ~seconds ~units isas in
  let peak_heap = peak_heap_mb () in
  Hashtbl.reset ref_machines;
  let st = setup_median cells first_setup in
  Printf.printf "digest %s %s\n" workload (digest_of run cells);
  Hashtbl.iter (fun id why -> Printf.printf "FAIL %s: %s\n" id why) run.failures;
  (* the traced run's span table: count, raw total, log2 histogram *)
  if trace then
    List.iter
      (fun (name, h) ->
        if Obs.Hist.count h > 0 then
          Printf.printf "span %s count=%d total_ns=%d p50_ns=%d p99_ns=%d log2=%s\n"
            name (Obs.Hist.count h) (Obs.Hist.sum h) (Obs.Hist.percentile h 50.)
            (Obs.Hist.percentile h 99.)
            (String.concat ","
               (List.map
                  (fun (lo, _, n) -> Printf.sprintf "%d:%d" lo n)
                  (Obs.Hist.nonzero_buckets h))))
      (List.sort
         (fun (a, _) (b, _) -> compare a b)
         (Hashtbl.fold (fun k h acc -> (k, h) :: acc) run.tracer.spans []));
  let rounds =
    List.fold_left (fun a r -> min a (List.length r.samples)) max_int run.records
  in
  let raw = List.filter (fun r -> r.pass = Untraced) run.records in
  Printf.printf "cells %d, samples per cell >= %d, raw mips %.4g, probe median %.0f ns\n"
    (List.length cells) rounds
    (geomean
       (List.map
          (fun r -> 1e3 /. median (List.map (fun s -> float_of_int s.ns /. float_of_int (max 1 s.instrs)) r.samples))
          raw))
    (median (List.concat_map (fun r -> List.map (fun s -> float_of_int s.probe_ns) r.samples) raw));
  let metrics =
    if trace then per_layer run isas st micro else end_to_end run st ~peak_heap
  in
  let ids = List.sort_uniq compare (List.map (fun c -> c.id) cells) in
  print_endline
    (result_json ~attempted:(List.length ids)
       ~failed:(Hashtbl.length run.failures) metrics)

(* ------------------------------------------------------------------ *)
(* The benchmark's own tests                                            *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let ok = ref true in
  let expect name b =
    Printf.printf "%s %s\n" (if b then "ok  " else "FAIL") name;
    if not b then ok := false
  in
  let isas = List.map (fun n -> (n, load_isa n)) isa_names in
  let kernel name = List.find (fun k -> k.kname = name) (bench_kernels @ hostile_kernels) in
  let small = Budget 3_000 in
  let cells =
    [
      make_cell ~isa:"alpha" ~bs:"block_min" ~org:Fast ~goal:small (kernel "hash_loop");
      make_cell ~isa:"riscv" ~bs:"one_decode" ~org:Funcfirst ~goal:small (kernel "crc32");
      make_cell ~isa:"arm" ~bs:"one_decode_spec" ~org:Specff ~goal:Complete timer_poll;
      make_cell ~isa:"ppc" ~bs:"step_all" ~org:Directed ~goal:small (kernel "sort");
      make_cell ~isa:"riscv" ~bs:"block_all" ~org:Fast ~goal:Complete (kernel "syscall_storm");
    ]
  in
  (* tracing transparency: wrapped interfaces give the same digest *)
  List.iter
    (fun c ->
      let isa = List.assoc c.isa isas in
      let u = run_sample isa c in
      let t = run_sample isa c ~wrap:(Tracer.wrap (Tracer.create ()) isa.kinds) in
      expect ("untraced cell passes: " ^ c.id) (u.failure = None);
      expect ("traced digest = untraced digest: " ^ c.id) (String.equal u.digest t.digest))
    cells;
  (* the correctness check has teeth *)
  let bad =
    make_cell ~mutate:Specsim.Synth.Stride4 ~isa:"riscv" ~bs:"block_min" ~org:Fast
      ~goal:(Budget 20_000) (kernel "vec_sum")
  in
  expect "riscv block_min with Stride4 fails the check"
    ((run_sample (List.assoc "riscv" isas) bad).failure <> None);
  (* the seed fixes the cell order *)
  let ids seed =
    Array.to_list
      (Array.map (fun c -> c.id)
         (shuffle (Random.State.make [| seed |]) (cells_of_workload "detailed")))
  in
  expect "same seed, same order" (ids 7 = ids 7);
  expect "other seed, other order" (ids 7 <> ids 8);
  expect "order is a permutation" (List.sort compare (ids 7) = List.sort compare (ids 8));
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref (-1.) in
  let trace = ref (-1) and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workload_names);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N cell-order seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--selftest", Arg.Set self, " run the benchmark's own tests");
    ]
  in
  let usage = "lisbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then selftest ()
  else
    match !seed with
    | Some seed
      when List.mem !workload workload_names
           && !seconds > 0.
           && (!trace = 0 || !trace = 1) ->
      main ~workload:!workload ~seed ~seconds:!seconds ~trace:(!trace = 1)
    | _ ->
      Arg.usage spec usage;
      exit 2
