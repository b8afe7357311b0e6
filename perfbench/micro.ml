(* Isolated layer microbenchmarks (bechamel): the costs outside timing
   cannot split apart inside the engine. Each test performs [reps]
   operations per run so the closure call is amortized; results are
   ns per operation. *)

let reps = 16

let ns_per_op ~name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.15) ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let est = ref 0. in
  Hashtbl.iter
    (fun _ r ->
      match Analyze.OLS.estimates r with
      | Some [ e ] -> est := e /. float_of_int reps
      | _ -> ())
    results;
  !est

let page = Int64.of_int Machine.Memory.page_size

(* Addresses within one page, or alternating between two pages so the
   memory's one-entry page cache misses on every access. *)
let addrs ~switch =
  Array.init reps (fun i ->
      let base = if switch && i land 1 = 1 then Int64.add 0x100000L page else 0x100000L in
      Int64.add base (Int64.of_int (8 * i)))

let memory ~switch ~write =
  let mem = Machine.Memory.create Machine.Memory.Little in
  let a = addrs ~switch in
  Array.iter (fun addr -> Machine.Memory.write mem ~addr ~width:4 1L) a;
  if write then fun () ->
    for i = 0 to reps - 1 do
      Machine.Memory.write mem ~addr:(Array.unsafe_get a i) ~width:4 7L
    done
  else fun () ->
    for i = 0 to reps - 1 do
      ignore (Sys.opaque_identity (Machine.Memory.read mem ~addr:(Array.unsafe_get a i) ~width:4))
    done

(* Decodes a real instruction stream: the ISA's encoding of hash_loop. *)
let decode (isa : Cells.isa) =
  let d = Specsim.Decoder.make isa.spec in
  let words =
    Array.of_list
      (isa.target.encode ~base:Workload.code_base
         (List.nth Vir.Kernels.bench_suite 4).program)
  in
  let encs = Array.init reps (fun i -> words.(i mod Array.length words)) in
  fun () ->
    for i = 0 to reps - 1 do
      ignore (Sys.opaque_identity (Specsim.Decoder.decode d (Array.unsafe_get encs i)))
    done

let cache () =
  let c = Timing.Cache.create Timing.Cache.l1d_default in
  let a = Array.init reps (fun i -> Int64.of_int (0x100000 + (i * 4160))) in
  fun () ->
    for i = 0 to reps - 1 do
      ignore (Sys.opaque_identity (Timing.Cache.access c (Array.unsafe_get a i)))
    done

let predictor () =
  let p = Timing.Predictor.create (Timing.Predictor.Gshare 12) in
  let pcs = Array.init reps (fun i -> Int64.of_int (0x1000 + (i * 12))) in
  fun () ->
    for i = 0 to reps - 1 do
      ignore
        (Sys.opaque_identity
           (Timing.Predictor.update p ~pc:(Array.unsafe_get pcs i)
              ~taken:(i land 3 <> 0)))
    done

let specul (isa : Cells.isa) =
  let j = Specsim.Specul.create () in
  let st = Lis.Spec.make_machine isa.spec in
  fun () ->
    for _ = 1 to reps do
      let tok = Specsim.Specul.checkpoint j st in
      Specsim.Specul.commit j tok
    done

(* Every layer cost, by metric name (ns per operation). *)
let run (isas : (string * Cells.isa) list) =
  let first = snd (List.hd isas) in
  let m name f = (name, ns_per_op ~name f) in
  [
    m "micro.mem_read_resident_ns" (memory ~switch:false ~write:false);
    m "micro.mem_read_switch_ns" (memory ~switch:true ~write:false);
    m "micro.mem_write_resident_ns" (memory ~switch:false ~write:true);
    m "micro.mem_write_switch_ns" (memory ~switch:true ~write:true);
  ]
  @ List.map (fun (n, isa) -> m ("micro.decode_ns." ^ n) (decode isa)) isas
  @ [
      m "micro.cache_access_ns" (cache ());
      m "micro.predictor_update_ns" (predictor ());
      m "micro.specul_ckpt_commit_ns" (specul first);
    ]
