(* The traced run's instruments: spans around the calls the benchmark makes
   into the synthesized interface and the OS emulator, timed from outside
   (nothing under lib/ changes), plus GC phases read back through the
   stdlib's Runtime_events.

   Spans are aggregated in memory per (layer, call) into a count, a total
   and a log2 histogram ({!Obs.Hist}); per-instruction raw spans would
   swamp memory. *)

module Iface = Specsim.Iface

let now () = Int64.to_int (Obs.Clock.now_ns ())

type t = {
  spans : (string, Obs.Hist.t) Hashtbl.t;
  mutable iface_ns : int;  (** total time inside wrapped interface calls *)
  mutable iface_calls : int;
  (* per-instruction events seen in the DI stream, for the cost model *)
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
}

let create () =
  {
    spans = Hashtbl.create 32;
    iface_ns = 0;
    iface_calls = 0;
    instrs = 0;
    loads = 0;
    stores = 0;
    branches = 0;
  }

let hist t name =
  match Hashtbl.find_opt t.spans name with
  | Some h -> h
  | None ->
    let h = Obs.Hist.create () in
    Hashtbl.replace t.spans name h;
    h

let span_count t name =
  match Hashtbl.find_opt t.spans name with Some h -> Obs.Hist.count h | None -> 0

let span_mean t name =
  match Hashtbl.find_opt t.spans name with Some h -> Obs.Hist.mean h | None -> 0.

(* Median cost of one clock read, subtracted once per span when the
   self time of a timing model is derived. *)
let clock_ns =
  lazy
    (let a =
       Array.init 2001 (fun _ ->
           let t0 = now () in
           now () - t0)
     in
     Array.sort compare a;
     a.(1000))

(* Seven-entrypoint Step interfaces, by the positions Timing.Directed
   drives them in. *)
let directed_steps =
  [| "fetch"; "decode"; "operands"; "execute"; "memory"; "writeback"; "exception" |]

(* [wrap t kinds i] is [i] with every closure the timing organizations call
   ([run_fast], [run_one], [step], [retire], [rollback]) timed into [t],
   and the machine's syscall handler timed as [machine.syscall]. *)
let wrap t (kinds : Specsim.Classify.kind array) (i : Iface.t) : Iface.t =
  let span h t0 =
    let d = now () - t0 in
    Obs.Hist.record h d;
    t.iface_ns <- t.iface_ns + d;
    t.iface_calls <- t.iface_calls + 1
  in
  let note (di : Specsim.Di.t) =
    if di.fault = None && di.instr_index >= 0 then begin
      let k = kinds.(di.instr_index) in
      t.instrs <- t.instrs + 1;
      if k.is_load then t.loads <- t.loads + 1;
      if k.is_store then t.stores <- t.stores + 1;
      if k.is_branch then t.branches <- t.branches + 1
    end
  in
  let one = hist t "core.one" and fast = hist t "core.fast" in
  let retire = hist t "core.step.retire" in
  let steps =
    if Iface.n_entrypoints i = Array.length directed_steps then
      Array.map (fun n -> hist t ("core.step." ^ n)) directed_steps
    else Array.map (fun n -> hist t ("core.step." ^ n)) i.entry_names
  in
  let rollback = hist t "core.specul.rollback" in
  let sys = hist t "machine.syscall" in
  let st = i.st in
  let handler = st.syscall_handler in
  st.syscall_handler <-
    (fun s ->
      let t0 = now () in
      handler s;
      Obs.Hist.record sys (now () - t0));
  {
    i with
    run_one =
      (fun di ->
        let t0 = now () in
        i.run_one di;
        span one t0;
        note di);
    run_fast =
      (fun n ->
        let t0 = now () in
        let r = i.run_fast n in
        span fast t0;
        r);
    step =
      (fun di k ->
        let t0 = now () in
        i.step di k;
        span steps.(k) t0);
    retire =
      (fun di ->
        let t0 = now () in
        i.retire di;
        span retire t0;
        note di);
    rollback =
      (fun tok ->
        let t0 = now () in
        i.rollback tok;
        span rollback t0);
  }

(* ------------------------------------------------------------------ *)
(* GC phases                                                            *)
(* ------------------------------------------------------------------ *)

type gc = {
  mutable minors : int;
  mutable slices : int;
  mutable gc_ns : int;  (** union of minor and major-slice phases *)
}

let gc_zero () = { minors = 0; slices = 0; gc_ns = 0 }

let cursor = ref None
let depth = ref 0
let since = ref 0
let into : gc option ref = ref None

let callbacks =
  lazy
    (let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
     let tracked : Runtime_events.runtime_phase -> bool = function
       | EV_MINOR | EV_MAJOR_SLICE -> true
       | _ -> false
     in
     Runtime_events.Callbacks.create
       ~runtime_begin:(fun _ ts phase ->
         if tracked phase then begin
           (match (!into, phase) with
           | Some g, EV_MINOR -> g.minors <- g.minors + 1
           | Some g, _ -> g.slices <- g.slices + 1
           | None, _ -> ());
           if !depth = 0 then since := ts_ns ts;
           incr depth
         end)
       ~runtime_end:(fun _ ts phase ->
         if tracked phase && !depth > 0 then begin
           decr depth;
           if !depth = 0 then
             match !into with
             | Some g -> g.gc_ns <- g.gc_ns + (ts_ns ts - !since)
             | None -> ()
         end)
       ())

(* Starts event collection (once per process); the ring file goes where
   OCAML_RUNTIME_EVENTS_DIR points and is removed at exit. *)
let gc_start () =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  end

(* Reads the pending events into [g], or discards them. *)
let gc_poll g =
  match !cursor with
  | None -> ()
  | Some c ->
    into := g;
    ignore (Runtime_events.read_poll c (Lazy.force callbacks) None);
    into := None
