(** Deterministic replay files for fuzzer-found divergences.

    A reproducer carries the fully materialized testcase (registers,
    data memory, code words) plus the oracle configuration that showed
    the divergence, so replaying needs no generator and no seed
    arithmetic: `lisim fuzz --isa <isa> --replay FILE` rebuilds the exact
    machines and reports the same verdicts, byte for byte. The format is
    line-based text, versioned by the header line. *)

let header = "lisim-fuzz-repro v1"

let to_string (cfg : Oracle.config) ?buildset (tc : Gen.testcase) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" header;
  line "isa %s" tc.Gen.tc_isa;
  line "seed 0x%Lx" tc.tc_seed;
  (match buildset with Some bs -> line "buildset %s" bs | None -> ());
  (match cfg.Oracle.mutate with
  | Some m -> line "mutate %s" (Specsim.Synth.mutation_to_string m)
  | None -> ());
  line "max-instrs %d" cfg.max_instrs;
  Array.iter (fun (c, i, v) -> line "reg %d %d 0x%Lx" c i v) tc.tc_regs;
  Array.iter (fun (a, v) -> line "mem 0x%Lx 0x%Lx" a v) tc.tc_mem;
  Array.iter (fun w -> line "code 0x%Lx" w) tc.tc_code;
  line "end";
  Buffer.contents b

let write ~path (cfg : Oracle.config) ?buildset (tc : Gen.testcase) : unit =
  let oc = open_out path in
  output_string oc (to_string cfg ?buildset tc);
  close_out oc

type t = {
  r_tc : Gen.testcase;
  r_buildset : string option;  (** the buildset recorded as diverging *)
  r_cfg : Oracle.config;
}

exception Bad_repro of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_repro m)) fmt

(* A number that does not parse is a [Bad_repro] naming its line, not an
   escaping [Failure]. *)
let num of_string ~ln l v =
  match of_string v with
  | x -> x
  | exception Failure _ -> bad "bad number %S on line %d: %S" v (ln + 1) l

let parse (text : string) : t =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  (match lines with
  | h :: _ when String.equal h header -> ()
  | h :: _ -> bad "unsupported header %S" h
  | [] -> bad "empty reproducer");
  let isa = ref "" in
  let seed = ref 0L in
  let buildset = ref None in
  let cfg = ref Oracle.default_config in
  let regs = ref [] and mem = ref [] and code = ref [] in
  let ended = ref false in
  List.iteri
    (fun ln l ->
      if ln = 0 || !ended then ()
      else
        let to_int = num int_of_string ~ln l and to_int64 = num Int64.of_string ~ln l in
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ "isa"; v ] -> isa := v
        | [ "seed"; v ] -> seed := to_int64 v
        | [ "buildset"; v ] -> buildset := Some v
        | [ "mutate"; v ] -> (
          match Specsim.Synth.mutation_of_string v with
          | Some m -> cfg := { !cfg with Oracle.mutate = Some m }
          | None -> bad "unknown mutation %S" v)
        | [ "max-instrs"; v ] -> cfg := { !cfg with Oracle.max_instrs = to_int v }
        | [ "reg"; c; i; v ] -> regs := (to_int c, to_int i, to_int64 v) :: !regs
        | [ "mem"; a; v ] -> mem := (to_int64 a, to_int64 v) :: !mem
        | [ "code"; w ] -> code := to_int64 w :: !code
        | [ "end" ] -> ended := true
        | _ -> bad "bad line %d: %S" (ln + 1) l)
    lines;
  if not !ended then bad "missing 'end' line";
  if String.equal !isa "" then bad "missing 'isa' line";
  if !code = [] then bad "no code words";
  {
    r_tc =
      {
        Gen.tc_isa = !isa;
        tc_seed = !seed;
        tc_regs = Array.of_list (List.rev !regs);
        tc_mem = Array.of_list (List.rev !mem);
        tc_code = Array.of_list (List.rev !code);
      };
    r_buildset = !buildset;
    r_cfg = !cfg;
  }

let load ~path : t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse text
