(** Durable campaign journal: one JSON object per line, appended and
    flushed after every completed case.

    The journal is the supervisor's crash-safety story. A campaign that
    is killed mid-run (SIGKILL, OOM, power) leaves behind a prefix of
    complete lines plus at most one torn final line; [load] tolerates
    the torn tail, and a rerun with [--resume] skips exactly the cases
    whose outcome lines survived. Case ids are deterministic functions
    of the campaign parameters (seed, index, buildset), so skipped cases
    still consume their slot in the generation sequence and the resumed
    run covers the same case window as an uninterrupted one.

    Line shapes (version 1):

    {v
    {"v":1,"kind":"meta","campaign":"fuzz","isa":"tiny","seed":"0x2a","budget":200}
    {"v":1,"kind":"case","case":"fuzz/tiny/0x2a/17/block_min","outcome":"ok","attempts":1}
    {"v":1,"kind":"case","case":"...","outcome":"quarantined","attempts":1,
     "digest":"0x1234","level":"step_all","detail":"quarantine/....repro"}
    v}

    Unknown keys are ignored on read; unknown or torn lines are counted
    but never fatal. *)

let version = 1

type outcome = Pass | Quarantined | Gave_up

let outcome_to_string = function
  | Pass -> "ok"
  | Quarantined -> "quarantined"
  | Gave_up -> "gave-up"

let outcome_of_string = function
  | "ok" -> Some Pass
  | "quarantined" -> Some Quarantined
  | "gave-up" -> Some Gave_up
  | _ -> None

type entry = {
  e_case : string;  (** deterministic case id, unique within a campaign *)
  e_outcome : outcome;
  e_attempts : int;
  e_digest : int64 option;  (** architectural digest at case end, if taken *)
  e_level : string option;  (** final degradation level, if a session ran *)
  e_detail : string option;  (** free-form: reproducer path, failure kind *)
}

let entry ?digest ?level ?detail ~attempts ~outcome case =
  {
    e_case = case;
    e_outcome = outcome;
    e_attempts = attempts;
    e_digest = digest;
    e_level = level;
    e_detail = detail;
  }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = { w_path : string; w_oc : out_channel }

let json_of_entry (e : entry) : Obs.Export.json =
  let opt k f = function Some v -> [ (k, f v) ] | None -> [] in
  Obs.Export.Obj
    ([
       ("v", Obs.Export.Int (Int64.of_int version));
       ("kind", Obs.Export.Str "case");
       ("case", Obs.Export.Str e.e_case);
       ("outcome", Obs.Export.Str (outcome_to_string e.e_outcome));
       ("attempts", Obs.Export.Int (Int64.of_int e.e_attempts));
     ]
    @ opt "digest" (fun d -> Obs.Export.Str (Printf.sprintf "0x%Lx" d)) e.e_digest
    @ opt "level" (fun l -> Obs.Export.Str l) e.e_level
    @ opt "detail" (fun d -> Obs.Export.Str d) e.e_detail)

(** [open_ ~path ~meta] opens [path] for appending, creating it (and
    writing one meta line from the [meta] key/value pairs) when absent
    or empty. Appending to an existing journal never rewrites history;
    a torn last line (no newline, as a kill mid-write leaves it) is
    ended first, so the next record starts a line of its own. *)
let open_ ~path ~(meta : (string * Obs.Export.json) list) : writer =
  let size = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0 in
  let torn_tail =
    size > 0
    && In_channel.with_open_bin path (fun ic ->
           In_channel.seek ic (Int64.of_int (size - 1));
           In_channel.input_char ic <> Some '\n')
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  if torn_tail then begin
    output_char oc '\n';
    flush oc
  end;
  if size = 0 then begin
    let line =
      Obs.Export.to_string
        (Obs.Export.Obj
           (("v", Obs.Export.Int (Int64.of_int version))
           :: ("kind", Obs.Export.Str "meta")
           :: meta))
    in
    output_string oc line;
    output_char oc '\n';
    flush oc
  end;
  { w_path = path; w_oc = oc }

(** Append one case line and flush it, so a kill after [record] never
    loses the case. *)
let record (w : writer) (e : entry) =
  output_string w.w_oc (Obs.Export.to_string (json_of_entry e));
  output_char w.w_oc '\n';
  flush w.w_oc

let close (w : writer) = close_out w.w_oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type view = {
  v_entries : entry list;  (** journal order *)
  v_completed : (string, outcome) Hashtbl.t;
  v_torn : int;  (** unparsable lines tolerated (torn tail, corruption) *)
}

let empty_view () =
  { v_entries = []; v_completed = Hashtbl.create 16; v_torn = 0 }

let entry_of_json (j : Obs.Export.json) : entry option =
  match Obs.Export.member_string "kind" j with
  | Some "case" -> (
    match
      ( Obs.Export.member_string "case" j,
        Option.bind (Obs.Export.member_string "outcome" j) outcome_of_string )
    with
    | Some case, Some outcome ->
      let attempts =
        match Obs.Export.member_int "attempts" j with
        | Some n -> Int64.to_int n
        | None -> 1
      in
      let digest =
        Option.bind (Obs.Export.member_string "digest" j) Int64.of_string_opt
      in
      Some
        {
          e_case = case;
          e_outcome = outcome;
          e_attempts = attempts;
          e_digest = digest;
          e_level = Obs.Export.member_string "level" j;
          e_detail = Obs.Export.member_string "detail" j;
        }
    | _ -> None)
  | _ -> None

(** [load ~path] reads a journal back. A missing file is an empty view;
    meta lines are skipped; torn or foreign lines are counted in
    [v_torn] and otherwise ignored. *)
let load ~path : view =
  if not (Sys.file_exists path) then empty_view ()
  else begin
    let ic = open_in path in
    let completed = Hashtbl.create 64 in
    let entries = ref [] in
    let torn = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length (String.trim line) > 0 then
           match Obs.Export.parse_opt line with
           | None -> incr torn
           | Some j -> (
             match Obs.Export.member_string "kind" j with
             | Some "meta" -> ()
             | _ -> (
               match entry_of_json j with
               | Some e ->
                 entries := e :: !entries;
                 Hashtbl.replace completed e.e_case e.e_outcome
               | None -> incr torn))
       done
     with End_of_file -> ());
    close_in ic;
    { v_entries = List.rev !entries; v_completed = completed; v_torn = !torn }
  end

(** A case is complete when any outcome line for it survived — passes,
    quarantines and give-ups all count: rerunning them cannot change a
    deterministic outcome, and transient give-ups were already retried. *)
let is_complete (v : view) case = Hashtbl.mem v.v_completed case

let completed_count (v : view) = Hashtbl.length v.v_completed
