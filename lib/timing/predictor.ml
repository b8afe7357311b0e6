(** Branch direction predictors: static, bimodal (2-bit counters) and
    gshare. Targets come from the interface's decode information
    ([branch_target]), so no BTB is modelled. *)

type kind = Static_taken | Static_not_taken | Bimodal of int | Gshare of int
(** the int is log2 of the counter-table size *)

type t = {
  kind : kind;
  table : int array;  (** 2-bit saturating counters *)
  mask : int;
  mutable history : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create kind =
  let bits = match kind with Bimodal b | Gshare b -> b | _ -> 0 in
  let n = 1 lsl bits in
  {
    kind;
    table = Array.make (max n 1) 1 (* weakly not-taken *);
    mask = n - 1;
    history = 0;
    predictions = 0;
    mispredictions = 0;
  }

let index t (pc : int64) =
  let p = Int64.to_int (Int64.shift_right_logical pc 2) in
  match t.kind with
  | Bimodal _ -> p land t.mask
  | Gshare _ -> (p lxor t.history) land t.mask
  | Static_taken | Static_not_taken -> 0

let predict t ~pc : bool =
  match t.kind with
  | Static_taken -> true
  | Static_not_taken -> false
  | Bimodal _ | Gshare _ -> t.table.(index t pc) >= 2

(** [update t ~pc ~taken] trains the predictor and records accuracy. *)
let update t ~pc ~taken =
  let predicted = predict t ~pc in
  t.predictions <- t.predictions + 1;
  if predicted <> taken then t.mispredictions <- t.mispredictions + 1;
  (match t.kind with
  | Static_taken | Static_not_taken -> ()
  | Bimodal _ | Gshare _ ->
    let i = index t pc in
    let c = t.table.(i) in
    t.table.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1)));
  (match t.kind with
  | Gshare _ -> t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.mask
  | Static_taken | Static_not_taken | Bimodal _ -> ());
  predicted

let misprediction_rate t =
  if t.predictions = 0 then 0.
  else float_of_int t.mispredictions /. float_of_int t.predictions

let stats t = (Int64.of_int t.predictions, Int64.of_int t.mispredictions)
