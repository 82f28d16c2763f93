(* Public facade of the PEPA front end: parse, check, compile to a
   CTMC, and evaluate the standard measures over a probability
   vector. *)

module Ctmc = Sharpe_markov.Ctmc

exception Error of string
(* every error message already carries "line L, col C" when a source
   position is known *)

let parse ?(first_line = 1) src =
  try Parser.parse ~first_line src
  with Parser.Error (msg, line, col) ->
    raise (Error (Printf.sprintf "line %d, col %d: %s" line (col + 1) msg))

let wellformed m =
  try Wellformed.check m
  with Wellformed.Error (msg, pos) ->
    if pos = Ast.no_pos then raise (Error msg)
    else
      raise
        (Error (Printf.sprintf "line %d, col %d: %s" pos.line (pos.col + 1) msg))

type compiled = {
  d : Derive.t;
  ctmc : Ctmc.t;
  warnings : string list;
}

let compile ~resolve m =
  let warnings = wellformed m in
  let d =
    try Derive.derive ~resolve m
    with Derive.Error msg -> raise (Error msg)
  in
  { d; ctmc = Ctmc.of_generator d.Derive.q; warnings }

let n_states c = c.d.Derive.n
let generator c = c.d.Derive.q
let ctmc c = c.ctmc
let warnings c = c.warnings
let actions c = Array.to_list c.d.Derive.actions

let init_vector c =
  let v = Array.make c.d.Derive.n 0.0 in
  v.(0) <- 1.0;
  v

let steady c = Ctmc.steady_state c.ctmc
let transient c t = Ctmc.transient c.ctmc ~init:(init_vector c) t

(* [prob c pi name]: probability that at least one leaf component is in
   the local state called [name] (the constant's name, or the printed
   derivative term for anonymous intermediate states). *)
let prob c pi name =
  let d = c.d in
  let hits =
    Array.to_list d.Derive.leaf_names
    |> List.mapi (fun k names ->
           let ls = ref [] in
           Array.iteri
             (fun j n -> if String.equal n name then ls := j :: !ls)
             names;
           (k, !ls))
    |> List.filter (fun (_, ls) -> ls <> [])
  in
  if hits = [] then
    raise
      (Error
         (Printf.sprintf
            "no component of the pepa model has a local state named %s" name));
  let total = ref 0.0 in
  Array.iteri
    (fun s gs ->
      if
        List.exists (fun (k, ls) -> List.exists (fun j -> gs.(k) = j) ls) hits
      then total := !total +. pi.(s))
    d.Derive.states;
  !total

(* [throughput c pi action]: steady-state (or time-t) rate at which
   [action] fires: sum over states of pi(s) times the total rate of
   [action]-transitions leaving s (self-loops included). *)
let throughput c pi action =
  let d = c.d in
  let aid = ref (-1) in
  Array.iteri
    (fun i a -> if String.equal a action then aid := i)
    d.Derive.actions;
  if !aid < 0 then
    raise
      (Error
         (Printf.sprintf "the pepa model has no action named %s" action));
  List.fold_left
    (fun acc (s, r) -> acc +. (pi.(s) *. r))
    0.0
    d.Derive.act_rates.(!aid)

(* Local state names available for [prob] queries, per component. *)
let local_state_names c =
  Array.to_list c.d.Derive.leaf_names |> List.map Array.to_list

let state_vector c i = Array.copy c.d.Derive.states.(i)
