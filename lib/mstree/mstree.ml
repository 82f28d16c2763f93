module F = Sharpe_bdd.Formula
module Bdd = Sharpe_bdd.Bdd

type input = Event of string * string | Ref of string

type def =
  | Gate of [ `And | `Or | `Kofn of int * int ] * input list
  | Alias of string * string (* comp, state *)

type t = {
  (* (comp, state) -> probability *)
  probs : (string * string, float) Hashtbl.t;
  defs : (string, def) Hashtbl.t;
  mutable comp_order : string list; (* first-seen order, reversed *)
}

let create () =
  { probs = Hashtbl.create 32; defs = Hashtbl.create 16; comp_order = [] }

let note_comp t comp =
  if not (List.mem comp t.comp_order) then t.comp_order <- comp :: t.comp_order

let basic t ~comp ~state p =
  if Hashtbl.mem t.probs (comp, state) then
    invalid_arg (Printf.sprintf "Mstree: %s:%s redefined" comp state);
  if p < 0.0 || p > 1.0 +. 1e-12 then invalid_arg "Mstree: probability range";
  Hashtbl.add t.probs (comp, state) p;
  note_comp t comp

let transfer t name ~comp ~state =
  if not (Hashtbl.mem t.probs (comp, state)) then
    invalid_arg (Printf.sprintf "Mstree: transfer of unknown state %s:%s" comp state);
  Hashtbl.add t.defs name (Alias (comp, state))

let add_gate t name kind inputs =
  if Hashtbl.mem t.defs name then
    invalid_arg (Printf.sprintf "Mstree: gate %s redefined" name);
  Hashtbl.add t.defs name (Gate (kind, inputs))

let gate_and t name inputs = add_gate t name `And inputs
let gate_or t name inputs = add_gate t name `Or inputs

let gate_kofn t name ~k ~n inputs =
  let inputs =
    match inputs with
    | [ single ] -> List.init n (fun _ -> single)
    | _ ->
        if List.length inputs <> n then
          invalid_arg "Mstree: kofn input count must equal n";
        inputs
  in
  add_gate t name (`Kofn (k, n)) inputs

let resolve_formula t root =
  let rec input_formula = function
    | Event (c, s) ->
        if not (Hashtbl.mem t.probs (c, s)) then
          invalid_arg (Printf.sprintf "Mstree: unknown state %s:%s" c s);
        F.Var (c, s)
    | Ref name -> (
        match Hashtbl.find_opt t.defs name with
        | Some (Alias (c, s)) -> F.Var (c, s)
        | Some (Gate (kind, inputs)) -> (
            let fs = List.map input_formula inputs in
            match kind with
            | `And -> F.And fs
            | `Or -> F.Or fs
            | `Kofn (k, _) -> F.Kofn (k, fs))
        | None -> invalid_arg (Printf.sprintf "Mstree: unknown gate %s" name))
  in
  input_formula (Ref root)

let sysprob t root =
  let formula = resolve_formula t root in
  (* assign variable ids grouped by component, in component order *)
  let comps = List.rev t.comp_order in
  let var_ids = Hashtbl.create 32 in
  let next = ref 0 in
  let groups =
    List.filter_map
      (fun comp ->
        let states =
          Hashtbl.fold
            (fun (c, s) p acc -> if c = comp then (s, p) :: acc else acc)
            t.probs []
        in
        let states = List.sort compare states in
        if states = [] then None
        else begin
          let ids =
            List.map
              (fun (s, _) ->
                let v = !next in
                incr next;
                Hashtbl.add var_ids (comp, s) v;
                v)
              states
          in
          let total = List.fold_left (fun a (_, p) -> a +. p) 0.0 states in
          if total > 1.0 +. 1e-9 then
            invalid_arg (Printf.sprintf "Mstree: %s state probabilities exceed 1" comp);
          let named_states =
            List.map2
              (fun (_, p) v ->
                { Bdd.state_prob = p; assigns = (fun w -> w = v) })
              states ids
          in
          let rest = 1.0 -. total in
          let named_states =
            if rest > 1e-12 then
              named_states @ [ { Bdd.state_prob = rest; assigns = (fun _ -> false) } ]
            else named_states
          in
          Some (ids, named_states)
        end)
      comps
  in
  let m = Bdd.manager () in
  let bdd = F.build m (fun (c, s) -> Bdd.var m (Hashtbl.find var_ids (c, s))) formula in
  Bdd.prob_grouped m bdd ~groups
