module E = Sharpe_expo.Exponomial
module Bdd = Sharpe_bdd.Bdd

type edge = { var : int; dist : E.t }

type arc = { from_ : string; to_ : string; physical : edge; bidirect : bool }

type t = {
  mutable arcs : arc list; (* reversed declaration order *)
  mutable nvars : int;
  mutable snk : string option;
}

let create () = { arcs = []; nvars = 0; snk = None }

let edge ?(bidirect = false) g u v dist =
  let physical = { var = g.nvars; dist } in
  g.nvars <- g.nvars + 1;
  g.arcs <- { from_ = u; to_ = v; physical; bidirect } :: g.arcs;
  physical

let repeat_edge ?(bidirect = false) g u v physical =
  g.arcs <- { from_ = u; to_ = v; physical; bidirect } :: g.arcs

let set_sink g s = g.snk <- Some s

let nodes g =
  List.sort_uniq compare
    (List.concat_map (fun a -> [ a.from_; a.to_ ]) g.arcs)

let source g =
  let has_in n =
    List.exists (fun a -> a.to_ = n || (a.bidirect && a.from_ = n)) g.arcs
  in
  match List.filter (fun n -> not (has_in n)) (nodes g) with
  | [ s ] -> s
  | [] -> invalid_arg "Relgraph: no source node"
  | _ -> invalid_arg "Relgraph: ambiguous source"

let sink g =
  match g.snk with
  | Some s -> s
  | None -> (
      let has_out n =
        List.exists (fun a -> a.from_ = n || (a.bidirect && a.to_ = n)) g.arcs
      in
      match List.filter (fun n -> not (has_out n)) (nodes g) with
      | [ s ] -> s
      | [] -> invalid_arg "Relgraph: no sink node (set one explicitly)"
      | _ -> invalid_arg "Relgraph: ambiguous sink (set one explicitly)")

(* directed adjacency including reverse direction of bidirect arcs *)
let adjacency g =
  let tbl = Hashtbl.create 16 in
  let push u v e =
    Hashtbl.replace tbl u ((v, e) :: Option.value ~default:[] (Hashtbl.find_opt tbl u))
  in
  List.iter
    (fun a ->
      push a.from_ a.to_ a.physical;
      if a.bidirect then push a.to_ a.from_ a.physical)
    (List.rev g.arcs);
  tbl

(* enumerate all simple paths source -> sink as lists of physical vars *)
let simple_paths g =
  let adj = adjacency g in
  let src = source g and snk = sink g in
  let paths = ref [] in
  let rec dfs node visited vars =
    if node = snk then paths := List.rev vars :: !paths
    else
      List.iter
        (fun (next, e) ->
          if not (List.mem next visited) then
            dfs next (next :: visited) (e.var :: vars))
        (Option.value ~default:[] (Hashtbl.find_opt adj node))
  in
  dfs src [ src ] [];
  !paths

(* connectivity BDD over "edge works" variables *)
let connectivity g m =
  let paths = simple_paths g in
  Bdd.or_list m
    (List.map (fun p -> Bdd.and_list m (List.map (Bdd.var m) p)) paths)

let dist_of_var g v =
  let rec find = function
    | [] -> invalid_arg "Relgraph: unknown variable"
    | a :: rest -> if a.physical.var = v then a.physical.dist else find rest
  in
  find g.arcs

let reliability g t =
  let m = Bdd.manager () in
  let c = connectivity g m in
  Bdd.prob m c (fun v -> 1.0 -. E.eval (dist_of_var g v) t)

let unreliability g t = 1.0 -. reliability g t

let cdf g =
  let m = Bdd.manager () in
  let c = connectivity g m in
  let rel =
    Bdd.eval m c
      ~p:(fun v -> E.complement (dist_of_var g v))
      ~q:(fun v -> dist_of_var g v)
      ~add:E.add ~mul:E.mul ~zero:E.zero ~one:E.one
  in
  E.complement rel

let mean g = E.mean (cdf g)

let edge_label g v =
  (* parallel edges between the same nodes get #2, #3, ... suffixes *)
  let arcs = List.rev g.arcs in
  let rec find seen = function
    | [] -> Printf.sprintf "e%d" v
    | a :: rest ->
        let key = a.from_ ^ a.to_ in
        let n = 1 + List.length (List.filter (( = ) key) seen) in
        if a.physical.var = v then
          if n = 1 then key else Printf.sprintf "%s#%d" key n
        else find (key :: seen) rest
  in
  find [] arcs

let pqcdf g =
  let m = Bdd.manager () in
  let c = connectivity g m in
  (* failure = complement; sum of disjoint products over the BDD's paths *)
  let f = Bdd.not_ m c in
  let paths = Bdd.minterms m f in
  if paths = [] then "0"
  else
    String.concat " + "
      (List.map
         (fun assignment ->
           match assignment with
           | [] -> "1"
           | _ ->
               String.concat "*"
                 (List.map
                    (fun (v, b) ->
                      (* variable true = edge works; failed prob is p *)
                      (if b then "q" else "p") ^ edge_label g v)
                    assignment))
         paths)

let endpoints_of_var g v =
  let rec find = function
    | [] -> invalid_arg "Relgraph: unknown variable"
    | a :: rest -> if a.physical.var = v then (a.from_, a.to_) else find rest
  in
  find (List.rev g.arcs)

let minpaths g =
  let m = Bdd.manager () in
  let c = connectivity g m in
  List.map (List.map (endpoints_of_var g)) (Bdd.mincuts m c)

let mincuts g =
  let m = Bdd.manager () in
  (* failure formula monotone in "edge failed" variables: substitute
     works = not failed by building paths over negated vars *)
  let paths = simple_paths g in
  let conn_in_fail_vars =
    Bdd.or_list m
      (List.map
         (fun p -> Bdd.and_list m (List.map (fun v -> Bdd.not_ m (Bdd.var m v)) p))
         paths)
  in
  let failure = Bdd.not_ m conn_in_fail_vars in
  List.map (List.map (endpoints_of_var g)) (Bdd.mincuts m failure)

let var_of_endpoints g u v =
  let rec find = function
    | [] -> invalid_arg (Printf.sprintf "Relgraph: no edge %s -> %s" u v)
    | a :: rest ->
        if (a.from_ = u && a.to_ = v) || (a.bidirect && a.from_ = v && a.to_ = u)
        then a.physical.var
        else find rest
  in
  find (List.rev g.arcs)

let birnbaum g u v t =
  let m = Bdd.manager () in
  let c = connectivity g m in
  let x = var_of_endpoints g u v in
  let pr w = 1.0 -. E.eval (dist_of_var g w) t in
  (* importance of the *failure* event w.r.t. edge failure:
     P(fail | edge failed) - P(fail | edge works)
     = P(conn | works) - P(conn | failed) *)
  Bdd.prob m (Bdd.restrict m c x true) pr -. Bdd.prob m (Bdd.restrict m c x false) pr

let criticality g u v t =
  let b = birnbaum g u v t in
  let sys = unreliability g t in
  if sys = 0.0 then 0.0
  else b *. E.eval (dist_of_var g (var_of_endpoints g u v)) t /. sys

let structural g u v =
  let m = Bdd.manager () in
  let c = connectivity g m in
  let x = var_of_endpoints g u v in
  let n = ref 0 in
  List.iter (fun a -> if a.physical.var >= !n then n := a.physical.var + 1) g.arcs;
  let n1 = Bdd.sat_count m (Bdd.restrict m c x true) ~nvars:!n in
  let n0 = Bdd.sat_count m (Bdd.restrict m c x false) ~nvars:!n in
  (n1 -. n0) /. Float.pow 2.0 (float_of_int !n)
