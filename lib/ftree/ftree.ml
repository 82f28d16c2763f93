module E = Sharpe_expo.Exponomial
module F = Sharpe_bdd.Formula
module Bdd = Sharpe_bdd.Bdd

type gate_kind =
  | And
  | Or
  | Not
  | Nand
  | Nor
  | Kofn_identical of int * int
  | Kofn of int
  | Nkofn_identical of int * int
  | Nkofn of int

type def =
  | Event of { dist : E.t; mutable shared : bool }
  | Alias of string
  | Gate of gate_kind * string list

type t = {
  defs : (string, def) Hashtbl.t;
  mutable order : string list; (* definition order, reversed *)
  mutable last_gate : string option;
}

let create () = { defs = Hashtbl.create 32; order = []; last_gate = None }

let define t name d =
  if Hashtbl.mem t.defs name then
    invalid_arg (Printf.sprintf "Ftree: %s redefined" name);
  Hashtbl.add t.defs name d;
  t.order <- name :: t.order

let basic t name dist = define t name (Event { dist; shared = false })
let repeat t name dist = define t name (Event { dist; shared = true })

let rec base_name t name =
  match Hashtbl.find_opt t.defs name with
  | Some (Alias target) -> base_name t target
  | _ -> name

let transfer t name target =
  let b = base_name t target in
  (match Hashtbl.find_opt t.defs b with
  | Some (Event e) -> e.shared <- true
  | Some (Gate _) | Some (Alias _) | None ->
      invalid_arg (Printf.sprintf "Ftree: transfer target %s is not an event" target));
  define t name (Alias b)

let gate t name kind inputs =
  (match kind with
  | Not ->
      if List.length inputs <> 1 then invalid_arg "Ftree: not gate takes one input"
  | Kofn_identical _ | Nkofn_identical _ ->
      if List.length inputs <> 1 then
        invalid_arg "Ftree: identical k-of-n takes one input"
  | And | Or | Nand | Nor | Kofn _ | Nkofn _ ->
      if List.length inputs < 2 then invalid_arg "Ftree: gate needs >= 2 inputs");
  List.iter
    (fun i ->
      if not (Hashtbl.mem t.defs i) then
        invalid_arg (Printf.sprintf "Ftree: undefined input %s" i))
    inputs;
  define t name (Gate (kind, inputs));
  t.last_gate <- Some name

let top t =
  match t.last_gate with
  | Some g -> g
  | None -> invalid_arg "Ftree: no gate defined"

(* --- instantiation ------------------------------------------------- *)

type instance = {
  nvars : int;
  dists : E.t array; (* var -> distribution *)
  names : string array; (* var -> display name *)
  by_name : (string, int list) Hashtbl.t; (* event name -> vars *)
  formula : int F.t;
}

let instantiate t root =
  let next = ref 0 in
  let dists = ref [] and names = ref [] in
  let shared_vars = Hashtbl.create 16 in
  let by_name = Hashtbl.create 16 in
  let new_var name dist =
    let v = !next in
    incr next;
    dists := dist :: !dists;
    names := name :: !names;
    Hashtbl.replace by_name name (v :: (Option.value ~default:[] (Hashtbl.find_opt by_name name)));
    v
  in
  let rec resolve name : int F.t =
    match Hashtbl.find_opt t.defs name with
    | None -> invalid_arg (Printf.sprintf "Ftree: undefined name %s" name)
    | Some (Alias target) -> resolve target
    | Some (Event e) ->
        if e.shared then begin
          match Hashtbl.find_opt shared_vars name with
          | Some v -> F.Var v
          | None ->
              let v = new_var name e.dist in
              Hashtbl.add shared_vars name v;
              F.Var v
        end
        else F.Var (new_var name e.dist)
    | Some (Gate (kind, inputs)) -> build_gate kind inputs
  and build_gate kind inputs =
    match kind with
    | And -> F.And (List.map resolve inputs)
    | Or -> F.Or (List.map resolve inputs)
    | Not -> F.Not (resolve (List.hd inputs))
    | Nand -> F.Not (F.And (List.map resolve inputs))
    | Nor -> F.Not (F.Or (List.map resolve inputs))
    | Kofn k -> F.Kofn (k, List.map resolve inputs)
    | Nkofn k -> F.Not (F.Kofn (k, List.map resolve inputs))
    | Kofn_identical (k, n) ->
        let input = List.hd inputs in
        F.Kofn (k, List.init n (fun _ -> resolve input))
    | Nkofn_identical (k, n) ->
        let input = List.hd inputs in
        F.Not (F.Kofn (k, List.init n (fun _ -> resolve input)))
  in
  let formula = resolve root in
  let dists = Array.of_list (List.rev !dists) in
  let names = Array.of_list (List.rev !names) in
  (* disambiguate display names of multiple copies *)
  let display = Array.copy names in
  Hashtbl.iter
    (fun name vars ->
      match vars with
      | [] | [ _ ] -> ()
      | _ ->
          List.iteri
            (fun i v -> display.(v) <- Printf.sprintf "%s#%d" name (List.length vars - i))
            vars)
    by_name;
  { nvars = !next; dists; names = display; by_name; formula }

let target t gate = match gate with Some g -> g | None -> top t

(* BDD cache, keyed by [(nvars, formula)]: the formula SHAPE (variable
   indices and connectives), never the event distributions.  The BDD of
   the structure function only depends on the boolean formula, while
   probabilities are evaluated against it afresh on every query.  Variable numbering in [instantiate]
   is deterministic in tree shape and definition order, so structurally
   identical trees rebuilt across sweep iterations share one BDD. *)
module Structhash = Sharpe_numerics.Structhash

let bdd_cache : (int * int F.t, Bdd.manager * Bdd.t) Structhash.Table.t =
  Structhash.Table.create "ftree_bdd"

let compiled t gate =
  let inst = instantiate t (target t gate) in
  let m, bdd =
    Structhash.Table.find_or_add bdd_cache (inst.nvars, inst.formula)
      (fun () ->
        let m = Bdd.manager () in
        (m, F.build m (Bdd.var m) inst.formula))
  in
  (inst, m, bdd)

(* --- analysis ------------------------------------------------------ *)

let cdf ?gate t =
  let inst, m, bdd = compiled t gate in
  Bdd.eval m bdd
    ~p:(fun v -> inst.dists.(v))
    ~q:(fun v -> E.complement inst.dists.(v))
    ~add:E.add ~mul:E.mul ~zero:E.zero ~one:E.one

let prob_at ?gate t time =
  let inst, m, bdd = compiled t gate in
  Bdd.prob m bdd (fun v -> E.eval inst.dists.(v) time)

let sysprob ?gate t = prob_at ?gate t 0.0
let mean ?gate t = E.mean (cdf ?gate t)

let mincuts ?gate t =
  let inst, m, bdd = compiled t gate in
  List.map (List.map (fun v -> inst.names.(v))) (Bdd.mincuts m bdd)

let event_var inst name =
  match Hashtbl.find_opt inst.by_name name with
  | Some [ v ] -> v
  | Some _ -> invalid_arg (Printf.sprintf "Ftree: %s has several copies" name)
  | None -> invalid_arg (Printf.sprintf "Ftree: unknown event %s" name)

let birnbaum ?gate t name time =
  let inst, m, bdd = compiled t gate in
  let v = event_var inst name in
  let pr w = E.eval inst.dists.(w) time in
  Bdd.prob m (Bdd.restrict m bdd v true) pr -. Bdd.prob m (Bdd.restrict m bdd v false) pr

let criticality ?gate t name time =
  let inst, m, bdd = compiled t gate in
  let v = event_var inst name in
  let pr w = E.eval inst.dists.(w) time in
  let b =
    Bdd.prob m (Bdd.restrict m bdd v true) pr -. Bdd.prob m (Bdd.restrict m bdd v false) pr
  in
  let sys = Bdd.prob m bdd pr in
  if sys = 0.0 then 0.0 else b *. E.eval inst.dists.(v) time /. sys

let structural ?gate t name =
  let inst, m, bdd = compiled t gate in
  let v = event_var inst name in
  let n1 = Bdd.sat_count m (Bdd.restrict m bdd v true) ~nvars:inst.nvars in
  let n0 = Bdd.sat_count m (Bdd.restrict m bdd v false) ~nvars:inst.nvars in
  (* restricted functions still counted over nvars assignments; the variable
     itself is free in both, so halve *)
  (n1 -. n0) /. Float.pow 2.0 (float_of_int inst.nvars)

let structure ?gate t =
  (* all events shared: resolve by name only *)
  let dist_of = Hashtbl.create 16 in
  let rec resolve name : string F.t =
    match Hashtbl.find_opt t.defs name with
    | None -> invalid_arg (Printf.sprintf "Ftree: undefined name %s" name)
    | Some (Alias target) -> resolve target
    | Some (Event e) ->
        Hashtbl.replace dist_of name e.dist;
        F.Var name
    | Some (Gate (kind, inputs)) -> (
        match kind with
        | And -> F.And (List.map resolve inputs)
        | Or -> F.Or (List.map resolve inputs)
        | Not -> F.Not (resolve (List.hd inputs))
        | Nand -> F.Not (F.And (List.map resolve inputs))
        | Nor -> F.Not (F.Or (List.map resolve inputs))
        | Kofn k -> F.Kofn (k, List.map resolve inputs)
        | Nkofn k -> F.Not (F.Kofn (k, List.map resolve inputs))
        | Kofn_identical (k, n) ->
            F.Kofn (k, List.init n (fun _ -> resolve (List.hd inputs)))
        | Nkofn_identical (k, n) ->
            F.Not (F.Kofn (k, List.init n (fun _ -> resolve (List.hd inputs)))))
  in
  let f = resolve (target t gate) in
  ( f,
    fun name ->
      match Hashtbl.find_opt dist_of name with
      | Some d -> d
      | None -> invalid_arg (Printf.sprintf "Ftree: unknown event %s" name) )
