(* Compositional derivation of the CTMC underlying a PEPA model.

   Following Ding & Hillston ("Numerically Representing a Stochastic
   Process Algebra"), the derivation is structured around the
   composition tree of the system equation:

   1. model-level constants are expanded until the system is a tree of
      cooperation / hiding nodes over sequential leaf components;
   2. each leaf's local labelled transition system is derived once
      (local states are the derivative terms of the component, named by
      their constant when the derivative is a constant);
   3. a global breadth-first search runs over vectors of leaf-local
      state indices.  Each node of the composition tree combines its
      children's moves: independent moves interleave, moves on a shared
      action synchronize pairwise under PEPA's apparent-rate semantics
      (the cooperation proceeds at the minimum of the two apparent
      rates; passive participants split it by weight).

   The generator is assembled directly in CSR through
   {!Sharpe_numerics.Sparse.of_rows} — per-row adjacency, duplicates
   summed, diagonal derived — so no dense n x n matrix and no global
   triplet list ever exists, and a large cooperation flows straight
   into the Krylov solver tier. *)

module Sparse = Sharpe_numerics.Sparse

open Ast

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let default_max_states = 200_000

(* a transition's rate: active, or passive with a weight *)
type rk = Act of float | Pass of float

type t = {
  n : int;  (* reachable global states; state 0 is the initial state *)
  q : Sparse.t;  (* CSR generator, diagonal included *)
  states : int array array;  (* global state -> per-leaf local index *)
  leaf_names : string array array;  (* per leaf: local state names *)
  actions : string array;  (* action id -> name; hidden moves become tau *)
  act_rates : (int * float) list array;
      (* per action id: (state, total rate of that action out of the
         state), self-loops included — the throughput data *)
}

(* --- rate evaluation ------------------------------------------------- *)

let eval_rexpr resolve e =
  let rec go = function
    | Num f -> f
    | Var (v, pos) -> (
        match resolve v with
        | Some f -> f
        | None ->
            fail "line %d, col %d: unknown rate identifier %s" pos.line
              (pos.col + 1) v)
    | Add (a, b) -> go a +. go b
    | Sub (a, b) -> go a -. go b
    | Mul (a, b) -> go a *. go b
    | Div (a, b) ->
        let d = go b in
        if d = 0.0 then fail "division by zero in a rate expression";
        go a /. d
  in
  go e

(* --- composition tree ------------------------------------------------ *)

type 'leaf tree =
  | TLeaf of 'leaf
  | TCoop of 'leaf tree * int list * 'leaf tree  (* action ids *)
  | THide of 'leaf tree * int list

(* local LTS of one sequential component *)
type lts = {
  l_names : string array;
  l_trans : (int * int * rk) list array;  (* (action id, target, rate) *)
}

let derive ~resolve (m : model) : t =
  let max_states = Option.value m.max_states ~default:default_max_states in
  let defs = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace defs d.d_name d.d_rhs) m.defs;
  let rhs c =
    match Hashtbl.find_opt defs c with
    | Some p -> p
    | None -> fail "undefined constant %s" c
  in
  let eval e = eval_rexpr resolve e in
  let rate act = function
    | Active e ->
        let r = eval e in
        if not (Float.is_finite r) || r <= 0.0 then
          fail "rate of action %s must be a positive finite number (got %s)"
            act (Ast.pp_float r);
        Act r
    | Passive None -> Pass 1.0
    | Passive (Some w) ->
        let v = eval w in
        if not (Float.is_finite v) || v <= 0.0 then
          fail "passive weight of action %s must be positive (got %s)" act
            (Ast.pp_float v);
        Pass v
  in
  (* action interning; "tau" is the hidden label *)
  let action_ids = Hashtbl.create 16 in
  let action_names = ref [] and n_actions = ref 0 in
  let action_id a =
    match Hashtbl.find_opt action_ids a with
    | Some i -> i
    | None ->
        let i = !n_actions in
        Hashtbl.replace action_ids a i;
        action_names := a :: !action_names;
        incr n_actions;
        i
  in
  let tau = action_id "tau" in
  (* 1. expand model-level constants into the composition tree *)
  let rec has_comp = function
    | Stop | Const _ -> false
    | Prefix (_, _, k) -> has_comp k
    | Choice (a, b) -> has_comp a || has_comp b
    | Coop _ | Hide _ -> true
  in
  let nonseq = Hashtbl.create 8 in
  List.iter
    (fun d -> if has_comp d.d_rhs then Hashtbl.replace nonseq d.d_name ())
    m.defs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        if not (Hashtbl.mem nonseq d.d_name) then
          Wellformed.iter_consts
            (fun c _ ->
              if Hashtbl.mem nonseq c && not (Hashtbl.mem nonseq d.d_name)
              then begin
                Hashtbl.replace nonseq d.d_name ();
                changed := true
              end)
            d.d_rhs)
      m.defs
  done;
  let rec expand depth p =
    if depth > 10_000 then fail "model-level constant expansion does not terminate";
    match p with
    | Const (c, _) when Hashtbl.mem nonseq c -> expand (depth + 1) (rhs c)
    | Coop (a, l, b) ->
        TCoop (expand depth a, List.map action_id l, expand depth b)
    | Hide (p, l) -> THide (expand depth p, List.map action_id l)
    | p -> TLeaf p
  in
  let tree = expand 0 m.system in
  (* 2. leaf local transition systems *)
  let seq_moves term =
    (* one-step moves of a sequential derivative, unfolding constants *)
    let rec go depth t =
      if depth > 10_000 then fail "unguarded recursion detected during derivation";
      match t with
      | Stop -> []
      | Const (c, _) -> go (depth + 1) (rhs c)
      | Prefix (a, r, k) -> [ (action_id a, rate a r, k) ]
      | Choice (p, q) -> go depth p @ go depth q
      | Coop _ | Hide _ ->
          fail "cooperation inside a sequential component (run wellformedness \
                checks first)"
    in
    go 0 term
  in
  let derive_leaf term =
    let idx = Hashtbl.create 16 in
    let names = ref [] and count = ref 0 in
    let trans_tbl = Hashtbl.create 16 in
    let rec visit t =
      let name = Ast.term_name t in
      match Hashtbl.find_opt idx name with
      | Some i -> i
      | None ->
          let i = !count in
          incr count;
          Hashtbl.replace idx name i;
          names := name :: !names;
          let ms =
            List.map (fun (a, r, k) -> (a, visit k, r)) (seq_moves t)
          in
          Hashtbl.replace trans_tbl i ms;
          i
    in
    ignore (visit term);
    let n = !count in
    let l_names = Array.make n "" in
    List.iteri (fun k name -> l_names.(n - 1 - k) <- name) !names;
    let l_trans =
      Array.init n (fun i ->
          match Hashtbl.find_opt trans_tbl i with Some l -> l | None -> [])
    in
    { l_names; l_trans }
  in
  (* collect leaves left-to-right; leaf k's initial local state is 0 *)
  let leaves = ref [] and n_leaves = ref 0 in
  let rec index_tree = function
    | TLeaf p ->
        let k = !n_leaves in
        incr n_leaves;
        leaves := derive_leaf p :: !leaves;
        TLeaf k
    | TCoop (a, l, b) ->
        let a = index_tree a in
        let b = index_tree b in
        TCoop (a, l, b)
    | THide (p, l) -> THide (index_tree p, l)
  in
  let itree = index_tree tree in
  let leaves = Array.of_list (List.rev !leaves) in
  let nl = Array.length leaves in
  (* 3. global BFS.  A move is (action id, rate kind, leaf updates). *)
  let rec node_moves node (gs : int array) =
    match node with
    | TLeaf k ->
        List.map
          (fun (a, tgt, r) -> (a, r, [ (k, tgt) ]))
          leaves.(k).l_trans.(gs.(k))
    | THide (p, l) ->
        List.map
          (fun (a, r, u) -> ((if List.mem a l then tau else a), r, u))
          (node_moves p gs)
    | TCoop (p, l, q) ->
        let mp = node_moves p gs and mq = node_moves q gs in
        let indep =
          List.filter (fun (a, _, _) -> not (List.mem a l)) mp
          @ List.filter (fun (a, _, _) -> not (List.mem a l)) mq
        in
        let sync =
          List.concat_map
            (fun a ->
              let pa = List.filter (fun (x, _, _) -> x = a) mp in
              let qa = List.filter (fun (x, _, _) -> x = a) mq in
              if pa = [] || qa = [] then []
              else begin
                (* apparent rate of a on each side *)
                let apparent ms =
                  List.fold_left
                    (fun (ra, wa) (_, r, _) ->
                      match r with
                      | Act x -> (ra +. x, wa)
                      | Pass w -> (ra, wa +. w))
                    (0.0, 0.0) ms
                in
                let ra_p, wa_p = apparent pa and ra_q, wa_q = apparent qa in
                if (ra_p > 0.0 && wa_p > 0.0) || (ra_q > 0.0 && wa_q > 0.0)
                then
                  fail
                    "component mixes active and passive rates on action %s"
                    (List.nth (List.rev !action_names) a);
                List.concat_map
                  (fun (_, r1, u1) ->
                    List.map
                      (fun (_, r2, u2) ->
                        let r =
                          match (r1, r2) with
                          | Act x, Act y ->
                              Act
                                (x /. ra_p *. (y /. ra_q)
                                *. Float.min ra_p ra_q)
                          | Act x, Pass w -> Act (x *. (w /. wa_q))
                          | Pass w, Act y -> Act (y *. (w /. wa_p))
                          | Pass w1, Pass w2 ->
                              Pass
                                (w1 /. wa_p *. (w2 /. wa_q)
                                *. Float.min wa_p wa_q)
                        in
                        (a, r, u1 @ u2))
                      qa)
                  pa
              end)
            l
        in
        indep @ sync
  in
  let states = Hashtbl.create 1024 in
  let state_list = ref [] and n_states = ref 0 in
  let trans_rev = ref [] in  (* per state, reverse discovery order *)
  let queue = Queue.create () in
  let intern gs =
    match Hashtbl.find_opt states gs with
    | Some i -> i
    | None ->
        if !n_states >= max_states then
          fail
            "state space exceeds the cap of %d states (raise it with a \
             'maxstates N' line in the pepa block)"
            max_states;
        let i = !n_states in
        incr n_states;
        Hashtbl.replace states gs i;
        state_list := gs :: !state_list;
        Queue.add (i, gs) queue;
        i
  in
  let init = Array.make nl 0 in
  ignore (intern init);
  while not (Queue.is_empty queue) do
    let i, gs = Queue.take queue in
    let moves = node_moves itree gs in
    let out =
      List.map
        (fun (a, r, u) ->
          let rate =
            match r with
            | Act x -> x
            | Pass _ ->
                fail
                  "passive action %s of the system is never synchronized \
                   with an active partner"
                  (List.nth (List.rev !action_names) a)
          in
          let gs' = Array.copy gs in
          List.iter (fun (k, tgt) -> gs'.(k) <- tgt) u;
          (a, intern gs', rate))
        moves
    in
    trans_rev := (i, out) :: !trans_rev
  done;
  let n = !n_states in
  let trans = Array.make n [] in
  List.iter (fun (i, out) -> trans.(i) <- out) !trans_rev;
  (* 4. CSR generator: off-diagonals plus derived diagonal, one row at a
     time; of_rows sums duplicates and drops explicit zeros.  Self-loops
     leave the state unchanged, so they stay out of both the diagonal
     total and the entries (summing them in cancels only up to rounding,
     which can leave a positive diagonal); they still count in the
     per-action throughput data below. *)
  let q =
    let nnz = Array.fold_left (fun acc out -> acc + 1 + List.length out) 0 trans in
    Sparse.of_rows ~nnz ~rows:n ~cols:n (fun i emit ->
        let out = List.filter (fun (_, j, _) -> j <> i) trans.(i) in
        let total = List.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 out in
        emit i (-.total);
        List.iter (fun (_, j, r) -> emit j r) out)
  in
  let state_arr = Array.make (max n 1) [||] in
  List.iteri (fun k gs -> state_arr.(n - 1 - k) <- gs) !state_list;
  let state_arr = Array.sub state_arr 0 n in
  (* per-action throughput data *)
  let acc = Array.make !n_actions [] in
  Array.iteri
    (fun i out ->
      let per = Hashtbl.create 4 in
      List.iter
        (fun (a, _, r) ->
          Hashtbl.replace per a
            (r +. (try Hashtbl.find per a with Not_found -> 0.0)))
        out;
      Hashtbl.iter (fun a r -> acc.(a) <- (i, r) :: acc.(a)) per)
    trans;
  let actions = Array.of_list (List.rev !action_names) in
  {
    n;
    q;
    states = state_arr;
    leaf_names = Array.map (fun l -> l.l_names) leaves;
    actions;
    act_rates = acc;
  }
