(* Structural solve cache for SRN/GSPN models.

   A parameter sweep (`loop c, ... { expr srn_exrt(t, net; r; c) }`)
   bumps the environment version on every iteration, so the per-version
   instance cache in [Builtins.instantiate] rebuilds and re-solves the
   net from scratch each time — O(sweep x full-solve).  Almost all of
   that work only depends on the net's STRUCTURE, which the sweep does
   not change:

   - the reachability skeleton (marking set, tangible/vanishing
     partition, successor graph) depends on places, initial tokens,
     arcs and their cardinalities, guards, priorities and transition
     kinds — never on rate values;
   - the solved instance (skeleton + CTMC + accumulated measure caches)
     additionally depends on the rate/weight value of every edge.

   This module computes a canonical STRUCTURAL KEY for a net being
   built: the evaluated places and priorities, the arc lists, and the
   guard/cardinality expression ASTs together with the transitive
   closure of their free identifiers' current definitions (values for
   bound constants and model parameters, ASTs for `var` expressions and
   functions).  Rate expressions are deliberately excluded — they are
   the parameter half, re-evaluated every iteration.

   Keying discipline: anything that can change which markings are
   reachable or which transitions are enabled must be in the key;
   anything that only scales rates must not be.  When a guard or
   cardinality calls something whose behaviour we cannot pin down
   symbolically (an analysis builtin, an undefined name), the net is
   treated as UNCACHEABLE and solved cold — correctness first.

   Two tables sit behind the key, both domain-local (see Structhash):

   - "srn_skeleton": structural key -> reachability skeleton.  A hit
     skips state-space exploration; edge rates are re-evaluated.
   - "srn_instance": structural key + bit-exact edge weights -> the
     fully solved Srn.t.  A hit returns the same instance, preserving
     its accumulated steady-state/transient caches across iterations of
     an enclosing time loop.

   Soundness of the instance cache: a lookup recomputes the key from
   the CURRENT environment, so a hit certifies that every binding the
   net's guards and cardinalities can observe, and the rate value at
   every reachable marking, are identical to when the instance was
   cached — the cached net closures therefore evaluate exactly like the
   fresh ones would. *)

open Ast
module Structhash = Sharpe_numerics.Structhash
module Reach = Sharpe_petri.Reach
module Srn = Sharpe_petri.Srn
module Net = Sharpe_petri.Net

exception Uncacheable

(* Builtins that may appear inside guard/cardinality expressions and are
   pure functions of their (serialized) arguments and the marking. *)
let pure_builtins =
  [ "acos"; "asin"; "atan"; "ceil"; "cos"; "fabs"; "floor"; "ln"; "log";
    "exp"; "sin"; "sqrt"; "tan"; "min"; "max"; "weibull"; "Rate" ]

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Pow -> 4 | BAnd -> 5
  | BOr -> 6 | BEq -> 7 | BNeq -> 8 | BLt -> 9 | BGt -> 10 | BLe -> 11
  | BGe -> 12

(* Serialize an expression AST (shape only; free identifiers are pinned
   separately by [close_over]). *)
let rec add_expr b e =
  match e with
  | Num x ->
      Structhash.add_string b "n";
      Structhash.add_float b x
  | Ident n ->
      Structhash.add_string b "v";
      Structhash.add_string b n
  | Call (f, groups) ->
      Structhash.add_string b "c";
      Structhash.add_string b f;
      Structhash.add_list b (fun b g -> Structhash.add_list b add_expr g) groups
  | Binop (op, x, y) ->
      Structhash.add_string b "o";
      Structhash.add_int b (binop_tag op);
      add_expr b x;
      add_expr b y
  | Neg e ->
      Structhash.add_string b "-";
      add_expr b e
  | Not e ->
      Structhash.add_string b "!";
      add_expr b e
  | TokCount p ->
      Structhash.add_string b "#";
      Structhash.add_string b p
  | Enabled t ->
      Structhash.add_string b "?";
      Structhash.add_string b t
  | Tmpl parts ->
      Structhash.add_string b "$";
      Structhash.add_list b
        (fun b -> function
          | Lit s ->
              Structhash.add_string b "l";
              Structhash.add_string b s
          | Sub e ->
              Structhash.add_string b "e";
              add_expr b e)
        parts

(* Statement-bodied functions are callable from guards and cardinalities
   (the ATM net of thesis §2.4.7 does exactly this).  Inside a function
   [SBind] writes the function-LOCAL table, so bind/if/expr bodies are
   pure functions of the marking and their free identifiers and can be
   serialized like expressions; statement forms that write shared state
   (var/func/model definitions, loops, format/epsilon/switch) stay
   uncacheable. *)
let rec add_stmt b s =
  match s with
  | SBind (n, e, _) ->
      Structhash.add_string b "sb";
      Structhash.add_string b n;
      add_expr b e
  | SExpr items ->
      Structhash.add_string b "se";
      Structhash.add_list b
        (fun b (_, e) -> add_expr b e)
        items
  | SEcho _ -> Structhash.add_string b "sh"
  | SIf (clauses, els) ->
      Structhash.add_string b "si";
      Structhash.add_list b
        (fun b (c, ss) ->
          add_expr b c;
          Structhash.add_list b add_stmt ss)
        clauses;
      Structhash.add_list b add_stmt els
  | SVar _ | SFunc _ | SModel _ | SWhile _ | SLoop _ | SFormat _
  | SEpsilon _ | SSwitch _ ->
      raise Uncacheable

let add_fbody b = function
  | FExpr e ->
      Structhash.add_string b "fe";
      add_expr b e
  | FStmts ss ->
      Structhash.add_string b "fs";
      Structhash.add_list b add_stmt ss

(* Append the definitions of every free identifier reachable from [e] to
   the key: locals (model parameters, loop variables of sum) pin their
   VALUE; environment bindings pin value / var-AST / function-AST and
   recurse.  [bound] are names bound inside the expression itself. *)
let close_over (ctx : Eval.ctx) b visited e =
  let rec go bound e =
    match e with
    | Num _ | TokCount _ | Enabled _ -> ()
    | Neg e | Not e -> go bound e
    | Binop (_, x, y) ->
        go bound x;
        go bound y
    | Tmpl parts ->
        List.iter (function Lit _ -> () | Sub e -> go bound e) parts
    | Ident n -> free bound n
    | Call ("sum", [ [ Ident v; lo; hi; body ] ]) ->
        go bound lo;
        go bound hi;
        go (v :: bound) body
    | Call (f, groups) ->
        let user_func =
          match Hashtbl.find_opt ctx.env.table f with
          | Some (Eval.Func _) -> true
          | _ -> false
        in
        if user_func then free bound f
        else if not (List.mem f pure_builtins) then raise Uncacheable;
        List.iter (List.iter (go bound)) groups
  (* Definitely-assigned walk over a function body: a name [bind]-ed on
     every path to a read is function-local (never reaches the
     environment), anything else read is a free identifier to pin.
     Returns the names definitely assigned after the statements. *)
  and go_stmts bound ss = List.fold_left go_stmt bound ss
  and go_stmt bound s =
    match s with
    | SBind (n, e, _) ->
        go bound e;
        n :: bound
    | SExpr items ->
        List.iter (fun (_, e) -> go bound e) items;
        bound
    | SEcho _ -> bound
    | SIf (clauses, els) ->
        List.iter (fun (c, _) -> go bound c) clauses;
        let outs =
          go_stmts bound els
          :: List.map (fun (_, ss) -> go_stmts bound ss) clauses
        in
        (* only names assigned on EVERY branch are definitely assigned *)
        List.filter
          (fun n -> List.for_all (fun out -> List.mem n out) outs)
          (List.concat outs)
    | SVar _ | SFunc _ | SModel _ | SWhile _ | SLoop _ | SFormat _
    | SEpsilon _ | SSwitch _ ->
        raise Uncacheable
  and free bound n =
    if List.mem n bound || Hashtbl.mem visited n then ()
    else begin
      Hashtbl.add visited n ();
      Structhash.add_string b "def";
      Structhash.add_string b n;
      match Eval.lookup_local ctx n with
      | Some v -> Structhash.add_float b v
      | None -> (
          match Hashtbl.find_opt ctx.env.table n with
          | Some (Eval.Val v) -> Structhash.add_float b v
          | Some (Eval.VarExpr e) ->
              Structhash.add_string b "x";
              add_expr b e;
              go [] e
          | Some (Eval.Func (params, body)) ->
              Structhash.add_string b "f";
              Structhash.add_list b Structhash.add_string params;
              add_fbody b body;
              (match body with
              | FExpr e -> go params e
              | FStmts ss -> ignore (go_stmts params ss))
          | Some (Eval.Model _) | None -> raise Uncacheable)
    end
  in
  go [] e

(* Structural key of an SRN being built.  [places] carries the evaluated
   initial token counts; guard, cardinality and priority expressions come
   from the AST.  Returns [None] when the structure cannot be pinned. *)
let srn_key (ctx : Eval.ctx) ~places ~timed ~immediate ~inputs ~outputs
    ~inhibitors =
  try
    let b = Structhash.builder "srn" in
    let visited = Hashtbl.create 16 in
    let add_opt_expr tag = function
      | None -> Structhash.add_string b "-"
      | Some e ->
          Structhash.add_string b tag;
          add_expr b e;
          close_over ctx b visited e
    in
    Structhash.add_list b
      (fun b (n, k) ->
        Structhash.add_string b n;
        Structhash.add_int b k)
      places;
    let add_trans kind (tr : srn_trans) =
      Structhash.add_string b kind;
      Structhash.add_string b tr.st_name;
      add_opt_expr "g" tr.st_guard;
      (* evaluated: priorities order structurally-enabled transitions *)
      Structhash.add_int b
        (match tr.st_priority with
        | Some e -> int_of_float (Float.round (Eval.eval_expr ctx e))
        | None -> 0)
    in
    List.iter (add_trans "T") timed;
    List.iter (add_trans "I") immediate;
    let add_arc (a, c, card) =
      Structhash.add_string b a;
      Structhash.add_string b c;
      add_expr b card;
      close_over ctx b visited card
    in
    Structhash.add_string b "in";
    List.iter add_arc inputs;
    Structhash.add_string b "out";
    List.iter add_arc outputs;
    Structhash.add_string b "inh";
    List.iter add_arc inhibitors;
    Some (Structhash.finish b)
  with Uncacheable -> None

(* --- the two cache tables --------------------------------------------- *)

(* Skeletons are immutable, so the table is process-shared (one mutex):
   a skeleton explored while serving one evaluation-server request is a
   hit for every later request on any worker domain.  The instance table
   stays domain-local — a solved Srn.t carries mutable measure caches
   that must never be touched by two domains. *)
let skeleton_cache : Reach.skeleton Structhash.Table.t =
  Structhash.Table.create ~shared:true "srn_skeleton"

let instance_cache : Srn.t Structhash.Table.t =
  Structhash.Table.create "srn_instance"

(* Solve [net] reusing cached intermediates filed under [key].  The
   skeleton hit skips exploration; the instance hit additionally demands
   bit-identical edge weights and returns the previously solved instance
   (with its accumulated measure caches).  On an instance miss the weights
   computed for the key are the ones the solve uses: every rate closure
   runs once per edge per lookup. *)
let solve_srn ~key net =
  let sk =
    Structhash.Table.find_or_add skeleton_cache key (fun () ->
        Reach.explore_skeleton net)
  in
  let w = Reach.edge_weights net sk in
  let b = Structhash.builder "srn-inst" in
  Structhash.add_string b key;
  Structhash.add_array b
    (fun b row -> Structhash.add_array b Structhash.add_float row)
    w;
  let ikey = Structhash.finish b in
  Structhash.Table.find_or_add instance_cache ikey (fun () ->
      Srn.solve ~skeleton:sk ~weights:w net)

(* --- PEPA models ------------------------------------------------------- *)

(* A PEPA model's reachable state space never depends on rate VALUES
   (well-formedness requires every rate positive), so the only inputs
   to a compile are the canonical AST and the current value of each
   free rate identifier.  The cached instance carries the compiled
   derivation, the CTMC, and the accumulated steady-state cache — a
   sweep that rebinds a rate re-derives only when the value actually
   changed, and a time loop at fixed rates reuses the solved chain. *)

module Pepa_ast = Sharpe_pepa.Ast

let pepa_free_vars (past : Pepa_ast.model) =
  let acc = ref [] in
  let rec rexpr (e : Pepa_ast.rexpr) =
    match e with
    | Pepa_ast.Num _ -> ()
    | Pepa_ast.Var (v, _) -> acc := v :: !acc
    | Pepa_ast.Add (a, b) | Pepa_ast.Sub (a, b)
    | Pepa_ast.Mul (a, b) | Pepa_ast.Div (a, b) ->
        rexpr a;
        rexpr b
  in
  let rate (r : Pepa_ast.rate) =
    match r with
    | Pepa_ast.Active e -> rexpr e
    | Pepa_ast.Passive (Some w) -> rexpr w
    | Pepa_ast.Passive None -> ()
  in
  let rec proc (p : Pepa_ast.proc) =
    match p with
    | Pepa_ast.Stop | Pepa_ast.Const _ -> ()
    | Pepa_ast.Prefix (_, r, k) ->
        rate r;
        proc k
    | Pepa_ast.Choice (a, b) | Pepa_ast.Coop (a, _, b) ->
        proc a;
        proc b
    | Pepa_ast.Hide (p, _) -> proc p
  in
  List.iter (fun (d : Pepa_ast.def) -> proc d.d_rhs) past.defs;
  proc past.system;
  List.sort_uniq compare !acc

let pepa_key (ctx : Eval.ctx) (past : Pepa_ast.model) =
  try
    let b = Structhash.builder "pepa" in
    Structhash.add_string b (Pepa_ast.pp_model past);
    List.iter
      (fun v ->
        Structhash.add_string b v;
        let x =
          try Eval.eval_expr ctx (Ident v)
          with Eval.Error _ -> raise Uncacheable
        in
        Structhash.add_float b x)
      (pepa_free_vars past);
    Some (Structhash.finish b)
  with Uncacheable -> None

let pepa_cache : Eval.pepa_inst Structhash.Table.t =
  Structhash.Table.create "pepa_instance"

let solve_pepa ~key build = Structhash.Table.find_or_add pepa_cache key build
