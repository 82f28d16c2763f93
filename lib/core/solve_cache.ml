(* Structural solve cache for SRN/GSPN models.

   The instance cache in [Builtins.instantiate] rebuilds a net whenever a
   binding its build read has changed: in a parameter sweep
   (`loop c, ... { expr srn_exrt(t, net; r; c) }`) once per value of c.
   The most expensive part of that rebuild, the reachability skeleton
   (marking set, tangible/vanishing partition, successor graph), depends
   only on the net's STRUCTURE, which the sweep does not change: places,
   initial tokens, arcs and their cardinalities, guards, priorities and
   transition kinds — and on rates only through which of them are 0.  A
   solved instance, with its accumulated measure caches, is the instance
   cache's to keep; this module keeps the skeletons.

   Key.  The STRUCTURAL KEY of a net being built holds the evaluated
   places and priorities, the arc lists, and the guard/cardinality
   expression ASTs together with the transitive closure of their free
   identifiers' current definitions ([close_over]: values for bound
   constants, loop variables and model parameters, ASTs for `var`
   expressions and functions).

   Keying discipline: anything that can change which markings are
   reachable or which transitions are enabled must be in the structural
   key; anything that only scales rates must not be.  When a guard or
   cardinality calls something whose behaviour cannot be pinned down
   symbolically (an analysis builtin, an undefined name), the net is
   UNCACHEABLE and solved cold — correctness first.

   Zero rates.  Exploration leaves a timed transition out where its rate
   is not positive, so the one way a rate reaches the skeleton is by
   being 0: a skeleton explored at L = 0 lacks every marking only an
   L-transition reaches.  A skeleton therefore records the (marking,
   transition) pairs it left out for that reason, and a cached skeleton
   stands only while it [Reach.fits] the current rates — every timed
   edge still positive, every recorded pair still not.

   One table, "srn_skeleton", domain-local (see Structhash): structural
   key -> reachability skeleton.  A hit that still fits skips state-space
   exploration; the edges are weighed on every lookup, so the solve sees
   the current rates.

   Soundness: a lookup recomputes the key from the CURRENT environment.
   A hit certifies that every binding the net's guards and cardinalities
   can observe is what it was when the skeleton was filed, and [fits]
   that no rate moved across 0, so exploring now would give the same
   skeleton. *)

open Ast
module Structhash = Sharpe_numerics.Structhash
module Reach = Sharpe_petri.Reach
module Srn = Sharpe_petri.Srn

exception Uncacheable

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
   recurse.  [bound] are names bound inside the expression itself.

   Names resolve the way the evaluator resolves them.  In [e] itself a
   name is read from the locals first ([outer]); a function body sees
   only its own parameters and binds, and a var expression none, so
   every other name there is read from the environment even where a
   local of the same name exists.  A called function's name is always
   looked up in the environment, whatever is bound locally.  [visited] records each definition
   pinned, by name and by whether it was a local's.

   Every environment lookup is a read of the build in progress
   ([Eval.global]), so the instance is filed under the bindings its
   guards and cardinalities read even where no marking evaluates them. *)
let close_over (ctx : Eval.ctx) b visited e =
  let rec go outer bound e =
    match e with
    | Num _ | TokCount _ | Enabled _ -> ()
    | Neg e | Not e -> go outer bound e
    | Binop (_, x, y) ->
        go outer bound x;
        go outer bound y
    | Tmpl parts ->
        List.iter (function Lit _ -> () | Sub e -> go outer bound e) parts
    | Ident n -> free outer bound n
    | Call ("sum", [ [ Ident v; lo; hi; body ] ]) ->
        go outer bound lo;
        go outer bound hi;
        go outer (v :: bound) body
    | Call (f, groups) ->
        (match Eval.global ctx f with
        | Some (Eval.Func _) -> free false [] f
        (* any binding named exp shadows the builtin (Eval.eval_call) *)
        | Some _ when f = "exp" -> raise Uncacheable
        (* a pure builtin is a function of its (serialized) arguments *)
        | _ -> (
            match !Eval.builtin f with Some { pure = true; _ } -> () | _ -> raise Uncacheable));
        List.iter (List.iter (go outer bound)) groups
  (* Definitely-assigned walk over a function body: a name [bind]-ed on
     every path to a read is function-local (never reaches the
     environment), anything else read is a free identifier to pin.
     Returns the names definitely assigned after the statements. *)
  and go_stmts bound ss = List.fold_left go_stmt bound ss
  and go_stmt bound s =
    match s with
    | SBind (n, e, _) ->
        go false bound e;
        n :: bound
    | SExpr items ->
        List.iter (fun (_, e) -> go false bound e) items;
        bound
    | SEcho _ -> bound
    | SIf (clauses, els) ->
        List.iter (fun (c, _) -> go false bound c) clauses;
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
  and free outer bound n =
    if not (List.mem n bound) then begin
      let local = if outer then Eval.lookup_local ctx n else None in
      let id = (Option.is_some local, n) in
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        match local with
        | Some v ->
            Structhash.add_string b "local";
            Structhash.add_string b n;
            Structhash.add_float b v
        | None -> (
            Structhash.add_string b "def";
            Structhash.add_string b n;
            match Eval.global ctx n with
            | Some (Eval.Val v) -> Structhash.add_float b v
            | Some (Eval.VarExpr e) ->
                Structhash.add_string b "x";
                add_expr b e;
                go false [] e
            | Some (Eval.Func (params, body)) ->
                Structhash.add_string b "f";
                Structhash.add_list b Structhash.add_string params;
                add_fbody b body;
                (match body with
                | FExpr e -> go false params e
                | FStmts ss -> ignore (go_stmts params ss))
            | Some (Eval.Model _) | None -> raise Uncacheable)
      end
    end
  in
  go true [] e

(* The structural key of an SRN being built.  [places] carries the
   evaluated initial token counts; guard, cardinality and priority
   expressions come from the AST.  [None] when the structure cannot be
   pinned. *)
let srn_key (ctx : Eval.ctx) ~places ~timed ~immediate ~inputs ~outputs
    ~inhibitors =
  try
    let b = Structhash.builder "srn" in
    let visited = Hashtbl.create 16 in
    let add_pinned e =
      add_expr b e;
      close_over ctx b visited e
    in
    let add_opt_expr tag = function
      | None -> Structhash.add_string b "-"
      | Some e ->
          Structhash.add_string b tag;
          add_pinned e
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
      add_pinned card
    in
    Structhash.add_string b "in";
    List.iter add_arc inputs;
    Structhash.add_string b "out";
    List.iter add_arc outputs;
    Structhash.add_string b "inh";
    List.iter add_arc inhibitors;
    Some (Structhash.finish b)
  with Uncacheable -> None

(* Domain-local, like every Structhash table.  Skeletons are immutable
   and could be shared, but no workload gains from it: a sweep's domains
   miss together when the loop fans out, and an evaluation-server worker
   explores a structure at most once more than a shared table would. *)
let skeleton_cache : Reach.skeleton Structhash.Table.t =
  Structhash.Table.create "srn_skeleton"

(* Solve [net] on the skeleton filed under [key] while it still fits the
   current rates (one that no longer does is explored again and counts as
   a miss).  Either way the edges are weighed once, and those weights are
   the ones the solve uses. *)
let solve_srn ~key net =
  let w = ref [||] in
  let explore () =
    let sk = Reach.explore_skeleton net in
    w := Reach.edge_weights net sk;
    sk
  in
  let fits sk =
    w := Reach.edge_weights net sk;
    Reach.fits net sk !w
  in
  let sk = Structhash.Table.find_or_add skeleton_cache key ~valid:fits explore in
  Srn.solve ~skeleton:sk ~weights:!w net
