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

   Key.  The STRUCTURAL KEY of a net being built is a plain value, the
   [key] record, compared structurally: the evaluated places and
   priorities, the arc lists, and the guard/cardinality expression ASTs
   together with the transitive closure of their free identifiers'
   current definitions ([close_over]: values for bound constants, loop
   variables and model parameters, ASTs for `var` expressions and
   functions).

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

(* A free identifier's definition, as [close_over] pins it.  A value
   goes in as its bit pattern, because [compare] counts [0.] and [-0.]
   equal (a guard [1/z > 0] tells them apart); a var expression or a
   function goes in as its AST, whose literals the lexer makes unsigned,
   so comparing ASTs compares bits. *)
type def = Value of int64 | Var of expr | Func of string list * fbody

(* a local (model parameter, loop variable of sum) or a global binding *)
type pin = Local of string * int64 | Global of string * def

type key = {
  places : (string * int) list;
  timed : (string * expr option * int) list;  (* name, guard, priority *)
  immediate : (string * expr option * int) list;
  inputs : (string * string * expr) list;
  outputs : (string * string * expr) list;
  inhibitors : (string * string * expr) list;
  pins : pin list;  (* in reverse visit order *)
}

(* Push the definitions of every free identifier reachable from [e] onto
   [pins]: locals (model parameters, loop variables of sum) pin their
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
let close_over (ctx : Eval.ctx) pins visited e =
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
        (* a pure builtin is a function of its (pinned) arguments *)
        | _ -> (
            match !Eval.builtin f with Some { pure = true; _ } -> () | _ -> raise Uncacheable));
        List.iter (List.iter (go outer bound)) groups
  (* Definitely-assigned walk over a function body: a name [bind]-ed on
     every path to a read is function-local (never reaches the
     environment), anything else read is a free identifier to pin.
     Returns the names definitely assigned after the statements.
     Statement-bodied functions are callable from guards and
     cardinalities (the ATM net of thesis §2.4.7 does exactly this); a
     bind/if/expr body is a pure function of the marking and its free
     identifiers, and statement forms that write shared state stay
     uncacheable. *)
  and go_stmts bound ss = List.fold_left go_stmt bound ss
  and go_bind bound (n, e) =
    go false bound e;
    n :: bound
  and go_stmt bound s =
    match s with
    | SBind (`Single b) -> go_bind bound b
    | SBind (`Block bs) -> List.fold_left go_bind bound bs
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
        let pin def = pins := Global (n, def) :: !pins in
        match local with
        | Some v -> pins := Local (n, Int64.bits_of_float v) :: !pins
        | None -> (
            match Eval.global ctx n with
            | Some (Eval.Val v) -> pin (Value (Int64.bits_of_float v))
            | Some (Eval.VarExpr e) ->
                pin (Var e);
                go false [] e
            | Some (Eval.Func (params, body)) ->
                pin (Func (params, body));
                (match body with
                | FExpr e -> go false params e
                | FStmts ss -> ignore (go_stmts params ss))
            | Some (Eval.Model _) | None -> raise Uncacheable)
      end
    end
  in
  go true [] e

(* The global bindings the reward function [name] can read, absent
   names included, as they are now; [None] where [close_over] cannot pin
   its definition down: it calls a measure or Rate(), or reads a model or
   an undefined name. *)
let reward_reads (ctx : Eval.ctx) name =
  let frame = Eval.open_frame () in
  let pin = { ctx with frame = Some frame } in
  match close_over pin (ref []) (Hashtbl.create 8) (Call (name, [])) with
  | () -> Some (Array.of_seq (Hashtbl.to_seq frame.read))
  | exception Uncacheable -> None

(* The structural key of an SRN being built.  [places] carries the
   evaluated initial token counts; guard, cardinality and priority
   expressions come from the AST.  [None] when the structure cannot be
   pinned. *)
let srn_key (ctx : Eval.ctx) ~places ~timed ~immediate ~inputs ~outputs
    ~inhibitors =
  let pins = ref [] and visited = Hashtbl.create 16 in
  let pinned e = close_over ctx pins visited e in
  let trans (tr : srn_trans) =
    Option.iter pinned tr.st_guard;
    (* evaluated: priorities order structurally-enabled transitions *)
    ( tr.st_name,
      tr.st_guard,
      match tr.st_priority with
      | Some e -> int_of_float (Float.round (Eval.eval_expr ctx e))
      | None -> 0 )
  in
  let arcs = List.iter (fun (_, _, card) -> pinned card) in
  try
    let timed = List.map trans timed in
    let immediate = List.map trans immediate in
    arcs inputs;
    arcs outputs;
    arcs inhibitors;
    Some { places; timed; immediate; inputs; outputs; inhibitors; pins = !pins }
  with Uncacheable -> None

(* Domain-local, like every Structhash table.  Skeletons are immutable
   and could be shared, but no workload gains from it: a sweep's domains
   miss together when the loop fans out, and an evaluation-server worker
   explores a structure at most once more than a shared table would. *)
let skeleton_cache : (key, Reach.skeleton) Structhash.Table.t =
  Structhash.Table.create "srn_skeleton"

(* Solve [net] on the skeleton filed under [key] while it still fits the
   current rates (one that no longer does is explored again and counts as
   a miss).  Either way the edges are weighed once, exploration included,
   and those weights are the ones the solve uses. *)
let solve_srn ~key net =
  let w = ref [||] in
  let explore () =
    let sk, weights = Reach.explore net in
    w := weights;
    sk
  in
  let fits sk =
    w := Reach.edge_weights net sk;
    Reach.fits net sk !w
  in
  let sk = Structhash.Table.find_or_add skeleton_cache key ~valid:fits explore in
  Srn.solve ~skeleton:sk ~weights:!w net
