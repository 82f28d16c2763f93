(** Structural solve cache for SRN/GSPN models.

    A parameter sweep rebuilds a net whenever it rebinds a name the
    net's build read.  This module keys the reachability skeleton of an
    SRN solve by the net's STRUCTURE — everything that can change which
    markings are reachable or which transitions are enabled (places,
    initial tokens, arcs, cardinality and guard ASTs plus the transitive
    definitions of their free identifiers, priorities, transition kinds)
    — and deliberately excludes rate expressions, which are the
    per-iteration parameters.

    One table ({!Sharpe_numerics.Structhash.Table}), ["srn_skeleton"],
    maps the structural key, a plain value compared structurally, to the
    reachability skeleton: a hit that
    still fits the current rates skips state-space exploration (rates
    matter to a skeleton only where they are 0).  The solved instance is
    the interpreter's instance cache's to keep.

    Nets whose guards or cardinalities call analysis builtins or other
    constructs that cannot be pinned symbolically are reported
    uncacheable ({!srn_key} = [None]) and solved cold. *)

type key
(** The structure itself: the evaluated places and priorities, each
    transition's name and guard AST, the arc lists as they stand in the
    AST, and the definitions of every free identifier they reach (values
    as bit patterns, [var] expressions and functions as ASTs). *)

val srn_key :
  Eval.ctx ->
  places:(string * int) list ->
  timed:Ast.srn_trans list ->
  immediate:Ast.srn_trans list ->
  inputs:(string * string * Ast.expr) list ->
  outputs:(string * string * Ast.expr) list ->
  inhibitors:(string * string * Ast.expr) list ->
  key option
(** The structural key of a net being built under [ctx] ([places] carries
    the already-evaluated initial token counts).  [None] when the
    structure cannot be pinned down (then solve cold). *)

val solve_srn : key:key -> Sharpe_petri.Net.t -> Sharpe_petri.Srn.t
(** Solve the net, reusing the cached reachability skeleton filed under
    [key] while it fits the current rates. *)

val reward_reads :
  Eval.ctx -> string -> (string * Eval.binding option) array option
(** The global bindings the reward function of this name can read under
    [ctx] (absent names included), as they are now: what a vector of its
    values must be filed with.  [None] when its definition cannot be
    pinned down (it calls a measure or [Rate()], or reads a model or an
    undefined name): its values are then evaluated at every query. *)
