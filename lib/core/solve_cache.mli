(** Structural solve cache for SRN/GSPN models.

    A parameter sweep rebuilds a net whenever it rebinds a name the
    net's build read.  This module keys the expensive intermediates of an
    SRN solve by the net's STRUCTURE —
    everything that can change which markings are reachable or which
    transitions are enabled (places, initial tokens, arcs, cardinality
    and guard ASTs plus the transitive definitions of their free
    identifiers, priorities, transition kinds) — and deliberately
    excludes rate expressions, which are the per-iteration parameters.

    Three tables ({!Sharpe_numerics.Structhash.Table}):
    ["srn_skeleton"] maps the structural key to the reachability
    skeleton (a hit that still fits the current rates skips state-space
    exploration; rates matter to it only where they are 0),
    ["srn_instance"] maps structural key + zero-rated pairs + bit-exact
    edge weights to the fully solved {!Sharpe_petri.Srn.t} (a hit
    preserves accumulated steady/transient measure caches across
    iterations), and ["srn_rates"] maps the rate key — structural key +
    pinned rate and weight ASTs — to the instance key, so a repeated
    lookup skips weighing the edges.

    Nets whose guards or cardinalities call analysis builtins or other
    constructs that cannot be pinned symbolically are reported
    uncacheable ({!srn_key} = [None]) and solved cold; nets whose rates
    cannot be pinned are weighed on every lookup. *)

val srn_key :
  Eval.ctx ->
  places:(string * int) list ->
  timed:Ast.srn_trans list ->
  immediate:Ast.srn_trans list ->
  inputs:(string * string * Ast.expr) list ->
  outputs:(string * string * Ast.expr) list ->
  inhibitors:(string * string * Ast.expr) list ->
  (string * string option) option
(** The structural key of a net being built under [ctx] ([places] carries
    the already-evaluated initial token counts) and its rate key: the
    structural key plus every timed rate and immediate weight AST with
    the definitions of its free identifiers.  [None] when the structure
    cannot be pinned down (then solve cold); a rate key of [None] when
    some rate cannot (then {!solve_srn} re-weights on every lookup). *)

val solve_srn :
  key:string -> ?rates:string -> Sharpe_petri.Net.t -> Sharpe_petri.Srn.t
(** Solve the net, reusing the cached reachability skeleton filed under
    [key] while it fits the current rates, and the cached solved instance
    when every edge weight is bit-identical.  With [~rates] (the rate key)
    a repeated lookup finds the instance without evaluating any weight. *)

val pepa_key : Eval.ctx -> Sharpe_pepa.Ast.model -> string option
(** Skeleton key of a PEPA model under [ctx]: the canonical AST plus
    the bit-exact current value of every free rate identifier.  [None]
    when some identifier does not evaluate to a number (then compile
    cold; derivation will report the offending name). *)

val solve_pepa :
  key:string -> (unit -> Eval.pepa_inst) -> Eval.pepa_inst
(** Compile-or-reuse filed under {!pepa_key}: a hit returns the
    previously compiled instance with its accumulated steady-state
    cache. *)
