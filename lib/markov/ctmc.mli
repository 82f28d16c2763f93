(** Continuous-time Markov chains.

    States are integers [0 .. n-1].  A chain is built from transition rates;
    the generator diagonal is derived.  Solution methods follow the thesis:
    SOR / Gauss–Seidel (steady state), uniformization a.k.a. randomization
    (transient and cumulative transient), and direct linear solves for
    absorption measures. *)

type t

val make : n:int -> (int * int * float) list -> t
(** [make ~n rates] with [rates = [(i, j, rate); ...]], [i <> j], all rates
    nonnegative and finite.  Duplicate edges are summed, and exit rates
    accumulated, in list order.  Invalid input emits a
    {!Sharpe_numerics.Diag.Error} diagnostic before raising
    [Invalid_argument]. *)

val of_rows : ?nnz:int -> n:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [of_rows ~n row] builds the chain row by row: [row i emit] calls
    [emit j r] for each rate [r] from [i] to [j], under the same checks
    as {!make}.  Duplicate edges are summed, and [i]'s exit rate
    accumulated, in emission order — so emitting each row's entries in
    the order they appear in [make]'s list gives a bit-identical chain.
    No entry list is built: rates go straight into the generator's CSR
    ({!Sharpe_numerics.Sparse.of_rows}, which [nnz] sizes). *)

val of_generator : Sharpe_numerics.Sparse.t -> t
(** Adopt a CSR generator built elsewhere (diagonal included): exit
    rates are recovered from the off-diagonal row sums in O(nnz), with
    no dense intermediate.  Raises [Invalid_argument] (after a
    {!Sharpe_numerics.Diag.Error} diagnostic) on a non-square matrix or
    a negative / non-finite off-diagonal entry. *)

val validate : ?init:float array -> ?names:(int -> string) -> t -> unit
(** Well-formedness checks that emit {!Sharpe_numerics.Diag.Warning}
    diagnostics instead of aborting: states unreachable from the support of
    [init] (default: state 0, SHARPE's implicit initial state), chains
    where every state is absorbing, and transition rates large enough to
    risk overflow in uniformization.  [names] renders state indices in
    messages. *)

val n_states : t -> int
val generator : t -> Sharpe_numerics.Sparse.t
val rate : t -> int -> int -> float
val exit_rate : t -> int -> float
val is_absorbing : t -> int -> bool
val absorbing_states : t -> int list

val partly_absorbing : t -> bool
(** The chain has both absorbing and non-absorbing states.  Allocates
    nothing. *)

val steady_state : t -> float array
(** Steady-state probability vector of an irreducible chain. *)

val transient : t -> init:float array -> float -> float array
(** [transient c ~init t]: state probabilities at time [t] by uniformization
    with left/right truncation, recorded as one
    {!Sharpe_numerics.Diag.Info} provenance record (none for [t <= 0],
    which returns a copy of [init]).  The iterates [init P^k] are read
    from a per-domain workspace keyed by the uniformized matrix and the
    bits of [init], so consecutive queries on one chain and start vector
    (mapping [transient] over a list of points, say) pay the longest
    series once; the result is bit-identical whatever the workspace
    holds.  Each iterate carries a bound past which it is zero (from the
    last nonzero of [init] and {!Sharpe_numerics.Sparse.prefix_reach}),
    and every multiply and accumulation stops there: a term costs the
    rows the series can have reached, not [n] — a few percent of the
    states for a short horizon from one marking. *)

val iterate_budget : int
(** Bytes of iterates the transient workspace holds per domain (32 MiB);
    a series past it streams the remaining iterates. *)

val workspace_bytes : unit -> int
(** Bytes of iterate storage the calling domain's workspace has
    allocated: at most {!iterate_budget}. *)

val cumulative : t -> init:float array -> float -> float array
(** [cumulative c ~init t]: L(t) = integral over (0,t] of the state
    probability vector — expected total time spent in each state by [t].
    It streams the iterates [init P^k] through two buffers: it neither
    reads nor re-keys the transient workspace, so a long series holds
    two vectors, not the budget.  Like {!transient}, each term multiplies
    and accumulates only the rows the series can have reached. *)

val expected_reward_ss : t -> reward:(int -> float) -> float
(** Steady-state expected reward rate (irreducible chains). *)

val expected_reward_at :
  t -> init:float array -> reward:(int -> float) -> float -> float
(** E[reward rate at t]. *)

val cumulative_reward :
  t -> init:float array -> reward:(int -> float) -> float -> float
(** E[accumulated reward over (0,t]]. *)

val time_in_transient : t -> init:float array -> float array
(** For a chain with absorbing states: expected total time spent in each
    non-absorbing state before absorption (0 for absorbing states).
    @raise Invalid_argument if the chain has no absorbing state. *)

val mtta : t -> init:float array -> float
(** Mean time to absorption. *)

val absorption_probs : t -> init:float array -> float array
(** [absorption_probs c ~init]: probability of being absorbed in each
    absorbing state (0 for transient states). *)

val reward_until_absorption :
  t -> init:float array -> reward:(int -> float) -> float
(** Expected reward accumulated until absorption. *)

val uniformized : t -> float * Sharpe_numerics.Sparse.t
(** [(q, pt)] with [pt] the transpose of [P = I + Q/q], the uniformized
    chain, built straight from the generator's CSR and kept with the
    chain.  [q] is 1.02 times the largest exit rate. *)

val uniformized_dtmc : t -> float * Sharpe_numerics.Sparse.t
(** [(q, p)] with [p = I + Q/q]: the transpose of {!uniformized}'s
    matrix, computed on each call.  The library itself multiplies by
    [P^T] only. *)
