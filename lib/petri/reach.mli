(** Reachability analysis and vanishing-marking elimination (thesis §2.2).

    Generates the reachability set by breadth-first search, partitions it
    into tangible and vanishing markings, folds the vanishing markings'
    branching probabilities into the tangible-to-tangible rates (handling
    chains and loops of immediate transitions), and extracts the CTMC. *)

type t

type skeleton
(** The parameter-independent half of the analysis: marking set,
    tangible/vanishing partition, and the successor graph labelled with
    transition indices.  Determined entirely by net structure (places,
    arcs, cardinalities, guards, priorities, initial marking) — never by
    rate or weight values — so a sweep that only re-binds rates can
    re-weight a cached skeleton instead of re-exploring — except where a
    timed rate is 0: exploration leaves such a transition out, so a rate
    turning positive (or an edge's rate turning 0) can change the
    skeleton.  {!fits} tells when it does. *)

val explore : ?max_markings:int -> Net.t -> skeleton * float array array
(** The reachability skeleton of the net and its {!edge_weights}, every
    rate and weight closure evaluated once: a timed edge's weight is the
    rate exploration found positive ({!Net.enabled_and_zero_rated}), and
    the immediate weights are evaluated after exploration, in marking
    order.
    @raise Failure if the net is unbounded beyond [max_markings]
    (default 200_000). *)

val explore_skeleton : ?max_markings:int -> Net.t -> skeleton
(** [fst (explore n)]. *)

val n_markings : skeleton -> int

val edge_weights : Net.t -> skeleton -> float array array
(** The current rate/weight of every skeleton edge (same iteration order
    as the skeleton's successor lists) under the net's rate closures —
    the parameter-dependent half of the analysis, cheap to evaluate. *)

val fits : Net.t -> skeleton -> float array array -> bool
(** [fits n sk (edge_weights n sk)]: whether exploring [n] now would
    build [sk] again — every timed edge has a positive rate, and every
    (marking, transition) pair exploration left out only because the
    timed transition's rate was not positive there still has none.  A
    skeleton reused for a structurally identical net must fit it. *)

val build :
  ?max_markings:int -> ?skeleton:skeleton -> ?weights:float array array ->
  Net.t -> t
(** [build n] explores the reachability set and extracts the CTMC.
    [~skeleton] skips exploration and only re-evaluates edge
    rates/weights; the caller must guarantee the skeleton was built from
    a structurally identical net (same places, arcs, cardinality and
    guard behaviour, priorities and initial marking — rates may differ)
    and that it {!fits} this net's rates.
    [~weights] skips that re-evaluation too: it must be
    [edge_weights n sk] for the skeleton given (a caller that already
    computed them, e.g. to test {!fits}, passes them on so every rate
    closure runs once).  Without [~skeleton] it is not read: {!explore}
    weighs each edge once itself.  Raises [Invalid_argument] if its shape does not
    match the skeleton's successor lists.
    @raise Failure if the net is unbounded beyond [max_markings]
    (default 200_000) or a vanishing loop never reaches a tangible
    marking. *)

val skeleton_of : t -> skeleton
(** The skeleton this graph was built from (shareable across [build]
    calls for structurally identical nets). *)

val net : t -> Net.t
val n_tangible : t -> int
val n_vanishing : t -> int
val tangible_marking : t -> int -> Net.marking
val ctmc : t -> Sharpe_markov.Ctmc.t
val initial_distribution : t -> float array
(** Distribution over tangible markings at time 0 (the initial marking's
    vanishing cascade already resolved). *)
