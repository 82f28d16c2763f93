(** SRN / GSPN output measures (thesis §2.3.2 and §3.12).

    Wraps a solved reachability graph and exposes SHARPE's system-analysis
    functions.  Reward functions receive the tangible marking (and can use
    {!Net.rate_in} / {!Net.enabled_named} for [Rate()] and [?()]). *)

type t

val solve :
  ?max_markings:int -> ?skeleton:Reach.skeleton ->
  ?weights:float array array -> Net.t -> t
(** [~skeleton] reuses a previously explored reachability skeleton (see
    {!Reach.build}): only edge rates/weights are re-evaluated, which is
    the sweep-loop fast path.  [~weights] hands over those already
    evaluated edge weights ({!Reach.edge_weights}). *)

val graph : t -> Reach.t

val skeleton_of : t -> Reach.skeleton
(** The reachability skeleton of this solved instance, shareable across
    structurally identical nets. *)

val net : t -> Net.t

type reward
(** A reward function of the marking, with its values at the instance's
    tangible markings: a vector the measures fill lazily, one marking at
    a time, where they weigh it (the expected reward rates only where a
    probability is nonzero).
    A marking whose evaluation raised is not filled.  Every measure given
    the same vector reads a filled marking's value instead of calling the
    function again, and weighs it in the same order of products and sums,
    so the answers are the same bits either way. *)

val reward : t -> (Net.marking -> float) -> reward
(** An empty vector of the function's values on this instance. *)

val with_function : reward -> (Net.marking -> float) -> reward
(** The same vector, filled further by the given function, which must
    take the same values. *)

val exrss : t -> reward -> float
(** [srn_exrss]: steady-state expected reward rate. *)

val exrt : t -> reward -> float -> float
(** [srn_exrt]: expected reward rate at time t. *)

val exrt_many : t -> (Net.marking -> float) -> float list -> (float * float) list
(** [exrt] at each time point in order, paired with its time, on one
    vector of the function's values: the same values and diagnostics as
    the calls made one by one. *)

val cexrt : t -> reward -> float -> float
(** [srn_cexrt]: cumulative expected reward over (0, t]. *)

val ave_cexrt : t -> reward -> float -> float
(** [srn_ave_cexrt] = cexrt / t. *)

val mtta : t -> float
(** Mean time to absorption (requires absorbing tangible markings). *)

val cexrinf : t -> reward -> float
(** [srn_cexrinf]: expected accumulated reward until absorption. *)

val tput : t -> string -> float
(** Steady-state throughput of a timed transition. *)

val util : t -> string -> float
(** Steady-state probability that the transition is fireable. *)

val etok : t -> string -> float
(** Steady-state mean number of tokens in a place. *)

val prempty : t -> string -> float
(** Steady-state probability that a place is empty. *)
