(** Mean time to failure, including the accelerated variant of
    Heidelberger–Muppala–Trivedi (thesis §3.10.1, examples C.3).

    The SHARPE input marks states [reada] (aggregate: the frequently-visited
    "up" states) and [readf] (failure: treated as absorbing).  The exact
    computation makes the [readf] states absorbing and solves the
    fundamental-matrix linear system; the accelerated computation aggregates
    the [reada] states into a single macro-state weighted by their
    conditional steady-state distribution, which is the speed/stability trick
    of the paper — on the paper's rare-failure models the two agree to many
    digits (the [markov] test "mttf 3-unit = closed form, fast and exact",
    experiment A4, checks both against the closed form). *)

type spec = { reada : int list; readf : int list }

val mttf : Ctmc.t -> init:float array -> readf:int list -> float
(** Exact MTTF: expected time until hitting any [readf] state. *)

val mttf_fast : Ctmc.t -> init:float array -> spec -> float
(** Accelerated MTTF with [reada]-state aggregation. *)
