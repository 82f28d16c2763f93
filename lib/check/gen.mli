(** Seeded random model generators for the differential self-check
    harness.

    Every generator is a pure function of its [Srng] state, so a model
    is rebuilt exactly by re-seeding with the value printed in a
    discrepancy diagnostic.  Generators deliberately avoid regimes that
    are intrinsically ill-conditioned (see the rationale comments in the
    implementation): the harness hunts engine disagreement, not
    conditioning folklore. *)

val cdf : Srng.t -> Sharpe_expo.Exponomial.t
(** A random proper CDF from SHARPE's built-in families (exponential,
    erlang, hypoexponential, hyperexponential) over a coarse rate grid:
    rates are either exactly equal or at least 0.5 apart. *)

val acyclic_ctmc : Srng.t -> Sharpe_markov.Ctmc.t * float array
(** An acyclic CTMC (3–8 states in topological order, some absorbing,
    grid rates) together with its initial probability vector. *)

val acyclic_rates : Srng.t -> int * (int * int * float) list
(** The state count and {!Sharpe_markov.Ctmc.make} rate list of
    {!acyclic_ctmc} on the same generator state. *)

val irreducible_ctmc : Srng.t -> Sharpe_markov.Ctmc.t
(** An irreducible CTMC: a Hamiltonian ring (irreducibility by
    construction) plus random chords, 2–20 states, rates log-uniform
    over [0.01, 100]. *)

val irreducible_rates : Srng.t -> int * (int * int * float) list
(** The state count and rate list of {!irreducible_ctmc}; chords may
    repeat an edge. *)

val fault_tree : Srng.t -> Sharpe_ftree.Ftree.t
(** A fault tree of and/or/2-of-n gates over shared ([repeat]) basic
    events and fresh single-reference basic events. *)

val rbd : Srng.t -> Sharpe_rbd.Rbd.t
(** A reliability block diagram of depth <= 2 mixing series, parallel
    and both k-of-n forms over exponential components. *)

val rbd_leaves : Sharpe_rbd.Rbd.t -> int
(** Number of independent components of a block, counting k-of-n
    replication. *)

val srn : Srng.t -> Sharpe_petri.Net.t
(** A token-conserving stochastic Petri net (ring plus chords, optional
    marking-dependent rates, optionally one immediate transition that
    exercises vanishing-marking elimination). *)

(** {1 Large sparse models (the Krylov tier)}

    All of these build CSR generator matrices directly through
    {!Sharpe_numerics.Sparse.of_rows} — O(nnz) construction, no triplet
    list, no dense intermediate. *)

val birth_death_q : Srng.t -> Sharpe_numerics.Sparse.t
(** Pure birth-death CTMC generator, 10^4–10^5 states, rates uniform in
    [0.5, 2.0] with up/down pairs correlated to within a few percent so
    the stationary vector's dynamic range stays representable;
    bandwidth 1 (banded GTH is an O(n) oracle for it). *)

val restart_ctmc_q : Srng.t -> Sharpe_numerics.Sparse.t
(** Birth-death chain of 10^4–5*10^4 states plus a restart edge to state
    0 from every state: the restart rate bounds the mixing time
    independently of n, so forced Gauss-Seidel converges in a bounded
    number of sweeps. *)

val mesh_q : Srng.t -> Sharpe_numerics.Sparse.t
(** 2-D lattice CTMC (side 100–128, so 10^4–1.6*10^4 states) with
    independent random rates on every directed edge; row-major numbering
    gives bandwidth [side]. *)

val large_srn : Srng.t -> Sharpe_petri.Net.t
(** Token-bounded SRN with 4 places sharing 37–48 tokens and
    marking-proportional transition rates; its tangible chain has
    C(N+3,3) ~ 10^4–2*10^4 states and mixes fast enough for a forced
    SOR oracle. *)

(** {1 PEPA cooperations (the process-algebra front end)} *)

type pepa_move = {
  pm_src : int;
  pm_act : string;
  pm_rate : [ `Act of float | `Pass of float ];
  pm_tgt : int;
}

type pepa_leaf = { pl_n : int; pl_moves : pepa_move list }

type pepa_case = {
  pc_leaves : pepa_leaf array;
  pc_sets : string list array;
      (** [pc_sets.(k)] is the cooperation set joining leaves [0..k]
          with leaf [k+1] in the left-associated chain. *)
  pc_src : string;  (** the same model as PEPA source text *)
}

val pepa_case : Srng.t -> pepa_case
(** A random cooperation of 2–4 sequential components (2–4 local states
    each, shared 4-action pool, grid rates, occasional passive rates
    placed so the model is legal by construction).  Local state [j] of
    leaf [k] is named [C<k>_<j>] in the source rendering. *)
