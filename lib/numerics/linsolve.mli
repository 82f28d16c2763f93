(** Linear-system solvers used by the Markov engines.

    SHARPE's steady-state analysis uses Gauss–Seidel and successive
    over-relaxation (thesis §2.2); direct Gaussian elimination backs the
    small dense systems (vanishing-marking elimination, embedded DTMCs,
    fundamental-matrix MTTF).

    Failure semantics: no solver fails silently.  {!solve},
    {!ctmc_steady_state} and {!dtmc_steady_state} run one solver ladder:
    each rung's answer is verified against the true residual, a rejected
    one is recorded as a {!Diag.Non_convergence} diagnostic, and the next
    rung is announced by a {!Diag.Fallback}.  Under [Auto] the rungs are,
    with [n] the number of unknowns:

    {v
    problem         n < krylov_threshold                  n >= krylov_threshold
    solve           GS, SOR, direct, BiCGStab             BiCGStab, GMRES, GS, SOR
    CTMC steady     direct (n <= direct_threshold), banded GTH, then
                    GS, SOR, direct, BiCGStab             BiCGStab, GMRES, GS, SOR
    DTMC steady     power, direct, BiCGStab, Cesaro       BiCGStab, GMRES, power, Cesaro
    v}

    SOR's over-relaxation factor is adapted to the contraction rate
    Gauss–Seidel observed; escalated to, direct elimination applies up to
    4096 unknowns; the Cesaro rung averages the last two power iterates of
    a periodic chain.  A ladder that runs out returns the best iterate with
    a {!Diag.Error}.  Negative steady-state entries are clamped with a
    {!Diag.Warning} carrying the clamped magnitude. *)

exception Singular
(** Raised by the direct solvers when elimination hits a (near-)zero pivot. *)

(** {1 Solver selection}

    The [Auto] ladder can be overridden (the [--solver] flag): a forced
    method runs alone and records a {!Diag.Error} when it fails, instead
    of silently escalating — which keeps differential solver-vs-solver
    comparisons meaningful.  A method with no engine for the problem
    ([Gth] on {!solve}; [Gauss_seidel], [Sor], [Gth] on
    {!dtmc_steady_state}) runs the [Auto] ladder instead. *)

type method_ =
  | Auto  (** the size-directed ladder tabled above *)
  | Gauss_seidel
  | Sor
  | Bicgstab
  | Gmres
  | Gth  (** subtraction-free banded GTH elimination (CTMC steady state) *)
  | Direct

val set_method : method_ -> unit
val current_method : unit -> method_

val with_method : method_ -> (unit -> 'a) -> 'a
(** [with_method m f] runs [f] with the solver override set to [m],
    restoring the previous override afterwards (also on exceptions). *)

val method_to_string : method_ -> string

val method_of_string : string -> method_ option
(** Accepts [auto], [gs]/[gauss-seidel], [sor], [bicgstab], [gmres],
    [gth], [direct]. *)

val krylov_threshold : int
(** Systems with at least this many unknowns try preconditioned Krylov
    before the stationary sweeps under [Auto]. *)

(** {1 Dense-materialization accounting}

    Each expansion of a sparse system to a dense matrix (the direct
    fallbacks) ticks a global counter.  Large-model paths must keep it at
    zero — the large-model bench asserts so — and an expansion beyond the
    direct-solve cap additionally records a {!Diag.Warning}. *)

val dense_count : unit -> int
val reset_dense_count : unit -> unit

val note_dense : solver:string -> int -> unit
(** Record a dense materialization of an [n]-state system.  Exported for
    the Markov-layer transient paths that build dense matrices. *)

val gauss : Matrix.t -> float array -> float array
(** [gauss a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  [a] is not modified.  @raise Singular on singular systems. *)

val gauss_matrix : Matrix.t -> Matrix.t -> Matrix.t
(** [gauss_matrix a b] solves [a X = B] column-by-column. *)

val inverse : Matrix.t -> Matrix.t

type iter_stats = {
  iterations : int;  (** sweeps performed *)
  residual : float;  (** final max-norm relative change between sweeps *)
  converged : bool;  (** the change dropped below [tol] within budget *)
}

val residual_inf : Sparse.t -> float array -> float array -> float
(** [residual_inf a x b] is the true residual [||a x - b||_inf] — the
    post-solve verification measure. *)

val gauss_seidel :
  ?max_iter:int -> ?tol:float -> ?x0:float array ->
  Sparse.t -> float array -> float array * iter_stats
(** [gauss_seidel a b] solves [a x = b] where [a] is accessed row-wise.
    Diagonal entries must be nonzero.  Stops when the max-norm of successive
    differences relative to the iterate falls below [tol] (default 1e-12),
    or aborts early on numeric blow-up.  A non-converged return is recorded
    as a {!Diag.Non_convergence} diagnostic. *)

val sor :
  ?max_iter:int -> ?tol:float -> ?omega:float -> ?x0:float array ->
  Sparse.t -> float array -> float array * iter_stats
(** Successive over-relaxation; [omega = 1] degenerates to Gauss–Seidel. *)

val solve : ?max_iter:int -> ?tol:float -> Sparse.t -> float array -> float array
(** [solve a b] solves [a x = b] with the solver ladder (see the table
    above): below {!krylov_threshold} unknowns Gauss–Seidel, then SOR with
    an over-relaxation factor adapted to the observed contraction rate,
    then direct Gaussian elimination, then preconditioned BiCGStab — each
    hop recorded as a {!Diag.Fallback} diagnostic, and the accepted answer
    verified against [||a x - b||_inf].  A zero diagonal sends the sweeps
    straight to direct elimination.
    @raise Singular if even the direct solve finds no unique solution. *)

val steady_state_direct : Sparse.t -> float array
(** [steady_state_direct q] solves [pi Q = 0] with the last balance
    equation replaced by [sum pi = 1], by Gaussian elimination.  This is
    the direct path of {!ctmc_steady_state}, exported on its own so the
    differential self-check harness can confront it with the iterative
    path.  The result is NOT clamped or renormalized.
    @raise Singular on reducible generators. *)

val ctmc_krylov_system : Sparse.t -> Sparse.t * float array
(** [ctmc_krylov_system q] is the CSR replaced-row system [(A, b)] with
    [A = Q^T] whose last row is replaced by ones and [b = e_{n-1}] — the
    exact system {!steady_state_direct} eliminates, exposed for the
    Krylov solvers and benches. *)

val ctmc_steady_state :
  ?max_iter:int -> ?tol:float -> ?direct_threshold:int ->
  Sparse.t -> float array
(** [ctmc_steady_state q] solves [pi Q = 0], [sum pi = 1] for an irreducible
    generator [q] (square, rows sum to 0).  Systems of up to
    [direct_threshold] states (default 500) are solved directly; banded
    generators within the elimination budget by subtraction-free GTH;
    systems of at least {!krylov_threshold} states by preconditioned
    BiCGStab/GMRES on the CSR replaced-row system; the rest by
    Gauss–Seidel sweeps with SOR, direct elimination and BiCGStab behind
    them.  The accepted vector is verified against
    [||pi Q||_inf]; result entries are nonnegative and sum to 1. *)

val dtmc_steady_state :
  ?max_iter:int -> ?tol:float -> Sparse.t -> float array
(** [dtmc_steady_state p] solves [pi P = pi], [sum pi = 1] for an irreducible
    stochastic matrix [p] by power iteration with normalization.  Periodic
    chains (detected as a period-2 limit cycle) and verification failures
    fall back to a direct solve of [pi (P - I) = 0], recorded as a
    {!Diag.Fallback}. *)
