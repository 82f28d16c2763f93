(** Preconditioned Krylov solvers on CSR — the large-model solver tier.

    Gauss–Seidel/SOR sweeps stall on diffusion-like state spaces whose
    spectral gap closes as the model grows; BiCGStab and restarted GMRES
    need only mat-vec products plus a cheap preconditioner, both O(nnz)
    per iteration, and therefore carry the 10^5–10^6-state systems the
    stationary chain cannot.

    Both solvers are right-preconditioned: the residual driving the
    stopping test is the TRUE residual [b - A x] (relative to [||b||]),
    the same quantity {!Linsolve}'s post-solve verification measures.
    Solver loops honour the cooperative {!Deadline}. *)

type stats = {
  iterations : int;  (** mat-vec applications performed *)
  restarts : int;
      (** times the recursion started over: BiCGStab's breakdown restarts
          and best-iterate rewinds, GMRES's cycles after the first *)
  residual : float;  (** final relative true residual [||b - A x|| / ||b||] *)
  converged : bool;  (** residual fell below [tol] within the budget *)
}

type precond = {
  p_name : string;
  p_apply : float array -> float array -> unit;
      (** [p_apply src dst] computes [dst <- M⁻¹ src]; no aliasing. *)
}

val identity : precond

val jacobi : Sparse.t -> precond option
(** Diagonal preconditioner; [None] if any diagonal entry is zero. *)

val ilu0 : Sparse.t -> precond option
(** Incomplete LU with zero fill-in on the sparsity pattern of the input
    (unit-diagonal L, U with diagonal).  Exact LU for patterns closed
    under elimination — tridiagonal, and tridiagonal plus a full last
    row, the replaced-row steady-state system of a birth–death chain.
    [None] on a structurally missing diagonal or (near-)zero pivot. *)

val bicgstab :
  ?tol:float -> ?precond:precond ->
  Sparse.t -> float array -> float array * stats
(** Right-preconditioned BiCGStab (van der Vorst).  At most 2000
    iterations; [tol] bounds the relative true residual (default
    1e-12).  Keeps 7 work vectors — the first choice at 10^6 states.
    The first shadow residual is the all-ones vector rather than [b]:
    the steady-state systems of {!Linsolve} have [b = e_(n-1)], and a
    shadow that sees one coordinate makes the recursion diverge and
    rewind.  A breakdown ([rho] or [t·t] collapsing) or a divergence
    restarts the recursion with the residual as shadow; one that brings
    no progress over the previous restart returns [converged = false]
    with the residual reached. *)

val gmres :
  ?tol:float -> ?precond:precond ->
  Sparse.t -> float array -> float array * stats
(** Restarted GMRES(30) with modified Gram–Schmidt and Givens rotations
    (memory 31 basis vectors), at most 2000 mat-vec applications across
    restarts. *)
