(** Sparse matrices in CSR form, assembled a row at a time.

    CTMC generators coming out of reachability graphs are very sparse; the
    iterative solvers ({!Linsolve.solve}) and the uniformization engine
    work on this representation. *)

type t
(** Immutable CSR matrix. *)

val of_rows :
  ?nnz:int -> rows:int -> cols:int -> (int -> (int -> float -> unit) -> unit) -> t
(** The one assembler; {!finalize}, {!of_triplets} and {!of_dense} go
    through it too.  [of_rows ~rows ~cols f] calls [f i emit] once per
    row, in row order; [emit j x] adds [x] at [(i, j)].  Each row's
    entries are stably sorted by column and each cell's duplicates
    summed in emission order.  Zero entries are left out, and so are
    zero sums.  [nnz] (default [rows]) estimates the entry count: the
    CSR arrays start there, grow geometrically and are trimmed once at
    the end.  Raises [Invalid_argument] on a column out of range. *)

type builder
(** Mutable triplet accumulator over growable unboxed arrays. *)

val builder : rows:int -> cols:int -> builder
val add : builder -> int -> int -> float -> unit
val finalize : builder -> t
(** Groups the triplets by row with a stable counting sort and hands each
    row to {!of_rows} in insertion order, so duplicates are summed in
    insertion order under the same zero rules.  The builder is left
    unchanged. *)

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
val of_dense : Matrix.t -> t
val to_dense : t -> Matrix.t

val of_raw :
  rows:int -> cols:int ->
  row_ptr:int array -> col_idx:int array -> values:float array -> t
(** Wrap pre-built CSR arrays (adopted, not copied).  Column indices must
    be sorted and duplicate-free within each row; only the array shapes
    are validated. *)

val raw : t -> int array * int array * float array
(** [(row_ptr, col_idx, values)] — the underlying CSR arrays, exposed for
    kernels (ILU factorization, preconditioner application) that need
    index arithmetic beyond {!iter_row}.  The arrays must not be
    mutated. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val get : t -> int -> int -> float
(** O(log nnz-in-row). *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
val fold_row : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a
val iter : t -> (int -> int -> float -> unit) -> unit

val mat_vec : t -> float array -> float array
val vec_mat : float array -> t -> float array

val mat_vec_into : t -> float array -> float array -> unit
(** [mat_vec_into t v out] computes [out <- t v] without allocating.
    [v] and [out] must not alias. *)

val par_mat_vec : t -> float array -> float array
val par_mat_vec_into : t -> float array -> float array -> unit
(** [par_mat_vec_prefix_into t (rows t)]: like {!mat_vec_into} but
    row-parallel on the {!Pool} when [Pool.jobs () > 1], the matrix has
    at least {!par_min_nnz} nonzeros and the caller is not itself a pool
    task.  Rows are partitioned into disjoint contiguous ranges and each
    row is accumulated in the same order as the serial kernel, so the
    result is {e bit-identical} to {!mat_vec_into} regardless of
    partitioning. *)

val par_mat_vec_prefix_into : t -> int -> float array -> float array -> unit
(** [par_mat_vec_prefix_into t h v out] writes rows [\[0, h)] of [t v]
    into [out] and leaves its rows from [h] on as they were.  It is
    {!par_mat_vec_into} restricted to a row prefix: row-parallel when the
    prefix holds at least {!par_min_nnz} nonzeros, each row bit-identical
    to {!mat_vec_into}'s.  Uniformization multiplies only the rows an
    iterate can have reached this way.  Raises
    [Invalid_argument] unless [v] has [cols t] entries, [out] has
    [rows t] and [0 <= h <= rows t]. *)

val prefix_reach : t -> int array
(** [prefix_reach t], of length [cols t + 1]: [reach.(h)] is 1 plus the
    largest row holding an entry in a column below [h] (0 when there is
    none), nondecreasing in [h].  So for [v] zero from row [h] on and
    finite entries, [t v] is [+0.0] from row [reach.(h)] on: each such
    row sums products with zeros only.  Uniformization bounds each
    iterate's support with it. *)

val set_par_min_nnz : int -> unit
(** Nonzero-count floor below which {!par_mat_vec_prefix_into} stays
    serial (default 20000: a pool round-trip costs more than a small
    multiply).
    Tests set 0 to force the parallel path on tiny matrices. *)

val par_min_nnz : unit -> int

val vec_mat_into : float array -> t -> float array -> unit
(** [vec_mat_into v t out] computes [out <- v t] without allocating.
    [v] and [out] must not alias. *)

val transpose : t -> t
(** O(nnz) counting-sort transpose. *)

val scale : float -> t -> t

val scale_rows : float array -> t -> t
(** [scale_rows d t] multiplies row [i] by [d.(i)] (values copied,
    structure shared). *)

val diag : t -> float array
val pp : Format.formatter -> t -> unit
