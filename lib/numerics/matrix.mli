(** Dense matrices over [float], row-major.

    A thin, allocation-explicit dense-matrix layer used by the direct linear
    solvers and by small-model paths (embedded DTMCs, kernel matrices of
    MRGPs).  Large CTMCs go through {!Sparse} instead. *)

type t

val create : rows:int -> cols:int -> t
(** [create ~rows ~cols] is the all-zero [rows]x[cols] matrix. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Copies its input.  All rows must have equal length. *)

val rows : t -> int
val cols : t -> int

val raw : t -> float array
(** The row-major storage itself, not a copy: entry [(i, j)] sits at
    [i * cols + j], and writes to it write the matrix.  For the
    elimination kernels' inner loops. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] is [set m i j (get m i j +. x)]. *)

val copy : t -> t
val map : (float -> float) -> t -> t

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val mat_vec : t -> float array -> float array
(** [mat_vec m v] is [m v] (column-vector convention). *)

val vec_mat : float array -> t -> float array
(** [vec_mat v m] is [v m] (row-vector convention, the Markov-chain one). *)

val row : t -> int -> float array
val col : t -> int -> float array

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
