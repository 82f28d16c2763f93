(** PEPA front end: a stochastic process algebra compiled to a CTMC.

    The concrete syntax is Hillston's PEPA: sequential components built
    from prefix [(action, rate).P] and choice [+], composed with
    cooperation [P <L> Q] over an action set (apparent-rate minimum
    semantics, passive rates written [infty]) and hiding [P / {L}].
    Compilation derives the reachable state space compositionally and
    assembles the generator directly in CSR, so large cooperations flow
    into the same iterative / Krylov solver tiers as hand-written
    Markov chains. *)

exception Error of string
(** All front-end failures: syntax errors, well-formedness violations,
    unresolved rate identifiers, non-positive rates, unsynchronized
    passive actions, and the state-space cap.  Messages carry
    "line L, col C" positions whenever a source location is known. *)

val parse : ?first_line:int -> string -> Ast.model
(** Parse a PEPA body.  [first_line] offsets reported positions so they
    refer to the enclosing file (the body of a [pepa ... end] block
    starts after the header line). *)

val wellformed : Ast.model -> string list
(** Run the static checks; returns warnings (cooperation over an action
    a side never performs, hiding an absent action, unused constants)
    and raises {!Error} on violations. *)

type compiled

val compile : resolve:(string -> float option) -> Ast.model -> compiled
(** Check and derive.  [resolve] maps free rate identifiers to values
    (the SHARPE evaluation environment).  The reachable state space is
    capped at 200000 states, or at N by a [maxstates N] line in the
    model. *)

val n_states : compiled -> int
val generator : compiled -> Sharpe_numerics.Sparse.t
val ctmc : compiled -> Sharpe_markov.Ctmc.t
val warnings : compiled -> string list
val actions : compiled -> string list
val local_state_names : compiled -> string list list

val state_vector : compiled -> int -> int array
(** Per-leaf local state indices (into {!local_state_names}) of derived
    state [i] — the compositional coordinates of a global state. *)

val init_vector : compiled -> float array
(** Point mass on the initial state (the system equation itself). *)

val steady : compiled -> float array
val transient : compiled -> float -> float array

val prob : compiled -> float array -> string -> float
(** [prob c pi name]: probability (under [pi]) that at least one
    component is in the local state called [name]. *)

val throughput : compiled -> float array -> string -> float
(** [throughput c pi a]: rate at which action [a] fires under [pi]. *)
