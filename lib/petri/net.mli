(** Stochastic reward nets / generalized stochastic Petri nets — the net
    structure (thesis ch. 2).

    Beyond GSPNs, SRNs add guards, priorities, marking-dependent firing
    rates and marking-dependent arc multiplicities; all of these are
    represented as closures over the current marking, which is how the
    SHARPE-language front end compiles its expressions.

    Priorities: immediate transitions always outrank timed ones; within a
    kind, only transitions of maximal priority among the structurally
    enabled ones are enabled (thesis §2.1.2). *)

type marking = int array

type kind = Timed | Immediate

type transition = {
  t_name : string;
  kind : kind;
  rate : marking -> float;
      (** firing rate (timed) or weight (immediate) in a marking *)
  guard : marking -> bool;
  priority : int;
  inputs : (int * (marking -> int)) list; (** place index, multiplicity *)
  outputs : (int * (marking -> int)) list;
  inhibitors : (int * (marking -> int)) list;
}

type t

val build :
  places:(string * int) list -> transitions:transition list -> t
(** [places] associates names with initial token counts. *)

val named : string -> t -> t
(** The net under the name its errors give (["net"] unless named). *)

val place_index : t -> string -> int
val initial_marking : t -> marking
val transitions : t -> transition array
val transition_index : t -> string -> int

val enabled : t -> marking -> int list
(** Indices of the fireable transitions after the priority rule: among
    those whose guard, input and inhibitor conditions hold and, for a
    timed transition, whose rate is positive. *)

val enabled_and_zero_rated : t -> marking -> int list * int list
(** [enabled] together with the timed transitions it left out only
    because their rate is not positive (0, negative or NaN) and that the
    priority rule would keep if it were: the transitions whose rate
    decides, beside the net's structure, what [enabled] returns in this
    marking.  Both lists in increasing index order.
    @raise Invalid_argument when deciding them asks for them again: a
    guard, cardinality or rate of the net reads ?() or Rate() of it. *)

val hash_marking : marking -> int
(** A nonnegative hash of every place's token count, computed without
    allocating (the hash of reachability's marking table). *)

val fire : t -> int -> marking -> marking

val rate_in : t -> marking -> string -> float
(** SHARPE's [Rate(trans)]: the transition's rate if it is fireable in the
    marking (post-priority), 0 otherwise. *)

val enabled_named : t -> marking -> string -> bool
(** SHARPE's [?(trans)]. *)
