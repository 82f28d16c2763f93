(** Multi-state fault trees (thesis §3.2).

    Basic events are *states of physical components*: [basic "B1" "3" p]
    declares that component [B1] is in state [3] with probability [p].
    States of the same component are mutually exclusive; distinct components
    are independent.  Gates combine state events and other gates; a gate
    name is any string ("top:1" in the thesis's examples is just a name).

    Analysis builds a BDD over the (component, state) atoms and evaluates it
    with the grouped (mutually-exclusive within a component) probability
    semantics of {!Sharpe_bdd.Bdd.prob_grouped}.  If a component's declared
    state probabilities sum to less than one, the remainder implicitly goes
    to a "none of the declared states" state. *)

type t

val create : unit -> t

val basic : t -> comp:string -> state:string -> float -> unit
(** Declare a component state with its probability.  Probabilities of a
    component's states must not exceed 1 (checked at analysis time). *)

val transfer : t -> string -> comp:string -> state:string -> unit
(** Alias a fresh name to an existing component state. *)

type input = Event of string * string (* comp, state *) | Ref of string (* gate or alias *)

val gate_and : t -> string -> input list -> unit
val gate_or : t -> string -> input list -> unit
val gate_kofn : t -> string -> k:int -> n:int -> input list -> unit
(** With a single input, the input is replicated [n] times (identical
    independent copies are *not* meaningful for state atoms, so replication
    reuses the same atom — matching SHARPE's shared-event semantics). *)

val sysprob : t -> string -> float
(** [sysprob t gate]: probability that the named gate is true. *)
