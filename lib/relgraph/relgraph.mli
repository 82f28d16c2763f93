(** Reliability graphs (thesis §3.6): s-t connectivity over unreliable edges.

    The system works while at least one source-to-sink path of working edges
    exists.  Edges carry failure-time CDFs; [bidirect] edges can be traversed
    in both directions but fail as one unit; *repeated* edges ([transfer])
    are distinct graph edges sharing one physical component — the thesis'
    extension, handled naturally because the minpath formula is compiled to
    a BDD over physical-edge variables.

    The source is the unique node without incoming edges and the sink the
    unique node without outgoing ones (directed edges only are considered;
    SHARPE's convention), unless {!set_sink} names the sink. *)

type t
type edge

val create : unit -> t

val edge : ?bidirect:bool -> t -> string -> string -> Sharpe_expo.Exponomial.t -> edge
(** Add an edge; returns its handle so that repeated copies can share it. *)

val repeat_edge : ?bidirect:bool -> t -> string -> string -> edge -> unit
(** Add another graph edge backed by the *same* physical component. *)

val set_sink : t -> string -> unit

val source : t -> string
val sink : t -> string

val unreliability : t -> float -> float
(** Probability that source and sink are disconnected at time [t]. *)

val reliability : t -> float -> float

val cdf : t -> Sharpe_expo.Exponomial.t
(** Symbolic failure-time CDF of the system. *)

val mean : t -> float

val pqcdf : t -> string
(** SHARPE's [pqcdf]: the system failure probability as a sum of disjoint
    products over edge symbols: [pUV] = P(edge u->v failed), [qUV] = 1-p. *)

val minpaths : t -> (string * string) list list
(** Minimal sets of edges whose joint functioning connects source to sink. *)

val mincuts : t -> (string * string) list list
(** Minimal sets of edges whose joint failure disconnects source and sink. *)

val birnbaum : t -> string -> string -> float -> float
(** Birnbaum importance of an edge (by endpoints) for the failure event. *)

val criticality : t -> string -> string -> float -> float
val structural : t -> string -> string -> float
