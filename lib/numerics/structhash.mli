(** Memo tables for the solve caches, keyed on plain structural values.

    A key is the cached structure itself (an SRN's places, transitions,
    arcs and pinned definitions; a fault tree's formula), compared with
    OCaml's structural [compare]: a cache hit can only ever return a
    value computed from an identical structure.  A float that must be
    told apart from every other bit pattern ([0.] from [-0.], one NaN from
    another) goes into a key as its [Int64.bits_of_float].

    {!Table}s are domain-local: each domain of the parallel pool sees its
    own storage, so cached values containing mutable state (BDD managers)
    are never shared across domains, and a value
    computed on one domain is a miss on every other.  Hit/miss counters
    and the table registry are synchronized (atomics behind a
    mutex-protected registry) and surfaced through {!Diag} by
    {!report}. *)

(** {1 Global cache switches and statistics} *)

val set_enabled : bool -> unit
(** Disable to force every lookup down the cold path (used by the
    cache-correctness tests and [--no-cache]). Default: enabled. *)

val enabled : unit -> bool

val clear_all : unit -> unit
(** Invalidate every table in every domain (lazily, on next access). *)

val trim_all : unit -> unit
(** The memory-pressure valve: {!clear_all}, counted in {!trims}.  The
    evaluation server calls this when its session-memory budget
    overflows, before evicting sessions. *)

val trims : unit -> int
(** Number of {!trim_all} calls since startup (exposed in daemon stats). *)

type stat = { name : string; hits : int; misses : int }

val stats : unit -> stat list
(** One entry per [Table.create]d table, in creation order. *)

val reset_stats : unit -> unit

val report : unit -> unit
(** Emit one {!Diag.Info} record per table that saw any traffic. *)

type counter

val counter : string -> counter
(** [counter name] registers hit/miss counters under [name] for {!stats},
    for a cache that is not a {!Table}.  Call at module initialization. *)

val count : counter -> hit:bool -> unit

(** {1 Memo tables} *)

module Table : sig
  type ('k, 'a) t

  val create : string -> ('k, 'a) t
  (** [create name] registers a table under [name] for {!stats}.  Call at
      module initialization, once per cache site. *)

  val find_or_add : ?valid:('a -> bool) -> ('k, 'a) t -> 'k -> (unit -> 'a) -> 'a
  (** [find_or_add t key compute] returns the cached value for [key] or
      computes, stores and returns it.  When caching is disabled it just
      runs [compute] (and counts nothing).  A cached value for which
      [valid] returns [false] counts as a miss and is replaced by a fresh
      [compute]: for values whose key cannot capture every input (an SRN
      skeleton depends on which rates are zero). *)
end
