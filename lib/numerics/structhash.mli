(** Canonical structural keys and memo tables for the solve cache.

    A model's parameter-independent skeleton (net structure, formula
    shape, population vector, ...) is serialized into an exact canonical
    string with the [builder] combinators; the string is the cache key.
    Keys are compared by full equality — never by a truncated hash — so a
    cache hit can only ever return a value computed from an identical
    structure.

    {!Table}s are domain-local: each domain of the parallel pool sees its
    own storage, so cached values containing mutable state (BDD managers)
    are never shared across domains, and a value
    computed on one domain is a miss on every other.  Hit/miss counters
    and the table registry are synchronized (atomics behind a
    mutex-protected registry) and surfaced through {!Diag} by
    {!report}. *)

(** {1 Key construction} *)

type builder

val builder : string -> builder
(** [builder tag] starts a key for the cache family [tag]. *)

val add_string : builder -> string -> unit
val add_int : builder -> int -> unit
val add_bool : builder -> bool -> unit

val add_float : builder -> float -> unit
(** Bit-exact: a tag byte and the 8 bytes of the IEEE bit pattern.  Keys
    distinguish [0.] from [-0.], and NaNs with different payloads. *)

val add_list : builder -> (builder -> 'a -> unit) -> 'a list -> unit

val finish : builder -> string
(** The canonical key.  Injective: two different field sequences cannot
    serialize to the same string (every field is length-prefixed,
    terminator-delimited or fixed-width). *)

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
  type 'a t

  val create : string -> 'a t
  (** [create name] registers a table under [name] for {!stats}.  Call at
      module initialization, once per cache site. *)

  val find_or_add : ?valid:('a -> bool) -> 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key compute] returns the cached value for [key] or
      computes, stores and returns it.  When caching is disabled it just
      runs [compute] (and counts nothing).  A cached value for which
      [valid] returns [false] counts as a miss and is replaced by a fresh
      [compute]: for values whose key cannot capture every input (an SRN
      skeleton depends on which rates are zero). *)
end
