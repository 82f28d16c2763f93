(** Top-level entry points for running SHARPE programs. *)

val run_string : ?print:(string -> unit) -> string -> unit
(** Parse and execute a SHARPE input program.  Output (echo, expr results,
    bind traces, analysis printers) goes through [print] (default stdout).
    @raise Parser.Parse_error or Eval.Error on bad input. *)

val run_file : ?print:(string -> unit) -> string -> unit

val eval_output : string -> string
(** Run a program and return everything it printed — convenient for tests. *)

(** {1 Diagnostic-collecting runner}

    The CLI entry points: statements are executed under a diagnostic sink
    and with per-statement error recovery, so one failing model definition
    no longer aborts the rest of the input file — the failure is recorded
    as an {!Sharpe_numerics.Diag.Error} diagnostic instead. *)

type outcome = {
  diagnostics : Sharpe_numerics.Diag.record list;
      (** everything the solvers and the evaluator reported, in order *)
  failed_statements : int;
      (** statements (or whole-file parses) aborted by an error *)
}

val run_program :
  ?print:(string -> unit) -> ?fuel_limit:int -> string -> outcome
(** Like {!run_string} but never raises on program errors: parse errors and
    per-statement evaluation errors become diagnostics, and execution
    continues with the next statement.  [?fuel_limit] bounds `while`-loop
    iterations for this run only (default one million).  A
    {!Sharpe_numerics.Deadline.Timed_out} is NOT recovered — cancellation
    unwinds the whole run and propagates to the caller. *)

val run_program_file : ?print:(string -> unit) -> string -> outcome
(** {!run_program} on a file; an unreadable file yields a single error
    diagnostic rather than an exception. *)

(** {1 Sessions}

    A session is a persistent interpreter environment: bindings, function
    and model definitions, number-format state, the time side, the while-loop
    fuel budget and the per-environment instance cache all survive across
    {!Session.eval} calls; printed output and diagnostics are collected
    per call.  No interpreter state is process-global, so concurrent
    sessions on different domains never observe each other's bindings,
    outputs or diagnostics — the evaluation server keeps one session per
    client-chosen name and serializes calls into each.

    A session keeps no record of the requests that built it, so its
    footprint follows its state, not its request count.  The server's
    durability journal is the only copy of that history: recovery
    rebuilds a session by replaying the journaled [eval]s and [bind]s
    through {!Session.eval} and {!Session.bind}. *)

module Session : sig
  type t

  val create : ?fuel_limit:int -> unit -> t

  val eval : t -> string -> string * outcome
  (** Execute a program fragment against the session environment with
      per-statement error recovery; returns everything it printed plus
      the run's diagnostics.  Raises {!Sharpe_numerics.Deadline.Timed_out}
      if a surrounding deadline expires (state mutated by already-executed
      statements remains — see PROTOCOL.md). *)

  val bind : t -> string -> float -> unit
  (** Bind a numeric constant in the session environment (like a [bind]
      statement, without echo). *)

  val query : t -> string -> (float, string) result
  (** Parse and evaluate one expression against the session environment.
      Analysis builtins over models defined by earlier [eval]s work;
      errors come back as [Error message] rather than raising. *)

  val pending_output : t -> string
  (** Output printed by the current/last [eval] — used to salvage partial
      output after a timeout. *)

  val approx_bytes : t -> int
  (** Approximate heap footprint of everything the session retains
      between requests (bindings, model definitions, the instance cache,
      buffered output), measured by one [Obj.reachable_words] traversal.
      The evaluation server sums these against its global memory budget
      to decide when to trim caches and evict idle sessions. *)
end
