(** Structured diagnostics for the numeric stack.

    SHARPE's contract is that the numbers it prints can be trusted; the
    solvers therefore never fail silently.  Every iterative solve, clamp,
    truncation and fallback emits a severity-tagged {!record} into the
    installed {!sink}s.  The CLI installs a sink around a whole run and
    turns the collected records into a stderr summary / JSON report and an
    exit code; tests use {!capture} to assert on the exact diagnostic
    sequence.  A record emitted while no sink is installed is dropped: a
    library caller that wants the records installs a sink. *)

type severity =
  | Info  (** provenance worth recording (truncation windows, solver choice) *)
  | Warning  (** the answer stands but an assumption was bent (clamped mass,
                 truncated series, suspicious model structure) *)
  | Fallback  (** a solver gave up and a more robust one took over *)
  | Non_convergence
      (** an iterative solver exhausted its budget, or its post-solve
          residual check failed *)
  | Error  (** no trustworthy answer was produced *)

val severity_rank : severity -> int
(** [Info < Warning < Fallback < Non_convergence < Error]. *)

val severity_to_string : severity -> string

type record = {
  severity : severity;
  solver : string;  (** e.g. ["gauss_seidel"], ["ctmc_steady_state"] *)
  context : string list;
      (** enclosing model / statement context, outermost first *)
  message : string;
  iterations : int option;  (** iteration count reached, if iterative *)
  residual : float option;  (** achieved residual / magnitude involved *)
  tolerance : float option;  (** tolerance the solver was aiming for *)
}

val record_to_string : record -> string
(** One-line human rendering: [severity: solver: message (iter=..,
    residual=.., tol=..) [in context]]. *)

val record_to_json : record -> string
(** One JSON object (no trailing newline); absent numeric fields are
    [null], context is an array of strings. *)

val records_to_json : record list -> string
(** A JSON array of {!record_to_json} objects, pretty-printed one record
    per line. *)

(** {1 Emission} *)

val emit :
  ?iterations:int ->
  ?residual:float ->
  ?tolerance:float ->
  severity ->
  solver:string ->
  string ->
  unit
(** Append a record (stamped with the current context) to every installed
    sink; with no sink installed the record is dropped. *)

val emitf :
  ?iterations:int ->
  ?residual:float ->
  ?tolerance:float ->
  severity ->
  solver:string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [Printf]-style {!emit}. *)

val emit_record : record -> unit
(** Replay a record captured elsewhere (typically in a worker domain of
    the parallel pool, whose context stack starts empty): the current
    domain's context is prepended to the record's own, so it reads as if
    the work had run inline. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context label f] runs [f] with [label] pushed on the context
    stack; every record emitted inside carries it.  Exception-safe. *)

val current_context : unit -> string list
(** The context stack, outermost first. *)

(** {1 Sinks} *)

type sink

val create_sink : unit -> sink
val records : sink -> record list
(** Records in emission order. *)

val clear : sink -> unit

val count : sink -> severity -> int
(** Number of records of exactly that severity. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install [sink] for the dynamic extent of the callback (sinks nest;
    every installed sink receives every record).  Exception-safe. *)

val with_isolated_sink : sink -> (unit -> 'a) -> 'a
(** Like {!with_sink}, but [sink] is the ONLY receiver: outer sinks and
    the context stack are masked for the duration.  The pool wraps batch
    tasks in this so a task's records surface exactly once — via the
    ordered replay — whether a worker domain or the calling domain
    (claiming chunks inside an outer capture) happened to execute it. *)

val capture : (unit -> 'a) -> 'a * record list
(** [capture f] runs [f] under a fresh sink and returns its result with
    the records emitted — the test-suite entry point. *)
