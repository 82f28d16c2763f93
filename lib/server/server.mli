(** The sharped evaluation daemon.

    One thread per connection does the socket IO; every piece of
    interpreter work (eval, query) is submitted to the shared
    {!Sharpe_numerics.Pool} worker domains, one job at a time per domain,
    so domain-local diagnostic sinks never interleave.  Named sessions
    are created on first use and serialized by a per-session mutex;
    concurrent requests against different sessions run in parallel.

    The daemon is overload-hardened:

    - {b Admission control}: at most [max_concurrent] pool-using requests
      (eval/query/selfcheck) run at once; excess requests get a
      structured ["overloaded"] error with a [retry_after_ms] hint
      instead of queueing unboundedly.  The selfcheck audit class gets
      only 3/4 of the budget, so it is shed first under pressure.
    - {b Session lifecycle}: sessions idle longer than [session_ttl] are
      evicted, the registry is capped at [max_sessions] with
      least-recently-used eviction, and when the summed per-session
      footprint exceeds [memory_budget] the structural solve caches are
      trimmed and then LRU sessions evicted.  A request naming an
      evicted session gets one structured ["session_expired"] error;
      the next request under that name rebinds fresh.
    - {b Quotas}: [session_quota] bounds a session's cumulative
      evaluation seconds (["quota_exhausted"] past it).
    - {b Panic barrier}: an exception escaping any handler becomes a
      structured ["internal_error"] response, never a dead daemon.
    - {b Idempotency}: requests carrying a [request_id] are executed at
      most once; duplicates replay the stored response (see
      PROTOCOL.md). *)

type listen = [ `Unix of string | `Tcp of string * int ]

exception Bind_error of string
(** Socket setup failed (unresolvable host, address in use, bad socket
    path).  Raised by {!serve} after recording a
    {!Sharpe_numerics.Diag.Error}; launchers catch it to exit with one
    clean message instead of a backtrace. *)

type config = {
  max_request_bytes : int;
      (** request lines longer than this are answered with an
          ["oversized"] error and discarded (default 1 MiB) *)
  default_timeout : float option;
      (** per-request deadline in seconds applied when the request
          carries none (default: no deadline) *)
  workers : int;  (** worker domains to pre-warm (default 2) *)
  max_concurrent : int;
      (** admission limit: pool-using requests beyond this are answered
          ["overloaded"] immediately (default 64) *)
  max_sessions : int;
      (** hard cap on live named sessions; past it the least-recently-used
          idle session is evicted to make room (default 64) *)
  session_ttl : float option;
      (** evict sessions idle longer than this many seconds
          (default: never) *)
  session_quota : float option;
      (** per-session cumulative evaluation-time budget in seconds;
          exhausted sessions answer ["quota_exhausted"] until evicted
          (default: unlimited) *)
  memory_budget : int option;
      (** global budget in bytes for the summed approximate footprint of
          all sessions; past it caches are trimmed and LRU sessions
          evicted (default: unlimited) *)
  retry_after_ms : int;
      (** the hint attached to ["overloaded"] rejections (default 50) *)
  inject : (string -> unit) option;
      (** fault-injection hook for the chaos harness: called with the op
          name at the start of every pooled job; an exception it raises
          takes the worker-crash path (default [None]) *)
  journal_dir : string option;
      (** durability: write-ahead-log every session-mutating request to
          [<dir>/journal.wal] and recover sessions from it on startup
          (default: no journal, sessions are RAM-only) *)
  fsync : Journal.fsync;
      (** journal fsync policy: [Always] makes responded-implies-durable
          exact, [Interval s] bounds the loss window to [s] seconds,
          [Never] leaves syncing to the OS (default [Interval 0.1]) *)
}

val default_config : config

val serve :
  ?config:config ->
  ?ready:(unit -> unit) ->
  ?drain:bool Atomic.t ->
  listen ->
  unit
(** Run the daemon: bind, listen, accept until a [shutdown] request
    arrives, then drain connections and return.  [?ready] is invoked once
    the socket is listening (tests and the soak in [test/soak.ml] use it
    to know when clients may connect).  A Unix-domain socket path is
    unlinked on both startup (stale socket) and shutdown.  Session
    maintenance (TTL eviction, memory budget, journal fsync tick) runs
    from the accept loop at most every 50 ms, so it happens on an idle
    daemon too.

    When [config.journal_dir] is set, startup first recovers the journal:
    sessions are rebuilt by deterministic re-evaluation of their journaled
    statements (the journal file is the only copy of a session's history,
    and compacts itself; see {!Journal}), sessions past their idle TTL or
    time quota are tombstoned instead of resurrected, and recovered
    [request_id]s preload the idempotency cache.  A torn or corrupt journal tail is dropped with a
    structured Diag warning — recovery never refuses to start.

    [?drain] is the graceful-shutdown knob (the launcher flips it from a
    SIGTERM handler): once true, the daemon stops accepting, sheds new
    work with ["overloaded"] while answering [health]/[stats]/[ping],
    finishes in-flight requests, flushes and closes the journal, and
    returns normally. *)
