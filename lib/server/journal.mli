(** Durable write-ahead journal for sharped sessions.

    Every session-mutating request (eval source text, numeric binds) is
    appended to [<dir>/journal.wal] as a CRC32-framed, length-prefixed
    record before the response is released to the client, so a crashed
    daemon can deterministically rebuild its sessions on the next start
    by re-evaluating the journaled statements in order.  Records carry
    the metadata recovery needs: session name, wall-clock timestamp (for
    idle-TTL decisions), the session's cumulative busy-seconds (for time
    quotas), and optionally the request's idempotency key plus the exact
    response line (so the replay cache survives a restart).

    {b Frame format.}  The file starts with the magic header
    ["SHARPEWAL1\n"]; each record is [4-byte LE payload length ·
    4-byte LE CRC32(payload) · payload], where the payload is one
    compact JSON object.  Recovery reads the longest valid prefix: a
    torn tail (partial frame), a CRC mismatch, or an unparseable payload
    stops the scan with a structured {!Sharpe_numerics.Diag} warning,
    and the file is truncated back to the valid prefix so new appends
    never interleave with garbage.

    {b Compaction.}  The file is the only copy of a session's history:
    in memory the journal keeps, per session, the bytes a rewrite would
    keep and the frame lengths of the binds since its last eval.  A bind
    is dead when a later bind of the same name follows with no eval
    between them (an eval may read it).  Once the file is more than
    twice its live bytes (and over 64 KiB), {!append} or {!evict}
    re-runs the recovery scan on the file and rewrites it
    (write-temp-then-rename) as one [snap] record per session, holding
    its entries with dead binds dropped, plus the request-id window.
    Evicted sessions and dead binds go; an eval-only session keeps
    every eval, so its recovery time follows its eval history.

    One daemon per journal directory: the journal takes no lock file, so
    concurrent writers would corrupt each other. *)

type fsync = Always | Interval of float | Never

val fsync_of_string : string -> (fsync, string) result
(** ["always"], ["never"], ["interval"] (100 ms) or ["interval:MS"]. *)

val fsync_to_string : fsync -> string

type entry = [ `Eval of string | `Bind of string * float ]
(** One mutating request: an [eval] source fragment or a numeric
    [bind], replayed through {!Sharpe_lang.Interp.Session.eval} and
    {!Sharpe_lang.Interp.Session.bind}. *)

type recovered_session = {
  rs_name : string;
  rs_entries : entry list;
      (** in execution order, dead binds dropped *)
  rs_busy : float;  (** cumulative busy-seconds at the last record *)
  rs_last_ts : float;  (** wall-clock time of the last record *)
}

type recovered = {
  r_sessions : recovered_session list;
  r_replays : (string * bool * string) list;
      (** (request_id, ok, response line), oldest first — feed these to
          the idempotency cache so duplicates replay across a restart *)
  r_corrupt : bool;  (** a torn or corrupt tail was dropped *)
  r_dropped_bytes : int;  (** bytes truncated from the tail *)
}

type t

val open_ : dir:string -> fsync:fsync -> t * recovered
(** Open (creating directory and file as needed) and recover.  The
    returned journal is positioned for appending after the valid
    prefix. *)

val append :
  t ->
  session:string ->
  ?request_id:string ->
  ?response:bool * string ->
  busy:float ->
  entry ->
  unit
(** Append one mutating record and apply the fsync policy, then
    compact if dead bytes dominate.  [response] is the exact
    [(ok, line)] the client will receive. *)

val evict : t -> string -> unit
(** Record that a session was evicted (TTL, LRU, memory pressure):
    recovery will not resurrect it, and the next rewrite drops its
    records.  Compacts like {!append}. *)

val tick : t -> unit
(** Apply the [Interval] fsync policy: sync if there are unsynced bytes
    older than the interval.  Called from the daemon's maintenance
    sweep. *)

val flush : t -> unit
(** Force an fsync of any buffered bytes regardless of policy. *)

val close : t -> unit
(** Flush and close.  The journal must not be used afterwards. *)

(** {1 Gauges} — for the [health] op and stats. *)

val file_bytes : t -> int
val lag_bytes : t -> int
(** Bytes appended since the last fsync (journal lag). *)

val last_sync_age : t -> float option
(** Seconds since the last fsync, [None] before the first. *)

val record_count : t -> int
(** Records appended or recovered this process lifetime (gauge, not a
    file property). *)
