(** Persistent domain pool: a shared job queue served by long-lived
    worker domains.

    Worker domains are spawned on first use and then shared by every
    client in the process: parallel sweep batches ({!run}), range-based
    kernel parallelism ({!run_ranges}) and the evaluation server's
    per-request jobs ({!submit}) drain the same queue, so concurrent
    requests multiplex onto a bounded set of domains instead of each
    spawning their own.

    {!run} preserves serial observable order exactly: results come back
    in index order, diagnostics emitted inside tasks are replayed on the
    calling domain in index order (byte-identical to a serial run), and
    the exception of the lowest-index failing task is the one re-raised.
    Nested {!run} calls execute sequentially instead of spawning, so
    recursive parallelism cannot oversubscribe.

    Batches are scheduled as {e chunked work-stealing}: the task index
    space is split into contiguous chunks, each participant (the calling
    domain plus up to [jobs () - 1] workers) preferentially claims the
    chunks of its own region and steals from other regions once its own
    is drained.  Compared to the previous single shared claim counter
    this guarantees that a worker waking late still finds whole chunks
    of work instead of arriving after the caller drained everything —
    the failure mode that collapsed sweep parallelism to one domain. *)

val set_jobs : ?clamp:bool -> int -> unit
(** Set the batch concurrency budget (1 = serial).  Wired to
    [sharpe --jobs N].  By default the value is clamped to
    [Domain.recommended_domain_count ()] — oversubscribing domains is
    strictly slower than serial because every minor collection
    synchronizes all of them.  [~clamp:false] keeps the requested value
    (tests use it to exercise the parallel path on any host).  Whenever
    clamping reduces a request (16 -> 4 as much as 4 -> 1), a
    {!Diag.Warning} is emitted once per distinct (requested, effective)
    pair — a silently less-parallel sweep is a performance regression
    worth surfacing.  The dedup table is bounded; per-model [set_jobs]
    calls in a sweep cannot flood the diagnostic stream or grow memory
    without bound. *)

val jobs : unit -> int

val in_worker : unit -> bool
(** [true] while executing on a pool worker domain or inside a batch
    task — used by callers to avoid offering parallelism from within
    parallelism. *)

val ensure_workers : int -> unit
(** Spawn worker domains until at least that many are alive.  {!run} and
    {!submit} call this themselves; the evaluation server calls it at
    startup to pre-warm its configured worker count. *)

val workers : unit -> int
(** Number of live worker domains. *)

val queue_length : unit -> int
(** Number of queued items (batch tokens + pending server jobs) right
    now.  After a batch completes, its leftover tokens are purged, so a
    quiescent pool always reports 0 (tests pin this). *)

val run : int -> (int -> 'a) -> 'a array
(** [run n f] is [[| f 0; ...; f (n-1) |]], evaluated concurrently when
    [jobs () > 1].  [f] must not depend on shared mutable state that
    another task mutates.  Diagnostics emitted by [f i] are captured and
    replayed in index order after all tasks complete; if any task raised,
    the lowest-index exception is re-raised (with its backtrace) after
    the diagnostics of the tasks preceding it were replayed.  The calling
    domain's {!Deadline} (if any) is re-installed around every task, so a
    timeout bounds parallel iterations too. *)

val run_ranges : int -> (int -> int -> unit) -> unit
(** [run_ranges n f] covers [0, n) with disjoint contiguous ranges and
    calls [f lo hi] for each, concurrently when [jobs () > 1] (and
    serially as [f 0 n] otherwise, or when called from inside a pool
    task).  This is the low-overhead primitive behind deterministic
    parallel kernels (sparse mat-vec): ranges never overlap, so each
    output cell is written by exactly one domain and the result is
    bit-identical to a serial loop by construction.  [f] must not emit
    diagnostics (they would surface on the executing domain, unordered);
    the caller's {!Deadline} is re-installed around every range, and the
    lowest-range exception (e.g. [Deadline.Timed_out]) is re-raised on
    the caller after the batch completes. *)

(** {1 Participation statistics}

    The scheduler records which domains actually executed batch tasks —
    the measurement that distinguishes "4 domains configured" from
    "1 domain did all the work". *)

type participation = {
  batches : int;  (** pool-scheduled batches since the last reset *)
  serial_batches : int;
      (** batches that ran serially (jobs = 1, nested, or single task) *)
  distinct_domains : int;
      (** distinct domains that executed at least one task *)
  max_batch_domains : int;
      (** largest number of distinct domains inside one pool batch *)
  tasks_per_domain : (int * int) list;
      (** (domain id, tasks executed), sorted by domain id *)
}

val reset_participation : unit -> unit
val participation : unit -> participation

(** {1 Single jobs (the evaluation server's request scheduler)} *)

type 'a job

val submit : ?deadline:float -> (unit -> 'a) -> 'a job
(** Enqueue one closure for execution on a worker domain (spawning one if
    none exist).  [?deadline] is an absolute wall-clock instant installed
    via {!Deadline.with_until} around the closure, so cooperative
    cancellation points inside raise {!Deadline.Timed_out}.  The job does
    not capture diagnostics — install a sink inside the closure. *)

val await : 'a job -> ('a, exn * Printexc.raw_backtrace) result
(** Block (the calling thread, not the runtime) until the job finishes. *)

val shutdown : unit -> unit
(** Stop and join every worker domain after the queue drains.  The pool
    restarts lazily on the next {!run}/{!submit}. *)
