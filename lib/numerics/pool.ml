(* Persistent domain pool: a shared job queue served by long-lived worker
   domains.

   PR 2 introduced this module as a one-shot fork/join helper: every
   [run] spawned fresh domains and joined them before returning.  The
   evaluation server turns that into a poor fit — each request would pay
   domain startup, and concurrent requests would each spawn their own
   domains and oversubscribe the machine.  The pool is therefore
   persistent: worker domains are spawned on first use, block on a global
   queue, and are shared by every client in the process (batch [run]
   calls and server [submit] jobs alike).

   Batch scheduling is chunked work-stealing rather than a single shared
   claim counter.  With one atomic counter and fine-grained tasks, the
   calling domain — already running, cache-warm — would drain the whole
   batch before a woken worker claimed its first index, collapsing a
   parallel sweep onto one domain.  Chunking fixes the granularity
   half: the index space is split into contiguous chunks (at most ~8 per
   participant), each participant starts claiming inside its own region,
   and steals from the other regions once its own is drained.  A worker
   that wakes late therefore still finds whole chunks unclaimed.  Which
   domain ran which chunk is recorded per batch ([participation]) so the
   benchmark can report MEASURED multi-domain execution
   ([pool.distinct_domains]) instead of the configured clamp value.

   [run n f] keeps its PR-2 determinism contract exactly:

   - results are returned in index order regardless of completion order;
   - diagnostics emitted inside a task are captured in a task-local sink
     and replayed on the calling domain in index order after every task
     has finished, so the diagnostic stream of a parallel run is
     byte-identical to the serial one;
   - if any task raises, the exception of the LOWEST index is re-raised
     on the calling domain (matching what a serial left-to-right loop
     would have surfaced), after the diagnostics of the tasks before it
     have been replayed;
   - nested calls never spawn: a task that itself calls [run] (detected
     via a domain-local flag) executes sequentially, so the pool cannot
     oversubscribe or deadlock on recursive parallelism.

   The calling domain participates in its own batch (it claims chunks
   like any worker), so [run] is never slower than the old fork/join
   shape; batch tasks re-install the caller's {!Deadline} so a timeout
   covers parallel iterations too.

   [run_ranges n f] is the kernel-parallelism primitive: it hands whole
   disjoint ranges to [f] with no per-task bookkeeping (no slots, no
   diagnostic sinks), which is what a parallel sparse mat-vec needs —
   each output row is written by exactly one domain, so the result is
   bit-identical to serial by construction.

   [submit]/[await] expose the queue directly for the evaluation server:
   a job is a single closure with an optional deadline, executed on some
   worker domain, its result or exception handed back to the awaiting
   thread.  Jobs do not capture diagnostics — a server job installs its
   own session sink. *)

let jobs_ref = Atomic.make 1

(* Running more domains than the hardware offers is strictly worse than
   serial: every minor collection synchronizes all domains, and on an
   oversubscribed machine each barrier costs an OS scheduling quantum.
   [set_jobs] therefore clamps to the recommended domain count;
   [~clamp:false] keeps the requested value (tests use it to exercise
   the parallel machinery regardless of the host). *)
(* (requested, effective) pairs already warned about, so a sweep that
   calls [set_jobs] per model does not repeat the same clamp warning
   hundreds of times; a DIFFERENT request (or the same request clamped
   differently) still gets its own warning.  The table is bounded: past
   [warned_cap] distinct pairs it is reset rather than grown, trading an
   occasional repeat warning for a hard memory ceiling.  Guarded by its
   own mutex — set_jobs is rare and never on a solver hot path. *)
let warned_clamps : (int * int, unit) Hashtbl.t = Hashtbl.create 4
let warned_cap = 64
let warned_mutex = Mutex.create ()

let set_jobs ?(clamp = true) n =
  let eff =
    max 1 (if clamp then min n (Domain.recommended_domain_count ()) else n)
  in
  (* ANY reduction is a visible diagnostic, not just the collapse to 1:
     a 16 -> 4 clamp quietly quarters the expected speedup, and the
     16 -> 1 case silently turns every sweep serial. *)
  if clamp && n > 1 && eff < n then begin
    let first =
      Mutex.protect warned_mutex (fun () ->
          let fresh = not (Hashtbl.mem warned_clamps (n, eff)) in
          if fresh then begin
            if Hashtbl.length warned_clamps >= warned_cap then
              Hashtbl.reset warned_clamps;
            Hashtbl.replace warned_clamps (n, eff) ()
          end;
          fresh)
    in
    if first then
      if eff <= 1 then
        Diag.emitf Diag.Warning ~solver:"pool"
          "requested %d parallel jobs but the host recommends %d domain(s); \
           effective domains clamped to 1, running serially"
          n
          (Domain.recommended_domain_count ())
      else
        Diag.emitf Diag.Warning ~solver:"pool"
          "requested %d parallel jobs but the host recommends %d domain(s); \
           effective domains clamped to %d"
          n
          (Domain.recommended_domain_count ())
          eff
  end;
  Atomic.set jobs_ref eff

let jobs () = Atomic.get jobs_ref

let in_worker_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let in_worker () = !(Domain.DLS.get in_worker_key)

(* --- participation statistics ------------------------------------------ *)

type participation = {
  batches : int;
  serial_batches : int;
  distinct_domains : int;
  max_batch_domains : int;
  tasks_per_domain : (int * int) list;
}

let part_mutex = Mutex.create ()
let part_batches = ref 0 (* guarded by part_mutex, like the rest *)
let part_max_batch = ref 0
let part_tasks : (int, int) Hashtbl.t = Hashtbl.create 8

(* Serial/nested batches are counted in per-domain counters, NOT under
   [part_mutex]: nested runs inside worker domains are the common case
   during sweeps, and a shared mutex here would add a cross-domain
   serialization point to the very path the stats are meant to measure.
   Each domain registers its counter record once (under [part_mutex], on
   first use); [record_serial] afterwards only touches its own atomics,
   which are uncontended.  [participation]/[reset_participation] merge or
   clear the registered counters under the mutex. *)
type serial_counter = {
  sc_dom : int;
  sc_batches : int Atomic.t;
  sc_tasks : int Atomic.t;
}

let serial_counters : serial_counter list ref = ref [] (* guarded by part_mutex *)

let serial_key : serial_counter Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c =
        { sc_dom = (Domain.self () :> int);
          sc_batches = Atomic.make 0;
          sc_tasks = Atomic.make 0 }
      in
      Mutex.protect part_mutex (fun () ->
          serial_counters := c :: !serial_counters);
      c)

let reset_participation () =
  Mutex.protect part_mutex (fun () ->
      part_batches := 0;
      part_max_batch := 0;
      Hashtbl.reset part_tasks;
      List.iter
        (fun c ->
          Atomic.set c.sc_batches 0;
          Atomic.set c.sc_tasks 0)
        !serial_counters)

let participation () =
  Mutex.protect part_mutex (fun () ->
      let merged = Hashtbl.copy part_tasks in
      let serial = ref 0 in
      List.iter
        (fun c ->
          serial := !serial + Atomic.get c.sc_batches;
          let t = Atomic.get c.sc_tasks in
          if t > 0 then
            Hashtbl.replace merged c.sc_dom
              ((match Hashtbl.find_opt merged c.sc_dom with
               | Some x -> x
               | None -> 0)
              + t))
        !serial_counters;
      let tasks =
        List.sort compare
          (Hashtbl.fold (fun d c acc -> (d, c) :: acc) merged [])
      in
      { batches = !part_batches;
        serial_batches = !serial;
        distinct_domains = List.length tasks;
        max_batch_domains = !part_max_batch;
        tasks_per_domain = tasks })

let bump_domain d c =
  Hashtbl.replace part_tasks d
    ((match Hashtbl.find_opt part_tasks d with Some x -> x | None -> 0) + c)

let record_serial n =
  let c = Domain.DLS.get serial_key in
  Atomic.incr c.sc_batches;
  ignore (Atomic.fetch_and_add c.sc_tasks n)

(* chunk_domain.(c) = id of the domain that executed chunk c (written
   once, before the release on [remaining]; read by the caller after the
   completion handshake, so the values are published) *)
let record_batch ~n ~chunk chunk_domain =
  let per = Hashtbl.create 8 in
  Array.iteri
    (fun c d ->
      if d >= 0 then begin
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        Hashtbl.replace per d
          ((match Hashtbl.find_opt per d with Some x -> x | None -> 0)
          + (hi - lo))
      end)
    chunk_domain;
  Mutex.protect part_mutex (fun () ->
      incr part_batches;
      let distinct = Hashtbl.length per in
      if distinct > !part_max_batch then part_max_batch := distinct;
      Hashtbl.iter bump_domain per)

(* --- the shared queue and its worker domains --------------------------- *)

(* [bid] ties a queued batch token to its batch so the tokens of a
   completed batch can be purged (0 = a server job, never purged).
   Without the purge, leftover tokens of a finished batch linger in the
   queue, retaining the batch's slots array and delaying server [submit]
   jobs behind dead no-ops. *)
type qitem = { bid : int; go : unit -> unit }

let qmutex = Mutex.create ()
let qcond = Condition.create ()
let queue : qitem Queue.t = Queue.create ()
let worker_handles : unit Domain.t list ref = ref [] (* guarded by qmutex *)
let live_workers = ref 0 (* guarded by qmutex *)
let stopping = ref false (* guarded by qmutex *)

let queue_length () = Mutex.protect qmutex (fun () -> Queue.length queue)

let worker_main () =
  (* the flag stays set for the worker's whole life: anything executed
     here — batch tasks and server jobs alike — must not re-enter the
     pool in parallel *)
  Domain.DLS.get in_worker_key := true;
  let rec loop () =
    Mutex.lock qmutex;
    while Queue.is_empty queue && not !stopping do
      Condition.wait qcond qmutex
    done;
    match Queue.take_opt queue with
    | None ->
        (* stopping and drained *)
        Mutex.unlock qmutex
    | Some item ->
        Mutex.unlock qmutex;
        (* tasks store their own outcome and must not raise; a raise here
           would kill the worker, so swallow as a last resort *)
        (try item.go () with _ -> ());
        loop ()
  in
  loop ()

let ensure_workers target =
  if target > 0 then
    Mutex.protect qmutex (fun () ->
        if not !stopping then
          while !live_workers < target do
            worker_handles := Domain.spawn worker_main :: !worker_handles;
            incr live_workers
          done)

let workers () = Mutex.protect qmutex (fun () -> !live_workers)

let enqueue items =
  Mutex.protect qmutex (fun () ->
      List.iter (fun it -> Queue.add it queue) items;
      Condition.broadcast qcond)

let purge_batch bid =
  Mutex.protect qmutex (fun () ->
      let n = Queue.length queue in
      (* rotate once, dropping this batch's tokens and keeping order *)
      for _ = 1 to n do
        let it = Queue.pop queue in
        if it.bid <> bid then Queue.add it queue
      done)

let shutdown () =
  let handles =
    Mutex.protect qmutex (fun () ->
        stopping := true;
        Condition.broadcast qcond;
        let hs = !worker_handles in
        worker_handles := [];
        hs)
  in
  List.iter Domain.join handles;
  Mutex.protect qmutex (fun () ->
      live_workers := 0;
      stopping := false)

(* --- chunked work-stealing batches ------------------------------------- *)

type 'a outcome = Done of 'a | Raised of exn * Printexc.raw_backtrace

let run_seq n f = Array.init n f

let batch_counter = Atomic.make 0

(* Execute tasks [0, n) as claimed chunks of [chunk] indices across up to
   [j] participants (the caller plus j-1 queue tokens).  [exec lo hi]
   runs tasks lo..hi-1; a raise is captured per chunk (returned in chunk
   order) and never kills a worker.  Returns (per-chunk exceptions,
   per-chunk executing domain) after every chunk has finished. *)
let run_batch ~j ~n ~chunk ~exec =
  let deadline = Deadline.current () in
  let nchunks = (n + chunk - 1) / chunk in
  let claimed = Array.init nchunks (fun _ -> Atomic.make false) in
  let chunk_domain = Array.make nchunks (-1) in
  let chunk_exn = Array.make nchunks None in
  let remaining = Atomic.make nchunks in
  let completed = Atomic.make false in
  let bmutex = Mutex.create () and bcond = Condition.create () in
  let bid = 1 + Atomic.fetch_and_add batch_counter 1 in
  (* claim-and-run loop shared by the calling domain (p = 0) and any
     worker that picks up one of this batch's tokens (p = 1..j-1): start
     claiming inside the own region, steal from the others once drained *)
  let work p =
    if not (Atomic.get completed) then begin
      let flag = Domain.DLS.get in_worker_key in
      let saved = !flag in
      flag := true;
      Fun.protect
        ~finally:(fun () -> flag := saved)
        (fun () ->
          let me = (Domain.self () :> int) in
          let start = p * nchunks / j in
          let continue_ = ref true in
          while !continue_ do
            let found = ref (-1) in
            let k = ref 0 in
            while !found < 0 && !k < nchunks do
              let c = (start + !k) mod nchunks in
              if
                (not (Atomic.get claimed.(c)))
                && Atomic.compare_and_set claimed.(c) false true
              then found := c
              else incr k
            done;
            match !found with
            | -1 -> continue_ := false
            | c ->
                chunk_domain.(c) <- me;
                let lo = c * chunk and hi = min n ((c + 1) * chunk) in
                (try Deadline.with_current deadline (fun () -> exec lo hi)
                 with e ->
                   chunk_exn.(c) <- Some (e, Printexc.get_raw_backtrace ()));
                if Atomic.fetch_and_add remaining (-1) = 1 then begin
                  Atomic.set completed true;
                  Mutex.protect bmutex (fun () -> Condition.broadcast bcond)
                end
          done)
    end
  in
  let helpers = min (j - 1) (nchunks - 1) in
  ensure_workers helpers;
  enqueue
    (List.init helpers (fun i -> { bid; go = (fun () -> work (i + 1)) }));
  work 0;
  Mutex.lock bmutex;
  while Atomic.get remaining > 0 do
    Condition.wait bcond bmutex
  done;
  Mutex.unlock bmutex;
  (* leftover tokens of this batch are dead weight for later batches and
     server jobs, and they retain the batch's arrays — drop them now *)
  purge_batch bid;
  record_batch ~n ~chunk chunk_domain;
  (chunk_exn, chunk_domain)

(* At most ~8 chunks per participant: coarse enough that claiming is not
   a contention point, fine enough that stealing can rebalance a skewed
   batch.  Heavy batches (n not much larger than j) degenerate to one
   task per chunk, the old granularity. *)
let chunk_for ~n ~j = max 1 (n / (j * 8))

let run n f =
  let j = jobs () in
  if n <= 0 then [||]
  else if j <= 1 || n = 1 || in_worker () then begin
    record_serial n;
    run_seq n f
  end
  else begin
    let slots = Array.make n None in
    let body i =
      (* capture this task's diagnostics even when it raises — isolated,
         so a task the CALLER executes does not also stream its records
         live into the caller's own sinks (they arrive via the ordered
         replay below, exactly once, like every worker-executed task) *)
      let sink = Diag.create_sink () in
      let outcome =
        Diag.with_isolated_sink sink (fun () ->
            try Done (f i)
            with e -> Raised (e, Printexc.get_raw_backtrace ()))
      in
      slots.(i) <- Some (outcome, Diag.records sink)
    in
    let exec lo hi =
      for i = lo to hi - 1 do
        body i
      done
    in
    let chunk = chunk_for ~n ~j in
    let chunk_exn, _ = run_batch ~j ~n ~chunk ~exec in
    (* replay diagnostics in index order, stopping at the first failure.
       A failure is either a task outcome (Raised, captured by [body]) or
       a CHUNK-level raise: [Deadline.with_current] re-checks the caller's
       deadline before running a chunk, so a chunk claimed after expiry
       raises Timed_out without executing any task, leaving its slots
       [None].  Folding the chunk's exception in at its first unfilled
       index keeps the serial contract — the exception a left-to-right
       loop would have surfaced at that index. *)
    let first_exn = ref None in
    Array.iteri
      (fun i slot ->
        if !first_exn = None then
          match slot with
          | Some (outcome, records) -> (
              List.iter Diag.emit_record records;
              match outcome with
              | Done _ -> ()
              | Raised (e, bt) -> first_exn := Some (e, bt))
          | None -> (
              match chunk_exn.(i / chunk) with
              | Some (e, bt) -> first_exn := Some (e, bt)
              | None -> assert false (* a chunk finished cleanly yet left
                                        a slot empty *)))
      slots;
    (match !first_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (fun slot ->
        match slot with
        | Some (Done v, _) -> v
        | _ -> assert false (* every task finished and none raised *))
      slots
  end

let run_ranges n f =
  if n > 0 then begin
    let j = jobs () in
    let chunk = if j > 1 then chunk_for ~n ~j else n in
    if j <= 1 || in_worker () || n <= chunk then f 0 n
    else begin
      let chunk_exn, _ = run_batch ~j ~n ~chunk ~exec:f in
      (* the lowest range's exception, matching a serial left-to-right
         loop (kernels only raise Deadline.Timed_out in practice) *)
      match Array.find_opt Option.is_some chunk_exn with
      | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
      | _ -> ()
    end
  end

(* --- single jobs for the evaluation server ----------------------------- *)

type 'a job = {
  jmutex : Mutex.t;
  jcond : Condition.t;
  mutable jstate : 'a outcome option;
}

let submit ?deadline f =
  ensure_workers 1;
  let job =
    { jmutex = Mutex.create (); jcond = Condition.create (); jstate = None }
  in
  let task () =
    let outcome =
      try Done (Deadline.with_current deadline f)
      with e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect job.jmutex (fun () ->
        job.jstate <- Some outcome;
        Condition.broadcast job.jcond)
  in
  enqueue [ { bid = 0; go = task } ];
  job

let await job =
  Mutex.lock job.jmutex;
  let rec wait () =
    match job.jstate with
    | None ->
        Condition.wait job.jcond job.jmutex;
        wait ()
    | Some outcome -> outcome
  in
  let outcome = wait () in
  Mutex.unlock job.jmutex;
  match outcome with Done v -> Ok v | Raised (e, bt) -> Error (e, bt)
