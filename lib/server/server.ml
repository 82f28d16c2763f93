module Pool = Sharpe_numerics.Pool
module Deadline = Sharpe_numerics.Deadline
module Diag = Sharpe_numerics.Diag
module Structhash = Sharpe_numerics.Structhash
module Interp = Sharpe_lang.Interp
module Check = Sharpe_check.Check

type listen = [ `Unix of string | `Tcp of string * int ]

exception Bind_error of string
(* Socket setup failures (unresolvable host, port in use, bad path) are
   configuration errors, not crashes: they carry a structured Diag error
   and this dedicated exception so launchers print one clean line. *)

let bind_error fmt =
  Printf.ksprintf
    (fun msg ->
      Diag.emit Diag.Error ~solver:"server" msg;
      raise (Bind_error msg))
    fmt

type config = {
  max_request_bytes : int;
  default_timeout : float option;
  workers : int;
  max_concurrent : int;
  max_sessions : int;
  session_ttl : float option;
  session_quota : float option;
  memory_budget : int option;
  retry_after_ms : int;
  inject : (string -> unit) option;
  journal_dir : string option;
  fsync : Journal.fsync;
}

let default_config =
  { max_request_bytes = 1 lsl 20;
    default_timeout = None;
    workers = 2;
    max_concurrent = 64;
    max_sessions = 64;
    session_ttl = None;
    session_quota = None;
    memory_budget = None;
    retry_after_ms = 50;
    inject = None;
    journal_dir = None;
    fsync = Journal.Interval 0.1 }

(* --- idempotency: the replay cache -------------------------------------- *)

(* A client that retries a request after losing the response must not
   make the daemon execute it twice.  Requests carrying a [request_id]
   are remembered: the first arrival executes and stores its response
   line; duplicates replay the stored line, and a duplicate that arrives
   while the original is still executing waits for it instead of racing
   a second evaluation.  The cache holds the most recent [cap] completed
   keys (FIFO). *)
module Replay = struct
  type outcome = { r_ok : bool; r_line : string }
  type entry = Pending of Mutex.t * Condition.t | Done of outcome

  type t = {
    mutex : Mutex.t;  (** guards [tbl] and [order] *)
    tbl : (string, entry ref) Hashtbl.t;
    order : string Queue.t;  (** completed-and-kept keys, oldest first *)
    cap : int;
  }

  let create cap =
    { mutex = Mutex.create ();
      tbl = Hashtbl.create 64;
      order = Queue.create ();
      cap }

  let claim t key =
    let found =
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.tbl key with
          | Some r -> `Existing r
          | None ->
              Hashtbl.add t.tbl key
                (ref (Pending (Mutex.create (), Condition.create ())));
              `Fresh)
    in
    match found with
    | `Fresh -> `Execute
    | `Existing r -> (
        match !r with
        | Done o -> `Replay o
        | Pending (m, c) ->
            Mutex.lock m;
            let rec wait () =
              match !r with
              | Pending _ ->
                  Condition.wait c m;
                  wait ()
              | Done o -> o
            in
            let o = wait () in
            Mutex.unlock m;
            `Replay o)

  (* [keep:false] wakes any duplicates with this outcome but forgets the
     key immediately, so a later retry executes fresh — used for
     load-shed rejections, where the whole point of the retry is that
     the next attempt might be admitted. *)
  let complete t key ~keep outcome =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None -> ()
        | Some r ->
            (match !r with
            | Pending (m, c) ->
                Mutex.lock m;
                r := Done outcome;
                Condition.broadcast c;
                Mutex.unlock m
            | Done _ -> r := Done outcome);
            if keep then begin
              Queue.add key t.order;
              while Queue.length t.order > t.cap do
                Hashtbl.remove t.tbl (Queue.pop t.order)
              done
            end
            else Hashtbl.remove t.tbl key)

  (* Seed the cache from journal recovery: a duplicate request_id
     arriving after a restart replays the recorded response instead of
     re-executing.  Keys already claimed this process lifetime win. *)
  let preload t items =
    Mutex.protect t.mutex (fun () ->
        List.iter
          (fun (key, ok, line) ->
            if not (Hashtbl.mem t.tbl key) then begin
              Hashtbl.add t.tbl key (ref (Done { r_ok = ok; r_line = line }));
              Queue.add key t.order
            end)
          items;
        while Queue.length t.order > t.cap do
          Hashtbl.remove t.tbl (Queue.pop t.order)
        done)
end

(* --- state --------------------------------------------------------------- *)

(* A named session: the interpreter environment, the mutex that
   serializes requests into it, and the lifecycle accounting that feeds
   eviction (idle TTL, LRU under the session cap, memory pressure) and
   the per-session time quota. *)
type session_entry = {
  slock : Mutex.t;
  sess : Interp.Session.t;
  sname : string;
  mutable last_used : float;  (** guarded by slock *)
  mutable busy_seconds : float;  (** guarded by slock *)
  mutable approx_bytes : int;  (** guarded by slock *)
}

(* What startup recovery did, frozen for the [health] op. *)
type recovery_info = {
  recovered_sessions : int;
  skipped_expired : int;  (** journaled sessions past their TTL or quota *)
  replay_failures : int;
  dropped_bytes : int;  (** corrupt tail truncated from the journal *)
  journal_corrupt : bool;
  recovery_ms : float;
}

let no_recovery =
  { recovered_sessions = 0;
    skipped_expired = 0;
    replay_failures = 0;
    dropped_bytes = 0;
    journal_corrupt = false;
    recovery_ms = 0.0 }

type state = {
  config : config;
  stats : Stats.t;
  reg_mutex : Mutex.t;  (** guards [sessions], [expired], [last_maintenance] *)
  sessions : (string, session_entry) Hashtbl.t;
  expired : (string, unit) Hashtbl.t;
      (** tombstones of evicted names: the next request naming one gets a
          structured [session_expired] (consuming the tombstone), the one
          after that rebinds fresh *)
  admitted : int Atomic.t;  (** pool-using requests currently admitted *)
  replay : Replay.t;
  mutable last_maintenance : float;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
      (** set by SIGTERM-style drain: health answers not-ready, new work
          is shed with [overloaded], in-flight requests finish *)
  conn_mutex : Mutex.t;  (** guards [conns] *)
  mutable conns : Unix.file_descr list;
  mutable journal : Journal.t option;
      (** written before the accept loop starts, then read-only; the
          journal has its own (innermost) lock *)
  mutable recovery : recovery_info;
  started_at : float;
}

(* --- socket helpers ---------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let send_line fd line = write_all fd (line ^ "\n")

(* Feed [on_line] every newline-terminated line.  Lines longer than
   [max_bytes] are truncated to a [`Oversized] marker delivered once the
   terminating newline (or EOF) arrives, so one hostile line cannot make
   the daemon buffer unbounded input.  [on_line] returns [false] to close
   the connection. *)
let read_lines fd max_bytes on_line =
  let buf = Buffer.create 512 in
  let overflow = ref false in
  let chunk = Bytes.create 8192 in
  let continue_ = ref true in
  while !continue_ do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error (_, _, _)) -> continue_ := false
    | n ->
        let i = ref 0 in
        while !continue_ && !i < n do
          (match Bytes.get chunk !i with
          | '\n' ->
              let line = Buffer.contents buf in
              Buffer.clear buf;
              let ov = !overflow in
              overflow := false;
              if not (on_line (if ov then Error `Oversized else Ok line)) then
                continue_ := false
          | c ->
              if Buffer.length buf >= max_bytes then overflow := true
              else Buffer.add_char buf c);
          incr i
        done
  done

(* --- structured rejections ---------------------------------------------- *)

let overloaded st ~id msg =
  Stats.incr_shed st.stats;
  ( false,
    Protocol.error ~id ~kind:"overloaded"
      ~extra:
        [ ( "retry_after_ms",
            Json.Num (float_of_int st.config.retry_after_ms) ) ]
      msg )

let session_expired ~id name =
  ( false,
    Protocol.error ~id ~kind:"session_expired"
      ~extra:[ ("session", Json.Str name) ]
      (Printf.sprintf
         "session %S was evicted (idle TTL, session cap or memory \
          pressure); re-create it by re-sending its state"
         name) )

(* --- admission control --------------------------------------------------- *)

(* Bounded concurrency: at most [max_concurrent] pool-using requests
   (eval/query/selfcheck) execute or queue at once; beyond that, new ones
   are rejected immediately with a structured [overloaded] error carrying
   a retry hint instead of queuing unboundedly.  Low-priority work (the
   selfcheck audit class) only gets 3/4 of the budget, so under sustained
   overload it is shed first and interactive evaluation degrades last. *)
let try_admit st ~low_priority =
  let limit = st.config.max_concurrent in
  let limit = if low_priority then max 1 (limit * 3 / 4) else limit in
  let rec go () =
    let cur = Atomic.get st.admitted in
    if cur >= limit then false
    else if Atomic.compare_and_set st.admitted cur (cur + 1) then true
    else go ()
  in
  go ()

let admitted st ~id ~low_priority f =
  if not (try_admit st ~low_priority) then
    let ok, resp =
      overloaded st ~id
        "server is at its concurrency limit; retry after retry_after_ms"
    in
    (ok, resp, false)
  else
    Fun.protect ~finally:(fun () -> Atomic.decr st.admitted) f

(* --- sessions ----------------------------------------------------------- *)

(* Caller holds reg_mutex and e.slock. *)
let evict_locked st e =
  Hashtbl.remove st.sessions e.sname;
  (* tombstones are bounded too: under pathological churn the whole set
     resets, at worst downgrading a session_expired reply into a silent
     fresh rebind *)
  if Hashtbl.length st.expired >= 4 * st.config.max_sessions then
    Hashtbl.reset st.expired;
  Hashtbl.replace st.expired e.sname ();
  (* a journaled eviction is durable: recovery will not resurrect the
     session, and the next journal rewrite drops its records *)
  (match st.journal with Some j -> Journal.evict j e.sname | None -> ());
  Stats.incr_evictions st.stats

(* Caller holds reg_mutex.  Returns true when a session was evicted. *)
let lru_evict_locked st =
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) st.sessions [] in
  let entries =
    List.sort (fun a b -> compare a.last_used b.last_used) entries
  in
  List.exists
    (fun e ->
      (* a busy session (slock held) is by definition not LRU — skip it *)
      if Mutex.try_lock e.slock then begin
        evict_locked st e;
        Mutex.unlock e.slock;
        true
      end
      else false)
    entries

let fresh_entry name =
  { slock = Mutex.create ();
    sess = Interp.Session.create ();
    sname = name;
    last_used = Unix.gettimeofday ();
    busy_seconds = 0.0;
    approx_bytes = 0 }

let get_session st name =
  Mutex.protect st.reg_mutex (fun () ->
      match Hashtbl.find_opt st.sessions name with
      | Some e -> `Live e
      | None ->
          if Hashtbl.mem st.expired name then begin
            Hashtbl.remove st.expired name;
            `Expired
          end
          else begin
            if Hashtbl.length st.sessions >= st.config.max_sessions then
              ignore (lru_evict_locked st);
            if Hashtbl.length st.sessions >= st.config.max_sessions then `Full
            else begin
              let e = fresh_entry name in
              Hashtbl.add st.sessions name e;
              `Live e
            end
          end)

let session_count st =
  Mutex.protect st.reg_mutex (fun () -> Hashtbl.length st.sessions)

(* Resolve, lock and account one session around [f].  [f] returns
   [(ok, response, journal_entry)]: the entry (if any) is appended to the
   durability journal AFTER the busy-time accounting, so the journaled
   [busy] survives a restart and quota enforcement picks up where it left
   off.  The outer result's third component says whether the response may
   be stored in the idempotency cache (load-shed rejections must not be:
   the whole point of retrying them is a fresh attempt). *)
let with_session st ~id ?(mutates = false) ?rid session f =
  match session with
  | None ->
      (* sessionless request: a throwaway environment, discarded after *)
      let ok, resp, _entry = f (fresh_entry "") in
      (ok, resp, true)
  | Some name -> (
      match get_session st name with
      | `Expired ->
          let ok, resp = session_expired ~id name in
          (ok, resp, true)
      | `Full ->
          let ok, resp =
            overloaded st ~id
              "session table is full of busy sessions; retry after \
               retry_after_ms"
          in
          (ok, resp, false)
      | `Live e ->
          Mutex.lock e.slock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock e.slock)
            (fun () ->
              (* the entry may have been evicted between registry lookup
                 and lock acquisition: answer session_expired, consuming
                 the tombstone so the very next request rebinds *)
              let still_live =
                Mutex.protect st.reg_mutex (fun () ->
                    match Hashtbl.find_opt st.sessions name with
                    | Some e' when e' == e -> true
                    | _ ->
                        Hashtbl.remove st.expired name;
                        false)
              in
              if not still_live then
                let ok, resp = session_expired ~id name in
                (ok, resp, true)
              else
                match st.config.session_quota with
                | Some q when e.busy_seconds >= q ->
                    Stats.incr_quota_rejections st.stats;
                    ( false,
                      Protocol.error ~id ~kind:"quota_exhausted"
                        ~extra:[ ("session", Json.Str name) ]
                        (Printf.sprintf
                           "session %S has used %.3fs of its %.3fs \
                            cumulative time quota"
                           name e.busy_seconds q),
                      true )
                | _ ->
                    let t0 = Unix.gettimeofday () in
                    let ok, resp, entry = f e in
                    let t1 = Unix.gettimeofday () in
                    e.busy_seconds <- e.busy_seconds +. (t1 -. t0);
                    e.last_used <- t1;
                    if mutates then
                      e.approx_bytes <- Interp.Session.approx_bytes e.sess;
                    (match (st.journal, entry) with
                    | Some j, Some entry ->
                        (* WAL before the response is released: once the
                           client sees this line, the mutation is on disk
                           (exactly so under --fsync always) *)
                        Journal.append j ~session:name ?request_id:rid
                          ~response:(ok, resp) ~busy:e.busy_seconds entry
                    | _ -> ());
                    (ok, resp, true)))

(* --- maintenance: eviction and the memory budget ------------------------ *)

(* Runs from the accept loop (at most every 50 ms): idle-TTL eviction,
   then the global memory budget — when the summed per-session footprint
   overflows, first trim the structural solve caches, then evict
   least-recently-used sessions until the account fits again.  Busy
   sessions are never evicted (try_lock skips them), so the daemon sheds
   memory without poisoning a lock or a request in flight. *)
let maintenance st =
  let t = Unix.gettimeofday () in
  Mutex.protect st.reg_mutex (fun () ->
      if t -. st.last_maintenance >= 0.05 then begin
        st.last_maintenance <- t;
        (match st.config.session_ttl with
        | Some ttl ->
            let victims =
              Hashtbl.fold
                (fun _ e acc ->
                  if t -. e.last_used > ttl then e :: acc else acc)
                st.sessions []
            in
            List.iter
              (fun e ->
                if Mutex.try_lock e.slock then begin
                  (* recheck under the lock: the session may have served
                     a request since the scan *)
                  if t -. e.last_used > ttl then evict_locked st e;
                  Mutex.unlock e.slock
                end)
              victims
        | None -> ());
        (match st.journal with
        | Some j ->
            (* the Interval fsync policy is driven from here, so an idle
               daemon still bounds its journal lag *)
            Journal.tick j;
            Stats.set_journal st.stats ~records:(Journal.record_count j)
              ~bytes:(Journal.file_bytes j) ~lag:(Journal.lag_bytes j)
        | None -> ());
        let total =
          Hashtbl.fold (fun _ e acc -> acc + e.approx_bytes) st.sessions 0
        in
        Stats.set_session_bytes st.stats total;
        match st.config.memory_budget with
        | Some budget when total > budget ->
            Structhash.trim_all ();
            let entries =
              Hashtbl.fold (fun _ e acc -> e :: acc) st.sessions []
            in
            let entries =
              List.sort (fun a b -> compare a.last_used b.last_used) entries
            in
            let excess = ref (total - budget) in
            List.iter
              (fun e ->
                if !excess > 0 && Mutex.try_lock e.slock then begin
                  evict_locked st e;
                  excess := !excess - e.approx_bytes;
                  Mutex.unlock e.slock
                end)
              entries
        | _ -> ()
      end)

let deadline_of st timeout =
  match (timeout, st.config.default_timeout) with
  | Some s, _ | None, Some s -> Some (Unix.gettimeofday () +. s)
  | None, None -> None

(* --- request handlers --------------------------------------------------- *)

let inject st op =
  match st.config.inject with Some f -> f op | None -> ()

let count_error_diags records =
  List.length
    (List.filter (fun r -> r.Diag.severity = Diag.Error) records)

let handle_eval st ~id ?rid ~session ~src ~timeout () =
  with_session st ~id ~mutates:true ?rid session (fun e ->
      let deadline = deadline_of st timeout in
      let job =
        Pool.submit ?deadline (fun () ->
            inject st "eval";
            Interp.Session.eval e.sess src)
      in
      match Pool.await job with
      | Ok (output, outcome) ->
          let errs = count_error_diags outcome.Interp.diagnostics in
          Stats.add_error_diagnostics st.stats errs;
          ( outcome.Interp.failed_statements = 0,
            Protocol.ok ~id
              [ ("output", Json.Str output);
                ( "failed_statements",
                  Json.Num (float_of_int outcome.Interp.failed_statements) );
                ( "diagnostics",
                  Protocol.diagnostics_json outcome.Interp.diagnostics ) ],
            Some (`Eval src) )
      | Error (Deadline.Timed_out, _) ->
          (* journaled all the same: the session already absorbed the
             statements that ran before cancellation, and recovery
             re-executes the whole fragment (see PROTOCOL.md) *)
          ( false,
            Protocol.error ~id ~kind:"timeout"
              ~extra:
                [ ("partial_output", Json.Str (Interp.Session.pending_output e.sess)) ]
              "request exceeded its deadline and was cancelled",
            Some (`Eval src) )
      | Error (exn, _) ->
          ( false,
            Protocol.error ~id ~kind:"internal_error" (Printexc.to_string exn),
            None ))

let handle_query st ~id ~session ~expr ~timeout =
  (* queries are read-only: nothing to journal *)
  with_session st ~id (Some session) (fun e ->
      let deadline = deadline_of st timeout in
      let job =
        Pool.submit ?deadline (fun () ->
            inject st "query";
            Diag.capture (fun () -> Interp.Session.query e.sess expr))
      in
      match Pool.await job with
      | Ok (result, records) -> (
          Stats.add_error_diagnostics st.stats (count_error_diags records);
          let diagnostics = ("diagnostics", Protocol.diagnostics_json records) in
          match result with
          | Ok v -> (true, Protocol.ok ~id [ ("value", Json.Num v); diagnostics ], None)
          | Error msg ->
              (false, Protocol.error ~id ~kind:"eval_error" ~extra:[ diagnostics ] msg, None))
      | Error (Deadline.Timed_out, _) ->
          ( false,
            Protocol.error ~id ~kind:"timeout"
              "request exceeded its deadline and was cancelled",
            None )
      | Error (exn, _) ->
          ( false,
            Protocol.error ~id ~kind:"internal_error" (Printexc.to_string exn),
            None ))

(* A live daemon can be audited without restarting it: run the
   differential harness on a pool worker (cancellable by deadline like
   any other request) and return the per-pair summary plus every
   diagnostic the run produced.  The model cap bounds one request's CPU
   time; the response's [clean] flag is the audit verdict. *)
let selfcheck_max_count = 10_000

let handle_selfcheck st ~id ~count ~seed ~timeout =
  let count = Option.value count ~default:200 in
  let seed = Option.value seed ~default:2002 in
  if count < 1 || count > selfcheck_max_count then
    ( false,
      Protocol.error ~id ~kind:"bad_request"
        (Printf.sprintf "count must be between 1 and %d" selfcheck_max_count),
      true )
  else begin
    let deadline = deadline_of st timeout in
    let job =
      Pool.submit ?deadline (fun () ->
          inject st "selfcheck";
          Diag.capture (fun () -> Check.run ~seed ~count ()))
    in
    match Pool.await job with
    | Ok (rep, records) ->
        let errs = count_error_diags records in
        Stats.add_error_diagnostics st.stats errs;
        let ndisc = List.length rep.Check.r_discrepancies in
        let clean = ndisc = 0 && errs = 0 in
        let pairs =
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [ ("name", Json.Str p.Check.p_name);
                     ("models", Json.Num (float_of_int p.Check.p_models));
                     ( "comparisons",
                       Json.Num (float_of_int p.Check.p_comparisons) );
                     ("skipped", Json.Num (float_of_int p.Check.p_skipped));
                     ("errors", Json.Num (float_of_int p.Check.p_errors));
                     ("worst_rel_err", Json.Num p.Check.p_worst) ])
               rep.Check.r_pairs)
        in
        ( clean,
          Protocol.ok ~id
            [ ("seed", Json.Num (float_of_int seed));
              ("tolerance", Json.Num rep.Check.r_tol);
              ("models", Json.Num (float_of_int (Check.total_models rep)));
              ("discrepancies", Json.Num (float_of_int ndisc));
              ("errors", Json.Num (float_of_int errs));
              ("clean", Json.Bool clean);
              ("pairs", pairs);
              ("diagnostics", Protocol.diagnostics_json records) ],
          true )
    | Error (Deadline.Timed_out, _) ->
        ( false,
          Protocol.error ~id ~kind:"timeout"
            "selfcheck exceeded its deadline and was cancelled",
          true )
    | Error (exn, _) ->
        ( false,
          Protocol.error ~id ~kind:"internal_error" (Printexc.to_string exn),
          true )
  end

let handle_bind st ~id ?rid ~session ~name ~value () =
  with_session st ~id ~mutates:true ?rid (Some session) (fun e ->
      Interp.Session.bind e.sess name value;
      (true, Protocol.ok ~id [ ("bound", Json.Str name) ], Some (`Bind (name, value))))

let handle_health st ~id =
  let now = Unix.gettimeofday () in
  let r = st.recovery in
  let journal_fields =
    match st.journal with
    | None -> [ ("journal", Json.Bool false) ]
    | Some j ->
        [ ("journal", Json.Bool true);
          ("journal_bytes", Json.Num (float_of_int (Journal.file_bytes j)));
          ("journal_lag_bytes", Json.Num (float_of_int (Journal.lag_bytes j)));
          ( "last_fsync_age_s",
            match Journal.last_sync_age j with
            | Some a -> Json.Num a
            | None -> Json.Null ) ]
  in
  ( true,
    Protocol.ok ~id
      ([ ( "ready",
           Json.Bool
             (not (Atomic.get st.draining) && not (Atomic.get st.stop)) );
         ("draining", Json.Bool (Atomic.get st.draining));
         ("uptime_s", Json.Num (now -. st.started_at));
         ("sessions", Json.Num (float_of_int (session_count st)));
         ("recovered_sessions", Json.Num (float_of_int r.recovered_sessions));
         ("skipped_expired", Json.Num (float_of_int r.skipped_expired));
         ("replay_failures", Json.Num (float_of_int r.replay_failures));
         ("recovery_ms", Json.Num r.recovery_ms);
         ("journal_corrupt_tail", Json.Bool r.journal_corrupt);
         ("journal_dropped_bytes", Json.Num (float_of_int r.dropped_bytes)) ]
      @ journal_fields),
    true )

let dispatch st ~id ~rid req =
  let draining_shed () =
    let ok, resp =
      overloaded st ~id "server is draining; retry against the restarted daemon"
    in
    (ok, resp, false)
  in
  match req with
  | Protocol.Ping -> (true, Protocol.ok ~id [ ("pong", Json.Bool true) ], true)
  | (Protocol.Eval _ | Protocol.Bind _ | Protocol.Query _ | Protocol.Selfcheck _)
    when Atomic.get st.draining ->
      (* a draining daemon finishes in-flight work but sheds new work;
         ping/stats/health stay answerable for supervisors *)
      draining_shed ()
  | Protocol.Eval { session; src; timeout } ->
      admitted st ~id ~low_priority:false
        (handle_eval st ~id ?rid ~session ~src ~timeout)
  | Protocol.Bind { session; name; value } ->
      handle_bind st ~id ?rid ~session ~name ~value ()
  | Protocol.Query { session; expr; timeout } ->
      admitted st ~id ~low_priority:false (fun () ->
          handle_query st ~id ~session ~expr ~timeout)
  | Protocol.Selfcheck { count; seed; timeout } ->
      admitted st ~id ~low_priority:true (fun () ->
          handle_selfcheck st ~id ~count ~seed ~timeout)
  | Protocol.Stats ->
      Stats.set_sessions st.stats (session_count st);
      (true, Protocol.ok ~id [ ("stats", Stats.to_json st.stats) ], true)
  | Protocol.Health -> handle_health st ~id
  | Protocol.Shutdown ->
      Atomic.set st.stop true;
      (true, Protocol.ok ~id [ ("stopping", Json.Bool true) ], true)

let handle_request st parsed =
  let id = parsed.Protocol.id in
  match parsed.Protocol.req with
  | Error msg -> ("invalid", false, Protocol.error ~id ~kind:"bad_request" msg)
  | Ok req -> (
      let op = Protocol.op_name req in
      let exec () =
        (* panic barrier: ANY exception escaping a handler — a crashing
           worker job, an interpreter bug, an unexpected unwind — becomes
           a structured internal_error response and a healthy daemon, not
           a dead connection or a poisoned pool *)
        try dispatch st ~id ~rid:parsed.Protocol.request_id req
        with exn ->
          ( false,
            Protocol.error ~id ~kind:"internal_error"
              ("unexpected exception: " ^ Printexc.to_string exn),
            true )
      in
      let replay_key =
        match req with
        | Protocol.Eval _ | Protocol.Bind _ | Protocol.Query _
        | Protocol.Selfcheck _ ->
            parsed.Protocol.request_id
        | Protocol.Ping | Protocol.Stats | Protocol.Health | Protocol.Shutdown
          ->
            None
      in
      match replay_key with
      | None ->
          let ok, resp, _keep = exec () in
          (op, ok, resp)
      | Some key -> (
          match Replay.claim st.replay key with
          | `Replay o ->
              Stats.incr_replays st.stats;
              (op, o.Replay.r_ok, o.Replay.r_line)
          | `Execute ->
              let ok, resp, keep = exec () in
              Replay.complete st.replay key ~keep
                { Replay.r_ok = ok; r_line = resp };
              (op, ok, resp)))

(* --- connections -------------------------------------------------------- *)

let track_conn st fd =
  Mutex.protect st.conn_mutex (fun () -> st.conns <- fd :: st.conns)

let untrack_conn st fd =
  Mutex.protect st.conn_mutex (fun () ->
      st.conns <- List.filter (fun c -> c != fd) st.conns)

let handle_connection st fd =
  let respond line =
    match send_line fd line with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  (try
     read_lines fd st.config.max_request_bytes (fun line ->
         match line with
         | Ok line when String.trim line = "" -> true
         | Ok line ->
             Stats.incr_in_flight st.stats;
             let t0 = Unix.gettimeofday () in
             let op, ok, resp =
               handle_request st (Protocol.parse_request line)
             in
             Stats.decr_in_flight st.stats;
             Stats.record st.stats ~op ~ok
               ~seconds:(Unix.gettimeofday () -. t0);
             respond resp && not (Atomic.get st.stop)
         | Error `Oversized ->
             Stats.record st.stats ~op:"invalid" ~ok:false ~seconds:0.0;
             respond
               (Protocol.error ~id:Json.Null ~kind:"oversized"
                  (Printf.sprintf "request exceeds %d bytes"
                     st.config.max_request_bytes)))
   with _ -> ());
  untrack_conn st fd;
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

(* --- the accept loop ---------------------------------------------------- *)

let bind_socket = function
  | `Unix path -> (
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind s (Unix.ADDR_UNIX path);
        s
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close s with Unix.Unix_error (_, _, _) -> ());
        bind_error "cannot bind unix socket %S: %s" path (Unix.error_message e))
  | `Tcp (host, port) -> (
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ | (exception Not_found) ->
              bind_error "cannot resolve host %S" host)
      in
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      try
        Unix.bind s (Unix.ADDR_INET (addr, port));
        s
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close s with Unix.Unix_error (_, _, _) -> ());
        bind_error "cannot bind %s:%d: %s" host port (Unix.error_message e))

(* --- startup recovery ---------------------------------------------------- *)

(* Rebuild sessions from the recovered journal by re-evaluating their
   journaled entries in order (evaluation is deterministic, so the rebuilt
   environment matches the pre-crash one).  Runs before the socket is
   bound, on the accept thread, with no concurrency to fight: sessions
   are installed directly.  PR-6 lifecycle is honored — sessions whose
   last journal record is older than the idle TTL, or whose journaled
   busy-time already exhausts the quota, are tombstoned instead of
   resurrected (the tombstone gives the next request naming them one
   structured [session_expired] rather than a silent fresh rebind). *)
let recover st j (r : Journal.recovered) ~t0 =
  let now = Unix.gettimeofday () in
  let recovered = ref 0 and skipped = ref 0 and failures = ref 0 in
  List.iter
    (fun rs ->
      let name = rs.Journal.rs_name in
      let dead =
        (match st.config.session_ttl with
        | Some ttl -> now -. rs.Journal.rs_last_ts > ttl
        | None -> false)
        ||
        match st.config.session_quota with
        | Some q -> rs.Journal.rs_busy >= q
        | None -> false
      in
      if dead then begin
        incr skipped;
        Hashtbl.replace st.expired name ();
        Journal.evict j name
      end
      else begin
        let e = fresh_entry name in
        e.busy_seconds <- rs.Journal.rs_busy;
        (try
           List.iter
             (function
               | `Eval src -> ignore (Interp.Session.eval e.sess src)
               | `Bind (n, v) -> Interp.Session.bind e.sess n v)
             rs.Journal.rs_entries
         with exn ->
           (* a replay should never raise (eval recovers per statement);
              if one does, keep what was rebuilt rather than losing the
              session outright *)
           incr failures;
           Diag.emitf Diag.Warning ~solver:"journal"
             "replaying session %S raised %s; keeping the partially \
              rebuilt session"
             name (Printexc.to_string exn));
        e.approx_bytes <- Interp.Session.approx_bytes e.sess;
        e.last_used <- now;
        Hashtbl.replace st.sessions name e;
        incr recovered
      end)
    r.Journal.r_sessions;
  Replay.preload st.replay r.Journal.r_replays;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  st.recovery <-
    { recovered_sessions = !recovered;
      skipped_expired = !skipped;
      replay_failures = !failures;
      dropped_bytes = r.Journal.r_dropped_bytes;
      journal_corrupt = r.Journal.r_corrupt;
      recovery_ms = ms };
  if !recovered + !skipped > 0 || r.Journal.r_corrupt then
    Diag.emitf Diag.Info ~solver:"journal"
      "recovered %d session(s) (%d expired, %d replay failure(s), %d \
       request id(s)) in %.1f ms"
      !recovered !skipped !failures
      (List.length r.Journal.r_replays)
      ms

let serve ?(config = default_config) ?ready ?drain listen =
  (* a client that disconnects mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Pool.ensure_workers (max 1 config.workers);
  let st =
    { config;
      stats = Stats.create ();
      reg_mutex = Mutex.create ();
      sessions = Hashtbl.create 16;
      expired = Hashtbl.create 16;
      admitted = Atomic.make 0;
      replay = Replay.create 512;
      last_maintenance = 0.0;
      stop = Atomic.make false;
      draining = Atomic.make false;
      conn_mutex = Mutex.create ();
      conns = [];
      journal = None;
      recovery = no_recovery;
      started_at = Unix.gettimeofday () }
  in
  (match config.journal_dir with
  | Some dir ->
      let t0 = Unix.gettimeofday () in
      let j, r = Journal.open_ ~dir ~fsync:config.fsync in
      st.journal <- Some j;
      recover st j r ~t0
  | None -> ());
  let sock = bind_socket listen in
  Unix.listen sock 64;
  (match ready with Some f -> f () | None -> ());
  let threads = ref [] in
  while not (Atomic.get st.stop) do
    (* poll so a shutdown request is noticed without a wake-up connection,
       and so session maintenance runs on an idle daemon too *)
    (match drain with
    | Some d when Atomic.get d && not (Atomic.get st.draining) ->
        (* graceful drain (SIGTERM): stop accepting, shed new work, let
           in-flight requests finish, flush the journal, exit cleanly *)
        Atomic.set st.draining true;
        Atomic.set st.stop true;
        Diag.emit Diag.Info ~solver:"server"
          "drain requested; finishing in-flight work and flushing the \
           journal"
    | _ -> ());
    maintenance st;
    match Unix.select [ sock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept sock with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _ ->
            if Atomic.get st.stop then Unix.close fd
            else begin
              track_conn st fd;
              threads :=
                Thread.create (fun () -> handle_connection st fd) ()
                :: !threads
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
  (match listen with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Tcp _ -> ());
  (* nudge idle connections: shutdown (not close) so each connection
     thread sees EOF, finishes its current request, and closes its own fd *)
  Mutex.protect st.conn_mutex (fun () ->
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error (_, _, _) -> ())
        st.conns);
  List.iter Thread.join !threads;
  (* every in-flight request has now released its response, so its
     journal record is already appended; flush and close so the file
     carries everything the clients saw *)
  (match st.journal with Some j -> Journal.close j | None -> ());
  (* join the pool's worker domains too: the OCaml runtime waits for
     every domain at process exit, so leaving them parked on the queue
     would make the daemon hang after a clean shutdown.  The pool
     restarts lazily if this process evaluates anything afterwards. *)
  Pool.shutdown ()
