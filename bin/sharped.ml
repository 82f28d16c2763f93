(* sharped: the SHARPE evaluation daemon.

   Serves the newline-delimited JSON protocol of PROTOCOL.md on a
   Unix-domain socket (--socket) or a loopback TCP port (--port).  The
   process runs in the foreground until a client sends a shutdown
   request; sharpec(1) is a matching command-line client. *)

module Server = Sharpe_server.Server
module Journal = Sharpe_server.Journal

let run socket port host workers timeout max_bytes max_concurrent
    max_sessions session_ttl session_quota memory_budget_mb journal_dir fsync =
  let config =
    { Server.default_config with
      Server.max_request_bytes = max_bytes;
      default_timeout = timeout;
      workers = max 1 workers;
      max_concurrent = max 1 max_concurrent;
      max_sessions = max 1 max_sessions;
      session_ttl;
      session_quota;
      memory_budget =
        Option.map (fun mb -> max 1 mb * 1024 * 1024) memory_budget_mb;
      journal_dir;
      fsync }
  in
  (* graceful drain on SIGTERM/SIGINT: the handler only flips an atomic;
     the accept loop notices it within its 100 ms poll, stops accepting,
     sheds new work, finishes in-flight requests, flushes the journal and
     lets serve return — so a supervisor's stop signal exits 0 with a
     journal a replacement daemon can recover *)
  let drain = Atomic.make false in
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> Atomic.set drain true));
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle (fun _ -> Atomic.set drain true))
   with Invalid_argument _ -> ());
  match (socket, port) with
  | Some _, Some _ ->
      prerr_endline "sharped: --socket and --port are mutually exclusive";
      Cmdliner.Cmd.Exit.cli_error
  | None, None ->
      prerr_endline "sharped: one of --socket PATH or --port PORT is required";
      Cmdliner.Cmd.Exit.cli_error
  | Some path, None -> (
      try
        Server.serve ~config ~drain (`Unix path);
        0
      with Server.Bind_error msg ->
        prerr_endline ("sharped: " ^ msg);
        1)
  | None, Some port -> (
      try
        Server.serve ~config ~drain (`Tcp (host, port));
        0
      with Server.Bind_error msg ->
        prerr_endline ("sharped: " ^ msg);
        1)

open Cmdliner

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on the Unix-domain socket $(docv).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP port $(docv).")

let host =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST"
        ~doc:"Address to bind with $(b,--port) (default loopback only).")

let workers =
  Arg.(
    value
    & opt int Server.default_config.Server.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains to pre-warm.  Requests multiplex onto these \
           domains; more workers means more truly concurrent evaluations.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request deadline applied when a request carries no \
           $(i,timeout) field of its own (default: none).")

let max_bytes =
  Arg.(
    value
    & opt int Server.default_config.Server.max_request_bytes
    & info [ "max-request-bytes" ] ~docv:"BYTES"
        ~doc:
          "Reject request lines longer than $(docv) with an \
           $(i,oversized) error response.")

let max_concurrent =
  Arg.(
    value
    & opt int Server.default_config.Server.max_concurrent
    & info [ "max-concurrent" ] ~docv:"N"
        ~doc:
          "Admission limit: at most $(docv) evaluating requests run at \
           once; beyond it requests are rejected immediately with a \
           structured $(i,overloaded) error and a retry hint.")

let max_sessions =
  Arg.(
    value
    & opt int Server.default_config.Server.max_sessions
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Cap on live named sessions; past it the least-recently-used \
           idle session is evicted to make room.")

let session_ttl =
  Arg.(
    value
    & opt (some float) None
    & info [ "session-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Evict sessions idle longer than $(docv) seconds (default: \
           never).")

let session_quota =
  Arg.(
    value
    & opt (some float) None
    & info [ "session-quota" ] ~docv:"SECONDS"
        ~doc:
          "Per-session cumulative evaluation-time budget; exhausted \
           sessions answer $(i,quota_exhausted) until evicted (default: \
           unlimited).")

let memory_budget_mb =
  Arg.(
    value
    & opt (some int) None
    & info [ "memory-budget-mb" ] ~docv:"MB"
        ~doc:
          "Global budget for the summed approximate footprint of all \
           sessions; past it solve caches are trimmed and idle sessions \
           evicted, least recently used first (default: unlimited).")

let journal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:
          "Write-ahead-log every session-mutating request to \
           $(docv)/journal.wal and recover sessions from it on startup, \
           so a crash or restart preserves client sessions (default: no \
           journal, sessions are RAM-only).  One daemon per directory.")

let fsync_conv =
  let parse s =
    match Journal.fsync_of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (Journal.fsync_to_string f))

let fsync =
  Arg.(
    value
    & opt fsync_conv Server.default_config.Server.fsync
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal fsync policy: $(b,always) (a response implies the \
           record is on disk), $(b,interval)[:MS] (sync at most every MS \
           milliseconds, default 100 — bounds the loss window), or \
           $(b,never) (leave syncing to the OS).")

let cmd =
  let doc = "SHARPE evaluation daemon" in
  let man =
    [ `S Manpage.s_description;
      `P "Long-running evaluation server for the SHARPE language: clients \
          send newline-delimited JSON requests (eval, bind, query, stats, \
          ping, shutdown) and receive one JSON response line per request. \
          Named sessions keep interpreter state (bindings, models, number \
          format) alive between requests; structural solve caches and \
          warm worker domains are shared across all requests, so repeated \
          evaluations are much faster than one process per model file. \
          See PROTOCOL.md for the wire format." ]
  in
  Cmd.v (Cmd.info "sharped" ~version:"2002-ocaml" ~doc ~man)
    Term.(
      const run $ socket $ port $ host $ workers $ timeout $ max_bytes
      $ max_concurrent $ max_sessions $ session_ttl $ session_quota
      $ memory_budget_mb $ journal_dir $ fsync)

let () = exit (Cmd.eval' cmd)
