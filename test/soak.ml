(* The daemon's soaks: the chaos soak, then the crash-recovery soak.

   Usage (from the repository root, after `dune build`):
     ./_build/default/test/soak.exe

   It runs 16 clients against an in-process daemon for 5 s with seed 1,
   then SIGKILLs and restarts the real sharped binary, and writes the
   recovery metrics to BENCH_server.json in the working directory.  It
   exits 1 when either soak fails.  Not part of `dune runtest`: it spawns
   sharped, takes about 6 s and rewrites BENCH_server.json; ci.sh runs
   it. *)

let printf = Printf.printf
let seconds = 5.0
let clients = 16
let seed = 1

(* ====================================================================== *)
(* chaos soak: fault injection against an in-process daemon             *)
(* ====================================================================== *)

(* [chaos_main] runs an in-process sharped under deliberately hostile
   conditions — injected worker-job crashes and slowdowns, malformed
   frames, mid-request disconnects, and session churn against a small
   session cap with a short TTL — while N concurrent clients replay
   [chaos_model] below.

   Pass criteria: the daemon never crashes (it still answers at the
   end), every successful eval's output is byte-identical to the golden
   output computed in-process, every failure is a parseable structured
   response with a known error kind, the session count stays within its
   cap, and process RSS stays bounded. *)

let chaos_allowed_kinds =
  [ "bad_request"; "oversized"; "overloaded"; "timeout"; "internal_error";
    "session_expired"; "quota_exhausted"; "eval_error" ]

(* the soak's golden eval: a two-place SRN's steady-state reward *)
let chaos_model =
  {|format 8
func nup() #(up)
srn m ()
up 2
dn 0
end
fl placedep up 0.5
rp ind 1.0
end
end
up fl 1
dn rp 1
end
fl dn 1
rp up 1
end
end
expr srn_exrss(m; nup)
end
|}

let rss_bytes () =
  try
    let ic = open_in "/proc/self/statm" in
    let line = input_line ic in
    close_in ic;
    match String.split_on_char ' ' line with
    | _ :: resident :: _ -> Some (int_of_string resident * 4096)
    | _ -> None
  with Sys_error _ | End_of_file | Failure _ -> None

let chaos_main ~seconds ~clients ~seed =
  let module Server = Sharpe_server.Server in
  let module Client = Sharpe_server.Client in
  let module Json = Sharpe_server.Json in
  let module Srng = Sharpe_check.Srng in
  let module Interp = Sharpe_lang.Interp in
  (* the golden answer, computed once without any daemon in the way *)
  let expected_output, expected_outcome =
    Interp.Session.eval (Interp.Session.create ()) chaos_model
  in
  if expected_outcome.Interp.failed_statements <> 0 then
    failwith "chaos: golden model fails outside the daemon";
  (* the fault injector runs on pool worker domains concurrently, so it
     derives per-call determinism from an atomic call counter rather
     than shared PRNG state *)
  let inj_calls = Atomic.make 0 in
  let inject _op =
    let k = Atomic.fetch_and_add inj_calls 1 in
    let r = Srng.make ((seed * 1_000_003) + k) in
    let x = Srng.float r in
    if x < 0.05 then failwith "chaos: injected worker fault"
    else if x < 0.10 then Thread.delay 0.05
  in
  let config =
    { Server.default_config with
      workers = 4;
      max_concurrent = 8;
      max_sessions = 8;
      session_ttl = Some 0.2;
      default_timeout = Some 2.0;
      retry_after_ms = 5;
      inject = Some inject }
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sharpe_chaos_%d.sock" (Unix.getpid ()))
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~config
          ~ready:(fun () ->
            Mutex.protect ready_m (fun () ->
                ready := true;
                Condition.signal ready_c))
          (`Unix sock))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let n_ok = Atomic.make 0
  and n_failed = Atomic.make 0
  and n_replayed_retries = Atomic.make 0
  and mismatches = Atomic.make 0
  and violations = Atomic.make 0 in
  let vmutex = Mutex.create () in
  let violation_msgs = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun m ->
        Atomic.incr violations;
        Mutex.protect vmutex (fun () -> violation_msgs := m :: !violation_msgs))
      fmt
  in
  let check_response = function
    | Error e ->
        (* transport-level failure AFTER bounded client retry: under
           injected faults the response can be lost, that is not a
           protocol violation — but it must stay the exception *)
        Atomic.incr n_failed;
        ignore (Client.error_to_string e)
    | Ok resp -> (
        if Json.member "ok" resp = Some (Json.Bool true) then begin
          Atomic.incr n_ok;
          match Option.bind (Json.member "output" resp) Json.to_str with
          | Some out when out <> expected_output ->
              Atomic.incr mismatches;
              violate "eval output diverged from golden: %S (want %S)"
                (String.sub out 0 (min 120 (String.length out)))
                (String.sub expected_output 0
                   (min 120 (String.length expected_output)))
          | _ -> ()
        end
        else begin
          Atomic.incr n_failed;
          match
            Option.bind (Json.member "error" resp) (fun e ->
                Option.bind (Json.member "kind" e) Json.to_str)
          with
          | Some k when List.mem k chaos_allowed_kinds -> ()
          | Some k -> violate "unknown error kind %S" k
          | None -> violate "failure response without structured error"
        end)
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let policy =
    { Client.attempts = 3; base_delay = 0.01; max_delay = 0.2; jitter = 0.5 }
  in
  let worker i =
    let r = Srng.make ((seed * 31) + i) in
    let rng = Random.State.make [| seed; i |] in
    let k = ref 0 in
    while Unix.gettimeofday () < deadline do
      incr k;
      let x = Srng.float r in
      if x < 0.60 then begin
        (* well-behaved golden eval, idempotent via request_id *)
        let rid = Printf.sprintf "chaos-%d-%d-%d" seed i !k in
        check_response
          (Client.request ~policy ~rng (`Unix sock)
             (Json.Obj
                [ ("id", Json.Str rid); ("op", Json.Str "eval");
                  ("src", Json.Str chaos_model);
                  ("request_id", Json.Str rid) ]))
      end
      else if x < 0.75 then begin
        (* session churn: bind then read back a thread-private name in a
           shared 16x3-name space that overflows the 8-session cap *)
        let session = Printf.sprintf "chaos-%d-%d" i (Srng.int r 3) in
        let v = float_of_int !k in
        (match
           Client.request ~policy ~rng (`Unix sock)
             (Json.Obj
                [ ("op", Json.Str "bind"); ("session", Json.Str session);
                  ("name", Json.Str "x"); ("value", Json.Num v) ])
         with
        | Error _ -> Atomic.incr n_failed
        | Ok bound ->
            if Json.member "ok" bound = Some (Json.Bool true) then begin
              match
                Client.request ~policy ~rng (`Unix sock)
                  (Json.Obj
                     [ ("op", Json.Str "query");
                       ("session", Json.Str session);
                       ("expr", Json.Str "x + 0") ])
              with
              | Error _ -> Atomic.incr n_failed
              | Ok got -> (
                  match
                    Option.bind (Json.member "value" got) Json.to_float
                  with
                  | Some v' when v' = v -> Atomic.incr n_ok
                  | Some v' ->
                      (* the session is private to this thread: a value
                         is either ours or the session was rebound fresh
                         — never someone else's *)
                      violate "session churn read %g after binding %g" v' v
                  | None -> check_response (Ok got))
            end
            else check_response (Ok bound))
      end
      else if x < 0.85 then begin
        (* malformed frame: the daemon must answer structured JSON *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd (Unix.ADDR_UNIX sock);
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
           let garbage =
             match Srng.int r 3 with
             | 0 -> "{\"op\": \"eval\", truncated"
             | 1 -> "[1,2,3]"
             | _ -> "\x00\x01\xfe binary trash"
           in
           let b = Bytes.of_string (garbage ^ "\n") in
           ignore (Unix.write fd b 0 (Bytes.length b));
           let buf = Buffer.create 256 in
           let one = Bytes.create 1 in
           let rec go () =
             match Unix.read fd one 0 1 with
             | 0 -> ()
             | _ ->
                 if Bytes.get one 0 <> '\n' then begin
                   Buffer.add_char buf (Bytes.get one 0);
                   go ()
                 end
           in
           go ();
           (match Json.parse (Buffer.contents buf) with
           | Ok _ -> Atomic.incr n_failed
           | Error _ -> violate "malformed frame drew unparseable reply");
           Unix.close fd
         with Unix.Unix_error (_, _, _) -> (
           try Unix.close fd with Unix.Unix_error (_, _, _) -> ()))
      end
      else if x < 0.95 then begin
        (* mid-request disconnect: half a request, then vanish *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd (Unix.ADDR_UNIX sock);
           let half = "{\"op\": \"eval\", \"src\": \"expr 1 +" in
           let b = Bytes.of_string half in
           ignore (Unix.write fd b 0 (Bytes.length b));
           Unix.close fd
         with Unix.Unix_error (_, _, _) -> (
           try Unix.close fd with Unix.Unix_error (_, _, _) -> ()))
      end
      else begin
        (* duplicate request_id: the retry must replay, not re-execute *)
        let rid = Printf.sprintf "chaos-dup-%d-%d-%d" seed i !k in
        let req =
          Json.Obj
            [ ("op", Json.Str "eval"); ("src", Json.Str "expr 6 * 7");
              ("request_id", Json.Str rid) ]
        in
        let is_ok r = Json.member "ok" r = Some (Json.Bool true) in
        match
          ( Client.request ~policy ~rng (`Unix sock) req,
            Client.request ~policy ~rng (`Unix sock) req )
        with
        | Ok a, Ok b when is_ok a && is_ok b ->
            (* load-shed rejections are deliberately not remembered and
               timeout retries switch keys, so the two calls only have to
               agree when both ultimately succeeded: the evaluation ran
               at most once per key, so successful outputs are equal *)
            Atomic.incr n_ok;
            Atomic.incr n_replayed_retries;
            if
              Option.bind (Json.member "output" a) Json.to_str
              <> Option.bind (Json.member "output" b) Json.to_str
            then violate "duplicate request_id drew two different outputs"
        | Ok a, Ok b ->
            (* one side succeeded, the other was shed or timed out:
               kind-check only the failure (the success's output is
               "expr 6 * 7"'s, not the golden model's) *)
            List.iter
              (fun r ->
                if is_ok r then Atomic.incr n_ok else check_response (Ok r))
              [ a; b ]
        | _ -> Atomic.incr n_failed
      end
    done
  in
  let ts = List.init clients (fun i -> Thread.create worker i) in
  List.iter Thread.join ts;
  (* --- verdict ---------------------------------------------------------- *)
  let alive_resp =
    Client.request
      ~policy:{ policy with attempts = 8; base_delay = 0.05 }
      (`Unix sock)
      (Json.Obj [ ("op", Json.Str "ping") ])
  in
  let alive =
    match alive_resp with
    | Ok r -> Json.member "ok" r = Some (Json.Bool true)
    | Error _ -> false
  in
  let stats =
    match
      Client.request ~policy (`Unix sock)
        (Json.Obj [ ("op", Json.Str "stats") ])
    with
    | Ok r -> Option.value (Json.member "stats" r) ~default:Json.Null
    | Error _ -> Json.Null
  in
  let gauge name =
    match Option.bind (Json.member name stats) Json.to_float with
    | Some x -> x
    | None -> -1.0
  in
  ignore
    (Client.request ~policy (`Unix sock)
       (Json.Obj [ ("op", Json.Str "shutdown") ]));
  Thread.join server;
  let sessions = gauge "sessions" in
  let rss = rss_bytes () in
  printf "== chaos soak: %.0fs, %d clients, seed %d ==\n" seconds clients seed;
  printf "  injected faults offered: %d pooled jobs\n" (Atomic.get inj_calls);
  printf "  ok: %d  structured/lost failures: %d  replay checks: %d\n"
    (Atomic.get n_ok) (Atomic.get n_failed)
    (Atomic.get n_replayed_retries);
  printf "  daemon evictions: %.0f  shed: %.0f  replays: %.0f  sessions: %.0f\n"
    (gauge "evictions") (gauge "shed") (gauge "replays") sessions;
  (match rss with
  | Some b -> printf "  final RSS: %.1f MB\n" (float_of_int b /. 1048576.0)
  | None -> printf "  final RSS: unavailable\n");
  let failed = ref false in
  let fail_if cond fmt =
    Printf.ksprintf
      (fun m ->
        if cond then begin
          failed := true;
          printf "  FAIL: %s\n" m
        end)
      fmt
  in
  fail_if (not alive) "daemon did not answer ping after the soak";
  fail_if (Atomic.get n_ok = 0) "no request ever succeeded";
  fail_if
    (Atomic.get mismatches > 0)
    "%d successful evals diverged from the golden output"
    (Atomic.get mismatches);
  fail_if
    (Atomic.get violations > 0)
    "%d protocol violations" (Atomic.get violations);
  Mutex.protect vmutex (fun () ->
      List.iter (fun m -> printf "    violation: %s\n" m)
        (List.sort_uniq compare !violation_msgs));
  fail_if
    (sessions > float_of_int config.Server.max_sessions)
    "session count %.0f exceeds the cap %d" sessions
    config.Server.max_sessions;
  (match rss with
  | Some b ->
      fail_if (b > 2_000_000_000) "RSS %.1f MB exceeds the 2 GB bound"
        (float_of_int b /. 1048576.0)
  | None -> ());
  if !failed then 1
  else begin
    printf "  chaos soak passed\n";
    0
  end

(* ====================================================================== *)
(* crash-recovery soak: SIGKILL a journaled daemon mid-load, restart,     *)
(* assert durable sessions answer golden-identically                      *)
(* ====================================================================== *)

(* Unlike the in-process chaos soak this phase spawns the REAL sharped
   binary (a SIGKILL cannot target a thread), with --journal-dir and
   --fsync always, so every acknowledged response implies a durable
   journal record.  Concurrent clients bind per-session counters and
   remember the last ACKED value; after kill -9 and a restart on the same
   journal directory, every acked value must read back exactly, a model
   evaluated before the crash must answer its query bit-identically to an
   uninterrupted in-process session, and a pre-crash request_id must
   replay its recorded response.  Finally the restarted daemon is drained
   with SIGTERM and must exit 0.  The acked-bind and session counts,
   recovery_time_ms and journal_bytes are written to BENCH_server.json. *)

let write_bench_server_json kvs =
  let module Json = Sharpe_server.Json in
  let path = "BENCH_server.json" in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj kvs));
  output_string oc "\n";
  close_out oc;
  printf "  wrote %s\n" path

let crash_recovery_soak ~seed =
  let module Client = Sharpe_server.Client in
  let module Json = Sharpe_server.Json in
  let module Interp = Sharpe_lang.Interp in
  printf "== crash-recovery soak (seed %d) ==\n%!" seed;
  let sharped =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sharped.exe"
  in
  if not (Sys.file_exists sharped) then begin
    printf "  FAIL: sharped binary not found at %s\n" sharped;
    1
  end
  else begin
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sharpe_crash_%d" (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let sock = Filename.concat dir "sharped.sock" in
    let spawn () =
      Unix.create_process sharped
        [| "sharped"; "--socket"; sock; "--journal-dir"; dir;
           "--fsync"; "always"; "--workers"; "2"; "--snapshot-every"; "8" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let one_shot = { Client.default_policy with Client.attempts = 1 } in
    let wait_health ~timeout_s =
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec go () =
        if Unix.gettimeofday () > deadline then None
        else
          match
            Client.request ~policy:one_shot (`Unix sock)
              (Json.Obj [ ("op", Json.Str "health") ])
          with
          | Ok r when Json.member "ok" r = Some (Json.Bool true) -> Some r
          | _ ->
              Thread.delay 0.05;
              go ()
      in
      go ()
    in
    let failed = ref false in
    let fail_if cond fmt =
      Printf.ksprintf
        (fun m ->
          if cond then begin
            failed := true;
            printf "  FAIL: %s\n" m
          end)
        fmt
    in
    (* the golden answer, from an uninterrupted in-process session *)
    let model_src =
      "bind lam 0.001\nmarkov up2\n2 1 2*lam\n1 0 lam\n1 2 0.1\nend\n0 1.0\nend"
    in
    let golden_expr = "prob(up2, 0) + prob(up2, 2)" in
    let golden_value =
      let s = Interp.Session.create () in
      let _, outcome = Interp.Session.eval s model_src in
      if outcome.Interp.failed_statements <> 0 then
        failwith "crash soak: golden model fails outside the daemon";
      match Interp.Session.query s golden_expr with
      | Ok v -> v
      | Error m -> failwith ("crash soak: golden query failed: " ^ m)
    in
    let pid = spawn () in
    (match wait_health ~timeout_s:15.0 with
    | Some _ -> ()
    | None -> fail_if true "first daemon never became healthy");
    (* a model session plus a request whose response we expect replayed *)
    let dup_rid = Printf.sprintf "crash-dup-%d" seed in
    let dup_req =
      Json.Obj
        [ ("id", Json.Str "dup"); ("op", Json.Str "eval");
          ("session", Json.Str "model"); ("src", Json.Str model_src);
          ("request_id", Json.Str dup_rid) ]
    in
    let dup_resp_before =
      match Client.request (`Unix sock) dup_req with
      | Ok r when Json.member "ok" r = Some (Json.Bool true) -> Some r
      | _ ->
          fail_if true "pre-crash model eval failed";
          None
    in
    (* concurrent load: per-thread sessions bind a counter; the last value
       whose ok response arrived is, under --fsync always, durable *)
    let nthreads = 6 in
    let acked = Array.make nthreads 0 in
    let attempted = Array.make nthreads 0 in
    let stop_load = Atomic.make false in
    let workers =
      List.init nthreads (fun i ->
          Thread.create
            (fun () ->
              let k = ref 0 in
              while not (Atomic.get stop_load) do
                incr k;
                attempted.(i) <- !k;
                let session = Printf.sprintf "crash-%d" i in
                match
                  Client.request ~policy:one_shot (`Unix sock)
                    (Json.Obj
                       [ ("op", Json.Str "bind");
                         ("session", Json.Str session);
                         ("name", Json.Str "x");
                         ("value", Json.Num (float_of_int !k));
                         ( "request_id",
                           Json.Str (Printf.sprintf "crash-%d-%d-%d" seed i !k)
                         ) ])
                with
                | Ok r when Json.member "ok" r = Some (Json.Bool true) ->
                    acked.(i) <- !k
                | _ -> if Atomic.get stop_load then () else Thread.yield ()
              done)
            ())
    in
    (* kill -9 mid-load: no drain, no flush beyond the per-request fsync *)
    Thread.delay 1.0;
    Unix.kill pid Sys.sigkill;
    Atomic.set stop_load true;
    List.iter Thread.join workers;
    ignore (Unix.waitpid [] pid);
    let n_acked = Array.fold_left ( + ) 0 acked in
    fail_if (n_acked = 0) "no bind was ever acknowledged before the kill";
    (* restart on the same journal directory *)
    let pid2 = spawn () in
    let health = wait_health ~timeout_s:30.0 in
    (match health with
    | None -> fail_if true "restarted daemon never became healthy"
    | Some h ->
        let num name =
          Option.bind (Json.member name h) Json.to_float
          |> Option.value ~default:(-1.0)
        in
        let recovery_ms = num "recovery_ms" in
        let journal_bytes = num "journal_bytes" in
        let recovered = num "recovered_sessions" in
        printf
          "  killed pid %d under load (%d acked binds); restart recovered \
           %.0f session(s) in %.1f ms, journal %.0f bytes\n"
          pid n_acked recovered recovery_ms journal_bytes;
        fail_if (recovered < 1.0) "restart recovered no sessions";
        fail_if (recovery_ms < 0.0) "health reported no recovery_ms";
        write_bench_server_json
          [ ("crash_recovery_acked_binds", Json.Num (float_of_int n_acked));
            ("crash_recovery_sessions", Json.Num recovered);
            ("recovery_time_ms", Json.Num recovery_ms);
            ("journal_bytes", Json.Num journal_bytes) ]);
    (* durability: every acked bind must read back.  Because the journal
       record is fsynced BEFORE the response is sent, the recovered value
       may be the one bind that was in flight at the kill — so the exact
       contract is acked <= recovered <= last attempted, per session *)
    for i = 0 to nthreads - 1 do
      if acked.(i) > 0 then begin
        let session = Printf.sprintf "crash-%d" i in
        match
          Client.request (`Unix sock)
            (Json.Obj
               [ ("op", Json.Str "query"); ("session", Json.Str session);
                 ("expr", Json.Str "x") ])
        with
        | Ok r -> (
            match Option.bind (Json.member "value" r) Json.to_float with
            | Some v
              when v >= float_of_int acked.(i)
                   && v <= float_of_int attempted.(i) ->
                ()
            | Some v ->
                fail_if true
                  "session %s: recovered %g outside [acked %d, attempted %d]"
                  session v acked.(i) attempted.(i)
            | None ->
                fail_if true "session %s lost after recovery (acked %d)"
                  session acked.(i))
        | Error e ->
            fail_if true "query %s failed: %s" session
              (Client.error_to_string e)
      end
    done;
    (* the model session answers bit-identically to the golden value *)
    (match
       Client.request (`Unix sock)
         (Json.Obj
            [ ("op", Json.Str "query"); ("session", Json.Str "model");
              ("expr", Json.Str golden_expr) ])
     with
    | Ok r -> (
        match Option.bind (Json.member "value" r) Json.to_float with
        | Some v when v = golden_value -> ()
        | Some v ->
            fail_if true "recovered model answers %.17g, golden %.17g" v
              golden_value
        | None -> fail_if true "recovered model query returned no value")
    | Error e ->
        fail_if true "model query failed: %s" (Client.error_to_string e));
    (* a pre-crash request_id replays its recorded response *)
    (match (dup_resp_before, Client.request (`Unix sock) dup_req) with
    | Some before, Ok after ->
        fail_if (before <> after)
          "duplicate request_id drew a different response after restart"
    | Some _, Error e ->
        fail_if true "duplicate request failed: %s" (Client.error_to_string e)
    | None, _ -> ());
    (* graceful drain: SIGTERM must flush and exit 0 *)
    Unix.kill pid2 Sys.sigterm;
    let rec wait_exit () =
      match Unix.waitpid [] pid2 with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit ()
    in
    (match wait_exit () with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> fail_if true "SIGTERM drain exited %d, want 0" n
    | Unix.WSIGNALED s -> fail_if true "SIGTERM drain died on signal %d" s
    | Unix.WSTOPPED _ -> fail_if true "drained daemon stopped unexpectedly");
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir);
       Unix.rmdir dir
     with Sys_error _ | Unix.Unix_error (_, _, _) -> ());
    if !failed then 1
    else begin
      printf "  crash-recovery soak passed\n";
      0
    end
  end

let () =
  let rc = chaos_main ~seconds ~clients ~seed in
  let rc2 = crash_recovery_soak ~seed in
  exit (max rc rc2)
