(* Tests for the evaluation daemon: session isolation (in-process and
   over the socket, concurrently), fresh-start equivalence of the
   session-context refactor, protocol robustness against hostile input,
   and cooperative per-request cancellation. *)

module Interp = Sharpe_lang.Interp
module Server = Sharpe_server.Server
module Json = Sharpe_server.Json

(* --- in-process session semantics ------------------------------------- *)

let test_session_isolation_inprocess () =
  let a = Interp.Session.create () and b = Interp.Session.create () in
  let _ = Interp.Session.eval a "bind x 1" in
  let _ = Interp.Session.eval b "bind x 2" in
  (match Interp.Session.query a "x" with
  | Ok v -> Alcotest.(check (float 0.0)) "a sees its own x" 1.0 v
  | Error m -> Alcotest.failf "query a failed: %s" m);
  (match Interp.Session.query b "x" with
  | Ok v -> Alcotest.(check (float 0.0)) "b sees its own x" 2.0 v
  | Error m -> Alcotest.failf "query b failed: %s" m);
  (* a variable bound only in [a] must be invisible in [b] *)
  let _ = Interp.Session.eval a "bind only_a 7" in
  match Interp.Session.query b "only_a" with
  | Ok v -> Alcotest.failf "b observed a's binding (got %g)" v
  | Error _ -> ()

let test_fresh_start_equivalence () =
  (* no interpreter state is process-global: a session that changes the
     print format, binds names and burns while-loop fuel must not change
     what a subsequently created session prints for the same program *)
  let prog =
    "format 8\nbind q 0.25\nexpr q * 3\nexpr 1/3\nbind i 0\nwhile (i < 5)\n  bind i i + 1\nend\nexpr i"
  in
  let run_fresh () =
    let s = Interp.Session.create () in
    let out, outcome = Interp.Session.eval s prog in
    Alcotest.(check int)
      "fresh run has no failures" 0 outcome.Interp.failed_statements;
    out
  in
  let before = run_fresh () in
  (* pollute a different session as thoroughly as the language allows *)
  let dirty = Interp.Session.create ~fuel_limit:3 () in
  let _ = Interp.Session.eval dirty "format 2\nbind q 99\nbind i 42" in
  let _ =
    Interp.Session.eval dirty "bind k 0\nwhile (k < 100)\n  bind k k + 1\nend"
  in
  let after = run_fresh () in
  Alcotest.(check string)
    "fresh session output unchanged by other sessions" before after;
  (* and identical to the one-shot batch entry point *)
  let buf = Buffer.create 256 in
  let _ = Interp.run_program ~print:(Buffer.add_string buf) prog in
  Alcotest.(check string)
    "session output identical to run_program" (Buffer.contents buf) before

(* --- socket helpers ---------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a wedged daemon must fail the test, not hang the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let recv_line fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Buffer.contents b
    | _ ->
        if Bytes.get one 0 = '\n' then Buffer.contents b
        else begin
          Buffer.add_char b (Bytes.get one 0);
          go ()
        end
  in
  go ()

let roundtrip fd obj =
  send_line fd (Json.to_string (Json.Obj obj));
  match Json.parse (recv_line fd) with
  | Ok v -> v
  | Error m -> Alcotest.failf "unparseable response: %s" m

let is_ok resp = Json.member "ok" resp = Some (Json.Bool true)

let error_kind resp =
  match Json.member "error" resp with
  | Some err -> Option.bind (Json.member "kind" err) Json.to_str
  | None -> None

let with_server ?config f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sharped_test_%d.sock" (Unix.getpid ()))
  in
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.serve ?config
          ~ready:(fun () ->
            Mutex.protect ready_m (fun () ->
                ready := true;
                Condition.signal ready_c))
          (`Unix path))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  Fun.protect
    ~finally:(fun () ->
      (try
         let fd = connect path in
         ignore (roundtrip fd [ ("op", Json.Str "shutdown") ]);
         Unix.close fd
       with _ -> ());
      Thread.join server)
    (fun () -> f path)

(* --- socket behaviour --------------------------------------------------- *)

let test_socket_eval_and_sessionless_isolation () =
  with_server (fun path ->
      let fd = connect path in
      let resp =
        roundtrip fd
          [ ("id", Json.Num 1.0); ("op", Json.Str "eval");
            ("src", Json.Str "bind x 5\nexpr x * 2") ]
      in
      Alcotest.(check bool) "eval ok" true (is_ok resp);
      (match Option.bind (Json.member "output" resp) Json.to_str with
      | Some out ->
          Alcotest.(check bool)
            "output contains the result" true
            (String.length out > 0)
      | None -> Alcotest.fail "eval response lacks output");
      (* sessionless requests use throwaway environments: x is gone *)
      let resp2 =
        roundtrip fd
          [ ("id", Json.Num 2.0); ("op", Json.Str "eval");
            ("src", Json.Str "expr x") ]
      in
      Alcotest.(check bool) "sessionless state does not persist" true
        (Json.member "failed_statements" resp2 = Some (Json.Num 1.0));
      Unix.close fd)

let test_socket_concurrent_session_isolation () =
  with_server (fun path ->
      let nthreads = 8 and rounds = 25 in
      let failures = ref [] in
      let fmutex = Mutex.create () in
      let worker i =
        try
          let fd = connect path in
          let session = Printf.sprintf "s%d" i in
          for k = 0 to rounds - 1 do
            let v = float_of_int ((i * 1000) + k) in
            (* every session binds the SAME name to a different value *)
            let bound =
              roundtrip fd
                [ ("op", Json.Str "bind"); ("session", Json.Str session);
                  ("name", Json.Str "x"); ("value", Json.Num v) ]
            in
            if not (is_ok bound) then failwith "bind failed";
            let got =
              roundtrip fd
                [ ("op", Json.Str "query"); ("session", Json.Str session);
                  ("expr", Json.Str "x + 0") ]
            in
            match Option.bind (Json.member "value" got) Json.to_float with
            | Some v' when v' = v -> ()
            | Some v' ->
                failwith
                  (Printf.sprintf "session %s bound %g but read %g" session v
                     v')
            | None -> failwith "query returned no value"
          done;
          Unix.close fd
        with e ->
          Mutex.protect fmutex (fun () ->
              failures := Printexc.to_string e :: !failures)
      in
      let threads = List.init nthreads (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Alcotest.(check (list string))
        "no cross-session observation" [] !failures)

let test_socket_protocol_errors () =
  with_server (fun path ->
      let fd = connect path in
      send_line fd "this is not json";
      (match Json.parse (recv_line fd) with
      | Ok resp ->
          Alcotest.(check bool) "malformed json rejected" false (is_ok resp);
          Alcotest.(check (option string))
            "bad_request kind" (Some "bad_request") (error_kind resp)
      | Error m -> Alcotest.failf "unparseable response: %s" m);
      let resp =
        roundtrip fd [ ("id", Json.Str "u1"); ("op", Json.Str "no_such_op") ]
      in
      Alcotest.(check bool) "unknown op rejected" false (is_ok resp);
      Alcotest.(check (option string))
        "unknown op is bad_request" (Some "bad_request") (error_kind resp);
      Alcotest.(check bool) "id echoed on error" true
        (Json.member "id" resp = Some (Json.Str "u1"));
      send_line fd "[1,2,3]";
      (match Json.parse (recv_line fd) with
      | Ok resp ->
          Alcotest.(check bool) "non-object rejected" false (is_ok resp)
      | Error m -> Alcotest.failf "unparseable response: %s" m);
      (* missing required field *)
      let resp = roundtrip fd [ ("op", Json.Str "eval") ] in
      Alcotest.(check (option string))
        "missing src is bad_request" (Some "bad_request") (error_kind resp);
      (* the daemon still serves after all that *)
      let pong = roundtrip fd [ ("op", Json.Str "ping") ] in
      Alcotest.(check bool) "daemon alive after garbage" true (is_ok pong);
      Unix.close fd)

let test_socket_oversized_payload () =
  let config = { Server.default_config with max_request_bytes = 2048 } in
  with_server ~config (fun path ->
      let fd = connect path in
      send_line fd (String.make 10_000 'a');
      (match Json.parse (recv_line fd) with
      | Ok resp ->
          Alcotest.(check bool) "oversized rejected" false (is_ok resp);
          Alcotest.(check (option string))
            "oversized kind" (Some "oversized") (error_kind resp)
      | Error m -> Alcotest.failf "unparseable response: %s" m);
      let pong = roundtrip fd [ ("op", Json.Str "ping") ] in
      Alcotest.(check bool) "daemon alive after oversized line" true
        (is_ok pong);
      Unix.close fd)

let test_socket_timeout_cancels_and_daemon_continues () =
  with_server (fun path ->
      let fd = connect path in
      (* effectively unbounded nested whiles: only the deadline stops it *)
      let spin =
        "bind i 0\nwhile (i < 1000000)\n  bind j 0\n  while (j < 1000000)\n    bind j j + 1\n  end\n  bind i i + 1\nend"
      in
      let t0 = Unix.gettimeofday () in
      let resp =
        roundtrip fd
          [ ("id", Json.Num 1.0); ("op", Json.Str "eval");
            ("src", Json.Str spin); ("timeout", Json.Num 0.2) ]
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "timed-out request not ok" false (is_ok resp);
      Alcotest.(check (option string))
        "timeout kind" (Some "timeout") (error_kind resp);
      Alcotest.(check bool)
        (Printf.sprintf "cancelled promptly (%.2fs)" elapsed)
        true (elapsed < 10.0);
      (* the worker that was cancelled keeps serving new requests *)
      let resp2 =
        roundtrip fd
          [ ("id", Json.Num 2.0); ("op", Json.Str "eval");
            ("src", Json.Str "expr 1 + 1") ]
      in
      Alcotest.(check bool) "daemon serves after a cancellation" true
        (is_ok resp2);
      Unix.close fd)

(* --- fuzz: arbitrary bytes must never take the daemon down ------------- *)

let prop_random_bytes_never_crash path =
  QCheck.Test.make ~name:"random bytes never crash the daemon" ~count:60
    QCheck.(string_of_size Gen.(int_bound 300))
    (fun s ->
      let line =
        String.map (function '\n' | '\r' -> ' ' | c -> c) s
      in
      let fd = connect path in
      let ok =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            send_line fd line;
            send_line fd (Json.to_string (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "fuzz") ]));
            (* whitespace-only garbage draws no response; otherwise we get
               an error line first.  Either way the ping must come back. *)
            let first = recv_line fd in
            let second =
              match Json.parse first with
              | Ok r when Json.member "id" r = Some (Json.Str "fuzz") -> first
              | _ -> recv_line fd
            in
            match Json.parse second with
            | Ok r -> is_ok r
            | Error _ -> false)
      in
      ok)

let test_socket_fuzz () =
  with_server (fun path ->
      QCheck.Test.check_exn (prop_random_bytes_never_crash path))

(* --- overload, eviction, quotas, idempotency, panics ------------------- *)

module Client = Sharpe_server.Client

let spin_src =
  "bind i 0\nwhile (i < 1000000)\n  bind j 0\n  while (j < 1000000)\n    bind j j + 1\n  end\n  bind i i + 1\nend"

let test_overload_shedding_and_client_retry () =
  let config =
    { Server.default_config with workers = 1; max_concurrent = 1 }
  in
  with_server ~config (fun path ->
      (* occupy the single admission slot with a deadline-bounded spin *)
      let occupant =
        Thread.create
          (fun () ->
            let fd = connect path in
            ignore
              (roundtrip fd
                 [ ("op", Json.Str "eval"); ("src", Json.Str spin_src);
                   ("timeout", Json.Num 1.0) ]);
            Unix.close fd)
          ()
      in
      Thread.delay 0.2;
      let fd = connect path in
      let resp =
        roundtrip fd [ ("op", Json.Str "eval"); ("src", Json.Str "expr 1") ]
      in
      Alcotest.(check (option string))
        "saturated daemon sheds with overloaded" (Some "overloaded")
        (error_kind resp);
      Alcotest.(check bool) "overloaded carries retry_after_ms" true
        (Option.bind (Json.member "retry_after_ms" resp) Json.to_float
        <> None);
      (* ... but admission rejection keeps the daemon responsive ... *)
      Alcotest.(check bool) "ping is never shed" true
        (is_ok (roundtrip fd [ ("op", Json.Str "ping") ]));
      Unix.close fd;
      (* ... and a retrying client rides out the overload window *)
      let policy =
        { Client.default_policy with attempts = 12; base_delay = 0.15 }
      in
      (match
         Client.request ~policy
           ~rng:(Random.State.make [| 42 |])
           (`Unix path)
           (Json.Obj
              [ ("op", Json.Str "eval"); ("src", Json.Str "expr 2 + 2") ])
       with
      | Ok resp ->
          Alcotest.(check bool) "client retry eventually admitted" true
            (is_ok resp)
      | Error e -> Alcotest.failf "client gave up: %s" (Client.error_to_string e));
      Thread.join occupant)

let test_ttl_eviction_expired_then_rebind_16way () =
  let config = { Server.default_config with session_ttl = Some 0.15 } in
  with_server ~config (fun path ->
      let failures = ref [] in
      let fmutex = Mutex.create () in
      let worker i =
        try
          let fd = connect path in
          let session = Printf.sprintf "ttl%d" i in
          let bound =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str session);
                ("name", Json.Str "x"); ("value", Json.Num (float_of_int i)) ]
          in
          if not (is_ok bound) then failwith "initial bind failed";
          (* idle past the TTL: the maintenance sweep evicts the session *)
          Thread.delay 0.5;
          let q () =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str session);
                ("expr", Json.Str "x + 0") ]
          in
          (match error_kind (q ()) with
          | Some "session_expired" -> ()
          | k ->
              failwith
                (Printf.sprintf "expected session_expired, got %s"
                   (Option.value k ~default:"ok")));
          (* the tombstone is consumed: the next request rebinds a FRESH
             session, in which x is simply unbound *)
          (match error_kind (q ()) with
          | Some "eval_error" -> ()
          | k ->
              failwith
                (Printf.sprintf "expected eval_error after rebind, got %s"
                   (Option.value k ~default:"ok")));
          let rebound =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str session);
                ("name", Json.Str "x"); ("value", Json.Num 9.0) ]
          in
          if not (is_ok rebound) then failwith "rebind failed";
          (match Option.bind (Json.member "value" (q ())) Json.to_float with
          | Some 9.0 -> ()
          | _ -> failwith "rebound session does not serve");
          Unix.close fd
        with e ->
          Mutex.protect fmutex (fun () ->
              failures := Printexc.to_string e :: !failures)
      in
      let threads = List.init 16 (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Alcotest.(check (list string))
        "16-way eviction/rebind without hangs or poisoning" [] !failures)

let test_session_cap_lru_eviction () =
  let config = { Server.default_config with max_sessions = 4 } in
  with_server ~config (fun path ->
      let fd = connect path in
      for i = 0 to 7 do
        let r =
          roundtrip fd
            [ ("op", Json.Str "bind");
              ("session", Json.Str (Printf.sprintf "lru%d" i));
              ("name", Json.Str "x"); ("value", Json.Num (float_of_int i)) ]
        in
        Alcotest.(check bool) "bind under cap pressure ok" true (is_ok r)
      done;
      let stats =
        Option.value
          (Json.member "stats" (roundtrip fd [ ("op", Json.Str "stats") ]))
          ~default:Json.Null
      in
      (match Option.bind (Json.member "sessions" stats) Json.to_float with
      | Some n ->
          Alcotest.(check bool)
            (Printf.sprintf "session count capped (%g <= 4)" n)
            true (n <= 4.0)
      | None -> Alcotest.fail "stats lacks sessions gauge");
      (match Option.bind (Json.member "evictions" stats) Json.to_float with
      | Some n ->
          Alcotest.(check bool) "evictions counted" true (n >= 4.0)
      | None -> Alcotest.fail "stats lacks evictions counter");
      (* the oldest session was evicted: one structured session_expired,
         then a fresh rebind *)
      let q s =
        roundtrip fd
          [ ("op", Json.Str "query"); ("session", Json.Str s);
            ("expr", Json.Str "x + 0") ]
      in
      Alcotest.(check (option string))
        "evicted LRU session answers session_expired"
        (Some "session_expired")
        (error_kind (q "lru0"));
      (* the most recently used session still serves *)
      (match Option.bind (Json.member "value" (q "lru7")) Json.to_float with
      | Some 7.0 -> ()
      | _ -> Alcotest.fail "recently-used session was evicted");
      Unix.close fd)

let test_session_time_quota () =
  let config =
    { Server.default_config with session_quota = Some 1e-6 }
  in
  with_server ~config (fun path ->
      let fd = connect path in
      let eval () =
        roundtrip fd
          [ ("op", Json.Str "eval"); ("session", Json.Str "q");
            ("src", Json.Str "expr 1 + 1") ]
      in
      Alcotest.(check bool) "first request within quota" true
        (is_ok (eval ()));
      Alcotest.(check (option string))
        "exhausted session answers quota_exhausted" (Some "quota_exhausted")
        (error_kind (eval ()));
      (* other sessions are unaffected *)
      let other =
        roundtrip fd
          [ ("op", Json.Str "eval"); ("session", Json.Str "fresh");
            ("src", Json.Str "expr 2") ]
      in
      Alcotest.(check bool) "quota is per-session" true (is_ok other);
      Unix.close fd)

let test_request_id_idempotency () =
  with_server (fun path ->
      let fd = connect path in
      let r =
        roundtrip fd
          [ ("op", Json.Str "eval"); ("session", Json.Str "idem");
            ("src", Json.Str "bind n 1") ]
      in
      Alcotest.(check bool) "setup eval ok" true (is_ok r);
      let line =
        Json.to_string
          (Json.Obj
             [ ("id", Json.Str "A"); ("op", Json.Str "eval");
               ("session", Json.Str "idem");
               ("src", Json.Str "bind n n + 1");
               ("request_id", Json.Str "dup-001") ])
      in
      send_line fd line;
      let first = recv_line fd in
      (* the retry must not re-execute: same response bytes, one increment *)
      send_line fd line;
      let second = recv_line fd in
      Alcotest.(check string) "duplicate replays the stored response" first
        second;
      let q =
        roundtrip fd
          [ ("op", Json.Str "query"); ("session", Json.Str "idem");
            ("expr", Json.Str "n") ]
      in
      (match Option.bind (Json.member "value" q) Json.to_float with
      | Some v ->
          Alcotest.(check (float 0.0)) "side effect applied exactly once" 2.0 v
      | None -> Alcotest.fail "query returned no value");
      (* an ill-typed request_id is a loud bad_request, not silently
         non-idempotent *)
      let bad =
        roundtrip fd
          [ ("op", Json.Str "ping"); ("request_id", Json.Num 7.0) ]
      in
      Alcotest.(check (option string))
        "non-string request_id rejected" (Some "bad_request")
        (error_kind bad);
      Unix.close fd)

let test_panic_barrier () =
  let blew = Atomic.make false in
  let config =
    { Server.default_config with
      inject =
        Some
          (fun _op ->
            if not (Atomic.exchange blew true) then
              failwith "injected worker crash") }
  in
  with_server ~config (fun path ->
      let fd = connect path in
      let resp =
        roundtrip fd [ ("op", Json.Str "eval"); ("src", Json.Str "expr 1") ]
      in
      Alcotest.(check (option string))
        "crashing worker job becomes internal_error" (Some "internal_error")
        (error_kind resp);
      (* the daemon, its pool and this very connection stay healthy *)
      let resp2 =
        roundtrip fd
          [ ("op", Json.Str "eval"); ("src", Json.Str "expr 3 * 3") ]
      in
      Alcotest.(check bool) "daemon serves after the panic" true (is_ok resp2);
      Unix.close fd)

(* A warm daemon answers a repeated model from its structural solve
   cache: the second eval of the same SRN must find the skeleton the
   first one explored, and the stats op must say so. *)
let warm_srn_model =
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

let test_warm_daemon_skeleton_hits () =
  let module Structhash = Sharpe_numerics.Structhash in
  Structhash.set_enabled true;
  Structhash.clear_all ();
  Structhash.reset_stats ();
  with_server (fun path ->
      let fd = connect path in
      let eval () =
        let r =
          roundtrip fd [ ("op", Json.Str "eval"); ("src", Json.Str warm_srn_model) ]
        in
        Alcotest.(check bool) "eval ok" true (is_ok r);
        Option.bind (Json.member "output" r) Json.to_str
      in
      let skeleton_hits () =
        match
          Option.bind
            (Json.member "stats" (roundtrip fd [ ("op", Json.Str "stats") ]))
            (Json.member "cache")
        with
        | Some (Json.List entries) ->
            List.find_map
              (fun e ->
                if Json.member "name" e = Some (Json.Str "srn_skeleton") then
                  Option.bind (Json.member "hits" e) Json.to_float
                else None)
              entries
            |> Option.value ~default:(-1.0)
        | _ -> Alcotest.fail "stats lacks the cache table list"
      in
      let cold = eval () in
      let hits_cold = skeleton_hits () in
      let warm = eval () in
      let hits_warm = skeleton_hits () in
      Alcotest.(check (option string)) "warm answer equals cold answer" cold warm;
      Alcotest.(check bool)
        (Printf.sprintf "srn_skeleton hits %g -> %g: the second eval hit" hits_cold
           hits_warm)
        true
        (hits_warm >= 1.0 && hits_warm > hits_cold);
      Unix.close fd)

let suite =
  [ Alcotest.test_case "in-process session isolation" `Quick
      test_session_isolation_inprocess;
    Alcotest.test_case "fresh-start equivalence" `Quick
      test_fresh_start_equivalence;
    Alcotest.test_case "socket eval + sessionless isolation" `Quick
      test_socket_eval_and_sessionless_isolation;
    Alcotest.test_case "concurrent sessions never observe each other" `Quick
      test_socket_concurrent_session_isolation;
    Alcotest.test_case "protocol errors answered, daemon survives" `Quick
      test_socket_protocol_errors;
    Alcotest.test_case "oversized payload rejected" `Quick
      test_socket_oversized_payload;
    Alcotest.test_case "deadline cancels request, daemon continues" `Quick
      test_socket_timeout_cancels_and_daemon_continues;
    Alcotest.test_case "fuzz lines never crash the daemon" `Quick
      test_socket_fuzz;
    Alcotest.test_case "overload shed + client retry" `Quick
      test_overload_shedding_and_client_retry;
    Alcotest.test_case "TTL eviction: expired then rebind, 16-way" `Quick
      test_ttl_eviction_expired_then_rebind_16way;
    Alcotest.test_case "session cap evicts LRU" `Quick
      test_session_cap_lru_eviction;
    Alcotest.test_case "session time quota" `Quick test_session_time_quota;
    Alcotest.test_case "request_id idempotency" `Quick
      test_request_id_idempotency;
    Alcotest.test_case "panic barrier keeps the daemon alive" `Quick
      test_panic_barrier;
    Alcotest.test_case "warm daemon hits the skeleton cache" `Quick
      test_warm_daemon_skeleton_hits ]
