(* Tests for the durability layer: the write-ahead journal itself
   (framing, corruption recovery, compaction), crash/restart semantics of
   the daemon (sessions rebuilt deterministically, idempotency across a
   restart, TTL/quota interaction), graceful drain, the health op and the
   client's deadline-capped backoff. *)

module Interp = Sharpe_lang.Interp
module Diag = Sharpe_numerics.Diag
module Server = Sharpe_server.Server
module Journal = Sharpe_server.Journal
module Client = Sharpe_server.Client
module Json = Sharpe_server.Json

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%.0f" prefix (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let dir = temp_dir "sharpe_journal" in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let wal dir = Filename.concat dir "journal.wal"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let has_journal_warning records =
  List.exists
    (fun r -> r.Diag.severity = Diag.Warning && r.Diag.solver = "journal")
    records

(* --- socket helpers (same shape as test_server's) ----------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
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

let roundtrip_line fd obj =
  send_line fd (Json.to_string (Json.Obj obj));
  recv_line fd

let roundtrip fd obj =
  match Json.parse (roundtrip_line fd obj) with
  | Ok v -> v
  | Error m -> Alcotest.failf "unparseable response: %s" m

let is_ok resp = Json.member "ok" resp = Some (Json.Bool true)

let error_kind resp =
  match Json.member "error" resp with
  | Some err -> Option.bind (Json.member "kind" err) Json.to_str
  | None -> None

(* One daemon lifetime: serve on a fresh socket until [f] returns, then
   shut down cleanly (or drain, if [f] flips the atomic and returns).
   Each call simulates one process generation of a hot-restart pair. *)
let with_server ?config ?drain f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sharped_jrnl_%d_%.0f.sock" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.serve ?config ?drain
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

let journal_config ?(snapshot_every = 64) ?session_ttl ?session_quota dir =
  { Server.default_config with
    Server.workers = 1;
    journal_dir = Some dir;
    fsync = Journal.Always;
    snapshot_every;
    session_ttl;
    session_quota }

(* --- replay-script compression ------------------------------------------ *)

let test_replay_script_minimal () =
  let s = Interp.Session.create () in
  Interp.Session.bind s "x" 1.0;
  Interp.Session.bind s "x" 2.0;
  Interp.Session.bind s "y" 5.0;
  (match Interp.Session.replay_script s with
  | [ `Bind ("x", 2.0); `Bind ("y", 5.0) ] -> ()
  | script ->
      Alcotest.failf "superseded bind not dropped (%d entries)"
        (List.length script));
  (* an eval between two binds of the same name pins the earlier one:
     the eval may have read it *)
  let s2 = Interp.Session.create () in
  Interp.Session.bind s2 "x" 1.0;
  let _ = Interp.Session.eval s2 "bind z x * 10" in
  Interp.Session.bind s2 "x" 2.0;
  match Interp.Session.replay_script s2 with
  | [ `Bind ("x", 1.0); `Eval _; `Bind ("x", 2.0) ] -> ()
  | script -> Alcotest.failf "eval-pinned bind dropped (%d entries)"
                (List.length script)

(* --- journal unit behaviour --------------------------------------------- *)

let test_journal_roundtrip_direct () =
  with_temp_dir (fun dir ->
      let j, r0 = Journal.open_ ~dir ~fsync:Journal.Always in
      Alcotest.(check int) "fresh journal has no sessions" 0
        (List.length r0.Journal.r_sessions);
      Journal.append j ~session:"a" ~busy:0.25 (`Bind ("x", 1.5));
      Journal.append j ~session:"a" ~request_id:"rid-1"
        ~response:(true, {|{"ok":true}|}) ~busy:0.5 (`Eval "expr x");
      Journal.append j ~session:"b" ~busy:0.1 (`Bind ("y", 2.0));
      Journal.evict j "b";
      Journal.close j;
      let j2, r = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.close j2;
      Alcotest.(check bool) "clean file" false r.Journal.r_corrupt;
      (match r.Journal.r_sessions with
      | [ { Journal.rs_name = "a"; rs_entries; rs_busy; _ } ] ->
          Alcotest.(check (float 1e-9)) "busy survives" 0.5 rs_busy;
          (match rs_entries with
          | [ `Bind ("x", 1.5); `Eval "expr x" ] -> ()
          | _ -> Alcotest.fail "entries wrong or out of order")
      | ss ->
          Alcotest.failf "expected exactly session a, got %d (evicted b back?)"
            (List.length ss));
      match r.Journal.r_replays with
      | [ ("rid-1", true, {|{"ok":true}|}) ] -> ()
      | _ -> Alcotest.fail "request_id/response not recovered")

let corrupt_and_recover ~mangle =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Always in
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 1.0));
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("y", 2.0));
      Journal.close j;
      let contents = read_file (wal dir) in
      write_file (wal dir) (mangle contents);
      let (j2, r), records =
        Diag.capture (fun () -> Journal.open_ ~dir ~fsync:Journal.Never)
      in
      Journal.close j2;
      Alcotest.(check bool) "structured journal warning emitted" true
        (has_journal_warning records);
      r)

let test_truncated_final_record () =
  let r = corrupt_and_recover ~mangle:(fun s -> String.sub s 0 (String.length s - 3)) in
  Alcotest.(check bool) "corrupt flagged" true r.Journal.r_corrupt;
  Alcotest.(check bool) "some bytes dropped" true (r.Journal.r_dropped_bytes > 0);
  match r.Journal.r_sessions with
  | [ { Journal.rs_entries = [ `Bind ("x", 1.0) ]; _ } ] -> ()
  | _ -> Alcotest.fail "valid prefix (first bind) not recovered"

let test_flipped_crc_byte () =
  let r =
    corrupt_and_recover ~mangle:(fun s ->
        (* flip a byte inside the LAST record's payload so its CRC fails *)
        let b = Bytes.of_string s in
        let i = Bytes.length b - 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
        Bytes.to_string b)
  in
  Alcotest.(check bool) "corrupt flagged" true r.Journal.r_corrupt;
  match r.Journal.r_sessions with
  | [ { Journal.rs_entries = [ `Bind ("x", 1.0) ]; _ } ] -> ()
  | _ -> Alcotest.fail "valid prefix not recovered after CRC flip"

let test_zero_length_file () =
  with_temp_dir (fun dir ->
      write_file (wal dir) "";
      let (j, r), records =
        Diag.capture (fun () -> Journal.open_ ~dir ~fsync:Journal.Always)
      in
      Alcotest.(check bool) "warned about the empty file" true
        (has_journal_warning records);
      Alcotest.(check int) "no sessions" 0 (List.length r.Journal.r_sessions);
      (* the journal must be usable after starting from the empty file *)
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 7.0));
      Journal.close j;
      let j2, r2 = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.close j2;
      Alcotest.(check int) "append after empty start survives" 1
        (List.length r2.Journal.r_sessions))

let test_snapshot_compaction () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      for i = 1 to 50 do
        Journal.append j ~session:"a" ~busy:0.0
          (`Bind ("x", float_of_int i))
      done;
      Alcotest.(check int) "tail grows" 50 (Journal.tail_length j ~session:"a");
      (* what the server does when the tail exceeds snapshot_every: write
         the minimal script (one bind — all 50 are superseded) *)
      Journal.snapshot j ~session:"a" ~entries:[ `Bind ("x", 50.0) ] ~busy:1.0;
      Alcotest.(check int) "snapshot resets the tail" 0
        (Journal.tail_length j ~session:"a");
      Journal.close j;
      let j2, r = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.close j2;
      match r.Journal.r_sessions with
      | [ { Journal.rs_entries = [ `Bind ("x", 50.0) ]; rs_busy; _ } ] ->
          Alcotest.(check (float 1e-9)) "snapshot busy" 1.0 rs_busy
      | [ { Journal.rs_entries; _ } ] ->
          Alcotest.failf "snapshot did not supersede the tail (%d entries)"
            (List.length rs_entries)
      | _ -> Alcotest.fail "expected one session")

let test_rewrite_shrinks_file () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      (* enough superseded traffic to cross the 64 KiB rewrite floor *)
      let big = String.make 400 'm' in
      for i = 1 to 300 do
        Journal.append j ~session:"a" ~busy:0.0
          (`Eval (Printf.sprintf "bind x %d * 0 /* %s */" i big))
      done;
      let before = Journal.file_bytes j in
      Journal.snapshot j ~session:"a" ~entries:[ `Bind ("x", 0.0) ] ~busy:0.0;
      let after = Journal.file_bytes j in
      Journal.close j;
      Alcotest.(check bool)
        (Printf.sprintf "rewrite shrank the file (%d -> %d)" before after)
        true
        (after < before / 4);
      (* and the rewritten file still recovers *)
      let j2, r = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.close j2;
      Alcotest.(check int) "one session after rewrite" 1
        (List.length r.Journal.r_sessions))

(* --- daemon restart semantics ------------------------------------------- *)

let test_restart_recovers_sessions () =
  with_temp_dir (fun dir ->
      let config = journal_config dir in
      with_server ~config (fun path ->
          let fd = connect path in
          let r1 =
            roundtrip fd
              [ ("op", Json.Str "eval"); ("session", Json.Str "m");
                ( "src",
                  Json.Str
                    "bind lam 0.001\nmarkov up2\n  2 1 2*lam\n  1 0 lam\n  1 \
                     2 0.1\nend\n0 1.0\nend\nexpr prob(up2, 0)" ) ]
          in
          Alcotest.(check bool) "eval ok" true (is_ok r1);
          let b =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str "m");
                ("name", Json.Str "extra"); ("value", Json.Num 42.0) ]
          in
          Alcotest.(check bool) "bind ok" true (is_ok b);
          Unix.close fd);
      (* "crash": the first daemon is gone; a new one recovers the dir *)
      with_server ~config (fun path ->
          let fd = connect path in
          let health = roundtrip fd [ ("op", Json.Str "health") ] in
          Alcotest.(check bool) "health ok" true (is_ok health);
          Alcotest.(check (option (float 0.0))) "one session recovered"
            (Some 1.0)
            (Option.bind (Json.member "recovered_sessions" health) Json.to_float);
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "m");
                ("expr", Json.Str "extra + prob(up2, 0) * 0") ]
          in
          Alcotest.(check bool) "recovered session answers" true (is_ok q);
          Alcotest.(check (option (float 1e-9))) "recovered binding value"
            (Some 42.0)
            (Option.bind (Json.member "value" q) Json.to_float);
          Unix.close fd))

(* a [pepa ... end] block is journaled as ordinary statement source, so
   recovery replays it through the same front end: the model must answer
   the same query, to the bit, in the next process generation *)
let test_pepa_block_across_restart () =
  with_temp_dir (fun dir ->
      let config = journal_config dir in
      let src =
        "bind mu 2\n\
         pepa srv\n\
         Idle = (arrive, 1).Busy\n\
         Busy = (serve, mu).Idle + (fail, 0.1).Down\n\
         Down = (repair, 0.5).Idle\n\
         Client = (arrive, infty).Think\n\
         Think = (think, 0.8).Client\n\
         Client <arrive> Idle\n\
         end"
      in
      let v1 = ref nan in
      with_server ~config (fun path ->
          let fd = connect path in
          let r =
            roundtrip fd
              [ ("op", Json.Str "eval"); ("session", Json.Str "p");
                ("src", Json.Str src) ]
          in
          Alcotest.(check bool) "pepa eval ok" true (is_ok r);
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "p");
                ("expr", Json.Str "tput(srv, serve)") ]
          in
          Alcotest.(check bool) "pepa query ok" true (is_ok q);
          (match Option.bind (Json.member "value" q) Json.to_float with
          | Some v -> v1 := v
          | None -> Alcotest.fail "no value for pepa throughput");
          Alcotest.(check bool) "throughput positive" true (!v1 > 0.0);
          Unix.close fd);
      with_server ~config (fun path ->
          let fd = connect path in
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "p");
                ("expr", Json.Str "tput(srv, serve)") ]
          in
          Alcotest.(check bool) "recovered pepa model answers" true (is_ok q);
          Alcotest.(check (option (float 0.0))) "same throughput after restart"
            (Some !v1)
            (Option.bind (Json.member "value" q) Json.to_float);
          Unix.close fd))

let test_duplicate_request_id_across_restart () =
  with_temp_dir (fun dir ->
      let config = journal_config dir in
      let first = ref "" in
      with_server ~config (fun path ->
          let fd = connect path in
          first :=
            roundtrip_line fd
              [ ("id", Json.Str "orig"); ("request_id", Json.Str "dup-1");
                ("op", Json.Str "eval"); ("session", Json.Str "s");
                ("src", Json.Str "bind n 3\nexpr n * n") ];
          Unix.close fd);
      with_server ~config (fun path ->
          let fd = connect path in
          (* same request_id after the restart: the recovered idempotency
             cache must replay the SAME line, not evaluate again *)
          let again =
            roundtrip_line fd
              [ ("id", Json.Str "orig"); ("request_id", Json.Str "dup-1");
                ("op", Json.Str "eval"); ("session", Json.Str "s");
                ("src", Json.Str "bind n 3\nexpr n * n") ]
          in
          Alcotest.(check string) "duplicate replays the recorded response"
            !first again;
          (* and the session was not mutated a second time: the journal
             holds one eval record, so eval_count after recovery is 1;
             observable via a query that n is still 3 *)
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "s");
                ("expr", Json.Str "n") ]
          in
          Alcotest.(check (option (float 0.0))) "state intact" (Some 3.0)
            (Option.bind (Json.member "value" q) Json.to_float);
          Unix.close fd))

let test_ttl_expired_not_resurrected () =
  with_temp_dir (fun dir ->
      let config = journal_config ~session_ttl:0.05 dir in
      with_server ~config (fun path ->
          let fd = connect path in
          let b =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str "old");
                ("name", Json.Str "x"); ("value", Json.Num 1.0) ]
          in
          Alcotest.(check bool) "bind ok" true (is_ok b);
          Unix.close fd);
      (* let the journaled timestamps age past the TTL before restarting *)
      Unix.sleepf 0.15;
      with_server ~config (fun path ->
          let fd = connect path in
          let health = roundtrip fd [ ("op", Json.Str "health") ] in
          Alcotest.(check (option (float 0.0))) "expired session skipped"
            (Some 1.0)
            (Option.bind (Json.member "skipped_expired" health) Json.to_float);
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "old");
                ("expr", Json.Str "x") ]
          in
          Alcotest.(check (option string))
            "first request gets a structured session_expired"
            (Some "session_expired") (error_kind q);
          Unix.close fd))

let test_quota_exhausted_not_resurrected () =
  with_temp_dir (fun dir ->
      let config = journal_config ~session_quota:1e-9 dir in
      with_server ~config (fun path ->
          let fd = connect path in
          (* first request is admitted (busy starts at 0); its busy time,
             however tiny, exceeds the quota and is journaled *)
          let b =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str "q");
                ("name", Json.Str "x"); ("value", Json.Num 1.0) ]
          in
          Alcotest.(check bool) "first bind ok" true (is_ok b);
          Unix.close fd);
      with_server ~config (fun path ->
          let fd = connect path in
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "q");
                ("expr", Json.Str "x") ]
          in
          Alcotest.(check (option string))
            "quota-exhausted session is tombstoned, not rebuilt"
            (Some "session_expired") (error_kind q);
          Unix.close fd))

(* --- drain, health, client deadline ------------------------------------- *)

let test_drain_flushes_and_exits () =
  with_temp_dir (fun dir ->
      let config = journal_config dir in
      let drain = Atomic.make false in
      with_server ~config ~drain (fun path ->
          let fd = connect path in
          let b =
            roundtrip fd
              [ ("op", Json.Str "bind"); ("session", Json.Str "d");
                ("name", Json.Str "x"); ("value", Json.Num 9.0) ]
          in
          Alcotest.(check bool) "bind ok" true (is_ok b);
          Unix.close fd;
          (* SIGTERM equivalent: serve notices within its 100 ms poll and
             returns; with_server's finally then joins the thread *)
          Atomic.set drain true);
      (* the drained daemon flushed its journal: a successor recovers *)
      with_server ~config (fun path ->
          let fd = connect path in
          let q =
            roundtrip fd
              [ ("op", Json.Str "query"); ("session", Json.Str "d");
                ("expr", Json.Str "x") ]
          in
          Alcotest.(check (option (float 0.0))) "state survived the drain"
            (Some 9.0)
            (Option.bind (Json.member "value" q) Json.to_float);
          Unix.close fd))

let test_health_without_journal () =
  with_server (fun path ->
      let fd = connect path in
      let h = roundtrip fd [ ("op", Json.Str "health") ] in
      Alcotest.(check bool) "ok" true (is_ok h);
      Alcotest.(check (option bool)) "ready" (Some true)
        (match Json.member "ready" h with
        | Some (Json.Bool b) -> Some b
        | _ -> None);
      Alcotest.(check (option bool)) "no journal" (Some false)
        (match Json.member "journal" h with
        | Some (Json.Bool b) -> Some b
        | _ -> None);
      Alcotest.(check bool) "uptime present" true
        (Option.bind (Json.member "uptime_s" h) Json.to_float <> None);
      Unix.close fd)

let test_client_deadline_caps_backoff () =
  (* nothing listens on this path: every attempt fails to connect, and
     the old client would sleep out its full exponential backoff.  With a
     deadline, the first sleep that does not fit is skipped and the last
     error returned immediately. *)
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sharped_nobody_%d.sock" (Unix.getpid ()))
  in
  let policy =
    { Client.attempts = 10; base_delay = 30.0; max_delay = 60.0; jitter = 0.0 }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Client.request ~policy
      ~deadline:(t0 +. 0.2)
      (`Unix path)
      (Json.Obj [ ("op", Json.Str "ping") ])
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with
  | Error (Client.Connect_failed _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "request cannot have succeeded");
  Alcotest.(check bool)
    (Printf.sprintf "failed fast (%.2fs) instead of sleeping 30s" elapsed)
    true (elapsed < 5.0)

let suite =
  [ Alcotest.test_case "replay script drops superseded binds" `Quick
      test_replay_script_minimal;
    Alcotest.test_case "journal roundtrip: sessions, rids, evict" `Quick
      test_journal_roundtrip_direct;
    Alcotest.test_case "truncated final record recovers prefix" `Quick
      test_truncated_final_record;
    Alcotest.test_case "flipped CRC byte recovers prefix" `Quick
      test_flipped_crc_byte;
    Alcotest.test_case "zero-length journal file" `Quick test_zero_length_file;
    Alcotest.test_case "snapshot supersedes the tail" `Quick
      test_snapshot_compaction;
    Alcotest.test_case "rewrite drops superseded bytes" `Quick
      test_rewrite_shrinks_file;
    Alcotest.test_case "restart recovers sessions" `Quick
      test_restart_recovers_sessions;
    Alcotest.test_case "pepa block across restart" `Quick
      test_pepa_block_across_restart;
    Alcotest.test_case "duplicate request_id across restart" `Quick
      test_duplicate_request_id_across_restart;
    Alcotest.test_case "TTL-expired sessions stay dead" `Quick
      test_ttl_expired_not_resurrected;
    Alcotest.test_case "quota-exhausted sessions stay dead" `Quick
      test_quota_exhausted_not_resurrected;
    Alcotest.test_case "drain flushes the journal and exits" `Quick
      test_drain_flushes_and_exits;
    Alcotest.test_case "health op without a journal" `Quick
      test_health_without_journal;
    Alcotest.test_case "client deadline caps retry backoff" `Quick
      test_client_deadline_caps_backoff ]
