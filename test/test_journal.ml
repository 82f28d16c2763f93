(* Tests for the durability layer: the write-ahead journal itself
   (framing, corruption recovery and its fuzzing, compaction, the format a
   parent daemon wrote, bounded memory), crash/restart semantics of
   the daemon (sessions rebuilt deterministically, idempotency across a
   restart, TTL/quota interaction), graceful drain, the health op and the
   client's deadline-capped backoff. *)

module Interp = Sharpe_lang.Interp
module Diag = Sharpe_numerics.Diag
module Server = Sharpe_server.Server
module Journal = Sharpe_server.Journal
module Client = Sharpe_server.Client
module Json = Sharpe_server.Json

let temp_dirs = ref 0

let temp_dir prefix =
  incr temp_dirs;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d_%.0f" prefix (Unix.getpid ()) !temp_dirs
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

let journal_config ?session_ttl ?session_quota dir =
  { Server.default_config with
    Server.workers = 1;
    journal_dir = Some dir;
    fsync = Journal.Always;
    session_ttl;
    session_quota }

let recover dir =
  let j, r = Journal.open_ ~dir ~fsync:Journal.Never in
  Journal.close j;
  r

(* the checkout's root, found upward from the test's working directory *)
let src_root =
  let rec find dir depth =
    if Sys.file_exists (Filename.concat dir "test/journal_v1") then dir
    else if depth = 0 then failwith "test_journal: cannot locate source root"
    else find (Filename.dirname dir) (depth - 1)
  in
  find (Sys.getcwd ()) 6

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

(* --- compaction --------------------------------------------------------- *)

let magic = "SHARPEWAL1\n"

(* The end offset and payload of every whole frame of a journal file, read
   by the frame format alone (length, CRC, payload); stops at the first
   frame that does not fit. *)
let frames contents =
  let len = String.length contents in
  let rec go pos acc =
    if len - pos < 8 then List.rev acc
    else
      let plen = Int32.to_int (String.get_int32_le contents pos) land 0xFFFFFFFF in
      if plen <= 0 || len - pos - 8 < plen then List.rev acc
      else
        go (pos + 8 + plen)
          ((pos + 8 + plen, String.sub contents (pos + 8) plen) :: acc)
  in
  if len < String.length magic then [] else go (String.length magic) []

(* The entries of every snap frame of [session] in the file, as JSON. *)
let snap_entries dir session =
  List.concat_map
    (fun (_, payload) ->
      match Json.parse payload with
      | Ok r
        when Json.member "t" r = Some (Json.Str "snap")
             && Json.member "s" r = Some (Json.Str session) -> (
          match Json.member "entries" r with
          | Some (Json.List l) -> List.map Json.to_string l
          | _ -> [])
      | _ -> [])
    (frames (read_file (wal dir)))

(* Bind one name over and over in a session of its own until the journal
   compacts itself, which shows as a shrinking file. *)
let until_rewrite j =
  let rec go i =
    if i > 100_000 then Alcotest.fail "the journal never compacted";
    let before = Journal.file_bytes j in
    Journal.append j ~session:"pad" ~busy:0.0 (`Bind ("p", float_of_int i));
    if Journal.file_bytes j >= before then go (i + 1)
  in
  go 0

let entries_of r name =
  List.find_map
    (fun rs -> if rs.Journal.rs_name = name then Some rs.Journal.rs_entries else None)
    r.Journal.r_sessions

let test_rewrite_drops_superseded_bind () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 1.0));
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 2.0));
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("y", 5.0));
      until_rewrite j;
      Journal.close j;
      Alcotest.(check (list string))
        "the rewritten file holds the later bind of x only"
        [ {|{"e":"bind","name":"x","value":2}|};
          {|{"e":"bind","name":"y","value":5}|} ]
        (snap_entries dir "a");
      match entries_of (recover dir) "a" with
      | Some [ `Bind ("x", 2.0); `Bind ("y", 5.0) ] -> ()
      | Some l -> Alcotest.failf "recovered %d entries" (List.length l)
      | None -> Alcotest.fail "session a lost")

(* an eval between two binds of the same name pins the earlier one: the
   eval may have read it *)
let test_rewrite_keeps_pinned_bind () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 1.0));
      Journal.append j ~session:"a" ~busy:0.0 (`Eval "bind z x * 10");
      Journal.append j ~session:"a" ~busy:0.0 (`Bind ("x", 2.0));
      until_rewrite j;
      Journal.close j;
      Alcotest.(check (list string)) "the eval-pinned bind stays"
        [ {|{"e":"bind","name":"x","value":1}|};
          {|{"e":"eval","src":"bind z x * 10"}|};
          {|{"e":"bind","name":"x","value":2}|} ]
        (snap_entries dir "a");
      match entries_of (recover dir) "a" with
      | Some [ `Bind ("x", 1.0); `Eval _; `Bind ("x", 2.0) ] -> ()
      | Some l -> Alcotest.failf "recovered %d entries" (List.length l)
      | None -> Alcotest.fail "session a lost")

let test_rewrite_shrinks_file () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      (* superseded binds carrying request ids, one live eval, and a big
         session whose eviction makes the file mostly dead *)
      for i = 1 to 300 do
        Journal.append j ~session:"a" ~busy:(0.001 *. float_of_int i)
          ~request_id:(Printf.sprintf "r%d" i)
          ~response:(true, Printf.sprintf {|{"id":%d,"ok":true}|} i)
          (`Bind ("x", float_of_int i))
      done;
      Journal.append j ~session:"b" ~busy:0.5 ~request_id:"rb"
        ~response:(false, {|{"ok":false}|}) (`Eval "bind k 1");
      let big = String.make 400 'm' in
      for i = 1 to 300 do
        Journal.append j ~session:"big" ~busy:0.0
          (`Eval (Printf.sprintf "bind x %d * 0 /* %s */" i big))
      done;
      let before_dir = temp_dir "sharpe_journal_before" in
      Fun.protect
        ~finally:(fun () -> try rm_rf before_dir with _ -> ())
        (fun () ->
          write_file (wal before_dir) (read_file (wal dir));
          let before = Journal.file_bytes j in
          Journal.evict j "big";
          let after = Journal.file_bytes j in
          Journal.close j;
          Alcotest.(check bool)
            (Printf.sprintf "rewrite shrank the file (%d -> %d)" before after)
            true
            (after * 4 <= before);
          let expected = recover before_dir and r = recover dir in
          Alcotest.(check bool) "same sessions, entries and busy seconds" true
            (List.filter (fun rs -> rs.Journal.rs_name <> "big")
               expected.Journal.r_sessions
            = r.Journal.r_sessions);
          Alcotest.(check bool) "same replay window" true
            (expected.Journal.r_replays = r.Journal.r_replays);
          Alcotest.(check int) "the window holds every request id" 301
            (List.length r.Journal.r_replays)))

(* --- the format, pinned and fuzzed -------------------------------------- *)

(* test/journal_v1/journal.wal pins the v1 format as an earlier daemon
   wrote it: a rewrite left meta, one snap frame and a rids record,
   followed by records with and without a request id and an evicted
   session.  The values below are what that daemon recovered from it. *)
let test_parent_format_recovers () =
  with_temp_dir (fun dir ->
      let fixture = read_file (Filename.concat src_root "test/journal_v1/journal.wal") in
      write_file (wal dir) fixture;
      let j, r = Journal.open_ ~dir ~fsync:Journal.Never in
      Journal.append j ~session:"b" ~busy:0.25 (`Bind ("q", 2.0));
      Journal.close j;
      Alcotest.(check bool) "clean file" false r.Journal.r_corrupt;
      Alcotest.(check int) "nothing dropped" 0 r.Journal.r_dropped_bytes;
      (match r.Journal.r_sessions with
      | [ a; b ] ->
          Alcotest.(check string) "session a" "a" a.Journal.rs_name;
          Alcotest.(check bool) "entries of a" true
            (a.Journal.rs_entries
            = [ `Bind ("x", 2.0); `Eval "bind y x * 2"; `Bind ("z", 4.0);
                `Bind ("x", 5.0); `Eval "expr x + y + z" ]);
          Alcotest.(check (float 0.0)) "busy of a" 0x1.1eb851eb851ecp-4
            a.Journal.rs_busy;
          Alcotest.(check (float 0.0)) "last ts of a" 0x1.ab5a9d71b8855p+30
            a.Journal.rs_last_ts;
          Alcotest.(check string) "session b" "b" b.Journal.rs_name;
          Alcotest.(check bool) "entries of b" true
            (b.Journal.rs_entries = [ `Bind ("q", 1.0); `Eval "expr q" ]);
          Alcotest.(check (float 0.0)) "busy of b" 0x1.999999999999ap-3
            b.Journal.rs_busy;
          Alcotest.(check (float 0.0)) "last ts of b" 0x1.ab5a9d71b888bp+30
            b.Journal.rs_last_ts
      | ss -> Alcotest.failf "expected sessions a and b, got %d" (List.length ss));
      Alcotest.(check (list (triple string bool string))) "replay window"
        [ ("r1", true, {|{"id":"r1","ok":true}|});
          ("r2", true, {|{"id":"r2","ok":true}|});
          ("r3", true, {|{"id":"r3","ok":true}|});
          ("r4", false, {|{"id":"r4","ok":false}|}) ]
        r.Journal.r_replays;
      Alcotest.(check bool) "appends follow the recovered file" true
        (String.starts_with ~prefix:fixture (read_file (wal dir)));
      match entries_of (recover dir) "b" with
      | Some [ `Bind ("q", 1.0); `Eval "expr q"; `Bind ("q", 2.0) ] -> ()
      | _ -> Alcotest.fail "the appended bind did not recover")

type op =
  | Eval of string * string * string option
  | Bind of string * string * float * string option
  | Evict of string

let show_op = function
  | Eval (s, src, rid) ->
      Printf.sprintf "eval %s %S%s" s src (Option.fold ~none:"" ~some:(( ^ ) " rid ") rid)
  | Bind (s, n, v, rid) ->
      Printf.sprintf "bind %s %s %h%s" s n v (Option.fold ~none:"" ~some:(( ^ ) " rid ") rid)
  | Evict s -> "evict " ^ s

let arb_damaged_journal =
  let open QCheck.Gen in
  let session = oneofl [ "a"; "b"; "c" ] in
  let rid = opt (map (Printf.sprintf "rid-%d") (int_bound 20)) in
  let op =
    frequency
      [ ( 3,
          map3
            (fun s src rid -> Eval (s, src, rid))
            session
            (string_size ~gen:printable (int_bound 40))
            rid );
        ( 4,
          map3
            (fun s (n, v) rid -> Bind (s, n, v, rid))
            session
            (pair (oneofl [ "x"; "y"; "z" ]) (float_range (-1e3) 1e3))
            rid );
        (1, map (fun s -> Evict s) session) ]
  in
  (* the damage: cut the file at, or flip a byte past the magic at, a
     fraction of its length *)
  let damage = triple bool (float_bound_exclusive 1.0) (int_range 1 255) in
  QCheck.make
    ~print:(fun (ops, (cut, at, mask)) ->
      Printf.sprintf "%s at %g (mask %d) after:\n%s"
        (if cut then "cut" else "flip")
        at mask
        (String.concat "\n" (List.map show_op ops)))
    (pair (list_size (int_range 1 30) op) damage)

let prop_damage_recovers_prefix =
  QCheck.Test.make ~name:"damaged journal recovers its whole-frame prefix"
    ~count:300 arb_damaged_journal (fun (ops, (cut, at, mask)) ->
      with_temp_dir (fun dir ->
          let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
          List.iteri
            (fun i op ->
              let busy = float_of_int i in
              let response rid = Option.map (fun _ -> (i mod 2 = 0, string_of_int i)) rid in
              match op with
              | Eval (s, src, rid) ->
                  Journal.append j ~session:s ?request_id:rid ?response:(response rid)
                    ~busy (`Eval src)
              | Bind (s, n, v, rid) ->
                  Journal.append j ~session:s ?request_id:rid ?response:(response rid)
                    ~busy (`Bind (n, v))
              | Evict s -> Journal.evict j s)
            ops;
          Journal.close j;
          let good = read_file (wal dir) in
          let len = String.length good and m = String.length magic in
          let pos, damaged =
            if cut then
              let p = int_of_float (at *. float_of_int len) in
              (p, String.sub good 0 p)
            else
              let p = m + int_of_float (at *. float_of_int (len - m)) in
              let b = Bytes.of_string good in
              Bytes.set b p (Char.chr (Char.code good.[p] lxor mask));
              (p, Bytes.to_string b)
          in
          (* the end of the last whole frame before the damage *)
          let keep =
            List.fold_left
              (fun k (e, _) -> if e <= pos then e else k)
              (if pos >= m then m else 0)
              (frames good)
          in
          let quiet f = fst (Diag.capture f) in
          let expected =
            with_temp_dir (fun ref_dir ->
                write_file (wal ref_dir) (String.sub good 0 keep);
                quiet (fun () -> recover ref_dir))
          in
          write_file (wal dir) damaged;
          let r = quiet (fun () -> recover dir) in
          let same a b =
            a.Journal.r_sessions = b.Journal.r_sessions
            && a.Journal.r_replays = b.Journal.r_replays
          in
          let truncated =
            if keep > 0 then String.length (read_file (wal dir)) = keep
            else String.starts_with ~prefix:magic (read_file (wal dir))
          in
          let j, _ = quiet (fun () -> Journal.open_ ~dir ~fsync:Journal.Never) in
          Journal.append j ~session:"w" ~busy:1.0 (`Bind ("v", 1.0));
          Journal.close j;
          let after = recover dir in
          let appended, rest =
            List.partition (fun rs -> rs.Journal.rs_name = "w") after.Journal.r_sessions
          in
          same expected r && truncated
          && rest = expected.Journal.r_sessions
          && after.Journal.r_replays = expected.Journal.r_replays
          && (match appended with
             | [ { Journal.rs_entries = [ `Bind ("v", 1.0) ]; _ } ] -> true
             | _ -> false)))

(* --- bounded memory ----------------------------------------------------- *)

(* neither a session nor the journal keeps a copy of the request
   history: the footprint after 1 000 requests is the one after 10 *)
let check_bounded what at10 at1000 =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d after 1000 requests, %d after 10" what at1000 at10)
    true
    (float_of_int at1000 <= 1.2 *. float_of_int at10)

let test_session_footprint_bounded () =
  let src = read_file (Filename.concat src_root "examples/sharpe/molloy.sharpe") in
  let s = Interp.Session.create () in
  let evals n = for _ = 1 to n do ignore (Interp.Session.eval s src) done in
  evals 10;
  let at10 = Interp.Session.approx_bytes s in
  evals 990;
  check_bounded "session approx_bytes" at10 (Interp.Session.approx_bytes s)

let test_journal_footprint_bounded () =
  with_temp_dir (fun dir ->
      let j, _ = Journal.open_ ~dir ~fsync:Journal.Never in
      let src = Printf.sprintf "bind x 1 /* %s */" (String.make 1000 'c') in
      let appends n =
        for _ = 1 to n do
          Journal.append j ~session:"a" ~busy:0.0 (`Eval src)
        done
      in
      appends 10;
      let words () = Obj.reachable_words (Obj.repr j) in
      let at10 = words () in
      appends 990;
      let at1000 = words () in
      Journal.close j;
      check_bounded "journal words" at10 at1000)

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
             holds one eval record, so a query finds n still 3 *)
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
  [ Alcotest.test_case "journal roundtrip: sessions, rids, evict" `Quick
      test_journal_roundtrip_direct;
    Alcotest.test_case "truncated final record recovers prefix" `Quick
      test_truncated_final_record;
    Alcotest.test_case "flipped CRC byte recovers prefix" `Quick
      test_flipped_crc_byte;
    Alcotest.test_case "zero-length journal file" `Quick test_zero_length_file;
    Alcotest.test_case "rewrite drops a superseded bind" `Quick
      test_rewrite_drops_superseded_bind;
    Alcotest.test_case "rewrite keeps eval-pinned binds" `Quick
      test_rewrite_keeps_pinned_bind;
    Alcotest.test_case "rewrite drops superseded bytes" `Quick
      test_rewrite_shrinks_file;
    Alcotest.test_case "parent-written journal recovers as before" `Quick
      test_parent_format_recovers;
    QCheck_alcotest.to_alcotest prop_damage_recovers_prefix;
    Alcotest.test_case "session footprint bounded over 1000 evals" `Quick
      test_session_footprint_bounded;
    Alcotest.test_case "journal footprint bounded over 1000 appends" `Quick
      test_journal_footprint_bounded;
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
