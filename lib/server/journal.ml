(* Durable write-ahead journal for sharped sessions.  See journal.mli
   for the frame format and recovery semantics.

   The file is the only copy of a session's history.  In memory the
   journal keeps a byte account per session (see [sess]); compaction
   re-reads the file with the same scan recovery runs.

   Locking: one mutex guards the file descriptor and the account.
   Callers (the server) serialize per-session appends with the session
   lock, so per-session record order in the file matches execution
   order; records of different sessions interleave freely. *)


module Diag = Sharpe_numerics.Diag

type fsync = Always | Interval of float | Never

let fsync_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.1)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      let ms = String.sub s 9 (String.length s - 9) in
      match float_of_string_opt ms with
      | Some ms when ms >= 0.0 -> Ok (Interval (ms /. 1000.0))
      | _ -> Error (Printf.sprintf "bad fsync interval %S (milliseconds)" ms))
  | _ ->
      Error
        (Printf.sprintf
           "bad fsync policy %S (always | never | interval | interval:MS)" s)

let fsync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" (s *. 1000.0)

type entry = [ `Eval of string | `Bind of string * float ]

type recovered_session = {
  rs_name : string;
  rs_entries : entry list;
  rs_busy : float;
  rs_last_ts : float;
}

type recovered = {
  r_sessions : recovered_session list;
  r_replays : (string * bool * string) list;
  r_corrupt : bool;
  r_dropped_bytes : int;
}

(* --- CRC32 (IEEE 802.3, the zlib polynomial) --------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* --- framing ------------------------------------------------------------ *)

let magic = "SHARPEWAL1\n"
let max_frame = 64 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 n;
  b

let get_le32 s pos =
  Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* --- the live-byte account ---------------------------------------------- *)

(* The framed bytes of one session that a rewrite would keep, and for
   each name bound since the session's last eval that bind's frame
   length.  A later bind of the same name makes the earlier frame dead;
   an eval pins every bind before it (it may have read them), so it
   clears the table. *)
type sess = {
  mutable live : int;
  bound : (string, int) Hashtbl.t;
}

let fresh_sess live = { live; bound = Hashtbl.create 8 }

(* Account one mutation record of [flen] framed bytes; returns the
   change in live bytes. *)
let account s flen : entry -> int = function
  | `Eval _ ->
      if Hashtbl.length s.bound > 0 then Hashtbl.reset s.bound;
      s.live <- s.live + flen;
      flen
  | `Bind (n, _) ->
      let dead = Option.value (Hashtbl.find_opt s.bound n) ~default:0 in
      Hashtbl.replace s.bound n flen;
      s.live <- s.live + flen - dead;
      flen - dead

type t = {
  path : string;
  fsync : fsync;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable bytes : int;
  mutable unsynced : int;
  mutable last_sync : float option;
  mutable records : int;
  mutable sessions : (string, sess) Hashtbl.t;
  mutable live : int;  (* bytes a rewrite would keep, header included *)
}

let rid_cap = 512

(* --- record payloads ---------------------------------------------------- *)

let entry_json : entry -> Json.t = function
  | `Eval src -> Json.Obj [ ("e", Json.Str "eval"); ("src", Json.Str src) ]
  | `Bind (n, v) ->
      Json.Obj
        [ ("e", Json.Str "bind"); ("name", Json.Str n); ("value", Json.Num v) ]

let entry_of_json j : entry option =
  match Json.member "e" j with
  | Some (Json.Str "eval") ->
      Option.map (fun s -> `Eval s) (Option.bind (Json.member "src" j) Json.to_str)
  | Some (Json.Str "bind") -> (
      match
        ( Option.bind (Json.member "name" j) Json.to_str,
          Option.bind (Json.member "value" j) Json.to_float )
      with
      | Some n, Some v -> Some (`Bind (n, v))
      | _ -> None)
  | _ -> None

let rid_fields = function
  | None -> []
  | Some (rid, ok, resp) ->
      [ ("rid", Json.Str rid); ("ok", Json.Bool ok); ("resp", Json.Str resp) ]

let mutation_payload ~session ~rid ~busy ~ts (entry : entry) =
  let base =
    match entry with
    | `Eval src -> [ ("t", Json.Str "eval"); ("src", Json.Str src) ]
    | `Bind (n, v) ->
        [ ("t", Json.Str "bind"); ("name", Json.Str n); ("value", Json.Num v) ]
  in
  Json.to_string
    (Json.Obj
       (base
       @ [ ("s", Json.Str session); ("ts", Json.Num ts); ("busy", Json.Num busy) ]
       @ rid_fields rid))

let snap_payload ~session ~entries ~busy ~ts =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "snap");
         ("s", Json.Str session);
         ("ts", Json.Num ts);
         ("busy", Json.Num busy);
         ("entries", Json.List (List.map entry_json entries)) ])

let evict_payload ~session ~ts =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "evict"); ("s", Json.Str session); ("ts", Json.Num ts) ])

let rids_payload items =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "rids");
         ("items", Json.List (List.map (fun r -> Json.Obj (rid_fields (Some r))) items)) ])

let meta_payload () =
  Json.to_string
    (Json.Obj
       [ ("t", Json.Str "meta");
         ("version", Json.Num 1.0);
         ("created", Json.Num (Unix.gettimeofday ())) ])

(* --- file IO ------------------------------------------------------------ *)

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let do_sync t =
  Unix.fsync t.fd;
  t.unsynced <- 0;
  t.last_sync <- Some (Unix.gettimeofday ())

let policy_sync t =
  match t.fsync with
  | Always -> do_sync t
  | Never -> ()
  | Interval i -> (
      match t.last_sync with
      | None -> do_sync t
      | Some at ->
          if t.unsynced > 0 && Unix.gettimeofday () -. at >= i then do_sync t)

(* Caller holds t.mutex.  Returns the framed length. *)
let write_frame t payload =
  let b = frame payload in
  write_all t.fd b;
  t.bytes <- t.bytes + Bytes.length b;
  t.unsynced <- t.unsynced + Bytes.length b;
  t.records <- t.records + 1;
  policy_sync t;
  Bytes.length b

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ());
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

(* --- the scan: recovery and compaction ---------------------------------- *)

let warn fmt = Diag.emitf Diag.Warning ~solver:"journal" fmt

type scanned = {
  acct : sess;
  mutable entries : entry list;  (* newest first, dead binds dropped *)
  mutable busy : float;
  mutable last_ts : float;
}

type scan = {
  found : (string, scanned) Hashtbl.t;
  rids : (string * bool * string) Queue.t;  (* oldest first, bounded *)
  kept : int;  (* bytes a rewrite would keep *)
  frames : int;
  len : int;  (* file length *)
  valid_end : int;  (* end of the longest valid prefix *)
  stop : string option;  (* why the scan ended before [len] *)
}

(* [entries] is newest first; drop its bind of [n] after the last eval.
   There is at most one: an earlier one was dropped when this one came. *)
let rec drop_bind n = function
  | `Bind (m, _) :: rest when m = n -> rest
  | (`Bind _ as e) :: rest -> e :: drop_bind n rest
  | l -> l

(* Read [path] frame by frame and rebuild every live session: its
   entries with dead binds dropped, its busy seconds and last timestamp,
   and its byte account; plus the request-id window.  Stops at the first
   torn, corrupt or unparseable frame. *)
let scan path =
  let found = Hashtbl.create 16 in
  let rids = Queue.create () in
  let live = ref (String.length magic) in
  let frames = ref 0 in
  let get name =
    match Hashtbl.find_opt found name with
    | Some s -> s
    | None ->
        let s = { acct = fresh_sess 0; entries = []; busy = 0.0; last_ts = 0.0 } in
        Hashtbl.add found name s;
        s
  in
  let drop name =
    Option.iter
      (fun s ->
        live := !live - s.acct.live;
        Hashtbl.remove found name)
      (Hashtbl.find_opt found name)
  in
  (* a mutation record or a rids item that carries a request id *)
  let push_rid j =
    let str name = Option.bind (Json.member name j) Json.to_str in
    match (str "rid", Json.member "ok" j, str "resp") with
    | Some rid, Some (Json.Bool ok), Some resp ->
        Queue.add (rid, ok, resp) rids;
        if Queue.length rids > rid_cap then ignore (Queue.pop rids)
    | _ -> ()
  in
  let apply flen obj =
    let str name = Option.bind (Json.member name obj) Json.to_str in
    let num name = Option.bind (Json.member name obj) Json.to_float in
    let session () = Option.value (str "s") ~default:"" in
    let busy () = Option.value (num "busy") ~default:0.0 in
    let ts () = Option.value (num "ts") ~default:0.0 in
    let mutation entry =
      let s = get (session ()) in
      (match entry with
      | `Bind (n, _) -> s.entries <- drop_bind n s.entries
      | `Eval _ -> ());
      s.entries <- entry :: s.entries;
      live := !live + account s.acct flen entry;
      s.busy <- busy ();
      s.last_ts <- ts ();
      push_rid obj
    in
    match str "t" with
    | Some "eval" -> (
        match str "src" with
        | Some src -> mutation (`Eval src)
        | None -> warn "eval record without src; skipped")
    | Some "bind" -> (
        match (str "name", num "value") with
        | Some n, Some v -> mutation (`Bind (n, v))
        | _ -> warn "bind record without name/value; skipped")
    | Some "snap" ->
        (* a snapshot supersedes every earlier record of its session; the
           binds it holds stay live in the account until the next rewrite *)
        let entries =
          match Json.member "entries" obj with
          | Some (Json.List l) -> List.filter_map entry_of_json l
          | _ -> []
        in
        drop (session ());
        live := !live + flen;
        Hashtbl.add found (session ())
          { acct = fresh_sess flen;
            entries = List.rev entries;
            busy = busy ();
            last_ts = ts () }
    | Some "evict" -> drop (session ())
    | Some "rids" -> (
        live := !live + flen;
        match Json.member "items" obj with
        | Some (Json.List items) -> List.iter push_rid items
        | _ -> ())
    | Some "meta" -> (
        live := !live + flen;
        match num "version" with
        | Some v when v <> 1.0 ->
            warn "journal written by format version %g; this daemon reads v1" v
        | _ -> ())
    | Some other ->
        (* a frame that passed its CRC but carries an unknown record type
           was written by a newer daemon: skip it, keep scanning *)
        warn "unknown record type %S; skipped" other
    | None -> warn "record without a type field; skipped"
  in
  let len, valid_end, stop =
    match open_in_bin path with
    | exception Sys_error _ -> (0, 0, None)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            let m = String.length magic in
            if len = 0 then (0, 0, None)
            else if len < m || really_input_string ic m <> magic then
              (len, 0, Some "bad or torn header")
            else
              let rec go pos =
                if pos = len then (pos, None)
                else if len - pos < 8 then (pos, Some "torn frame header")
                else
                  let header = really_input_string ic 8 in
                  let plen = get_le32 header 0 in
                  if plen <= 0 || plen > max_frame then
                    (pos, Some (Printf.sprintf "implausible frame length %d" plen))
                  else if len - pos - 8 < plen then (pos, Some "torn frame payload")
                  else
                    let payload = really_input_string ic plen in
                    if crc32 payload <> get_le32 header 4 then (pos, Some "CRC mismatch")
                    else
                      match Json.parse payload with
                      | Error m -> (pos, Some ("unparseable record: " ^ m))
                      | Ok obj ->
                          apply (8 + plen) obj;
                          incr frames;
                          go (pos + 8 + plen)
              in
              let valid_end, stop = go m in
              (len, valid_end, stop))
  in
  { found; rids; kept = !live; frames = !frames; len; valid_end; stop }

(* --- rewrite (compaction) ----------------------------------------------- *)

(* Scan the live file and replace it (write-temp, fsync, rename, fsync
   the directory) with one snap frame per session, holding its entries
   with dead binds dropped, plus the request-id window.  Caller holds
   t.mutex. *)
let rewrite t =
  let sc = scan t.path in
  Option.iter
    (fun reason ->
      warn "journal %s: %s at offset %d during compaction; dropped %d byte(s)"
        t.path reason sc.valid_end (sc.len - sc.valid_end))
    sc.stop;
  let tmp = t.path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes = ref 0 in
  let put b =
    write_all fd b;
    bytes := !bytes + Bytes.length b;
    Bytes.length b
  in
  ignore (put (Bytes.of_string magic));
  ignore (put (frame (meta_payload ())));
  let sessions = Hashtbl.create (Hashtbl.length sc.found) in
  List.iter
    (fun (name, s) ->
      let entries = List.rev s.entries in
      let flen =
        put (frame (snap_payload ~session:name ~entries ~busy:s.busy ~ts:s.last_ts))
      in
      Hashtbl.replace sessions name (fresh_sess flen))
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (List.of_seq (Hashtbl.to_seq sc.found)));
  if not (Queue.is_empty sc.rids) then
    ignore (put (frame (rids_payload (List.of_seq (Queue.to_seq sc.rids)))));
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp t.path;
  fsync_dir (Filename.dirname t.path);
  (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.sessions <- sessions;
  t.live <- !bytes;
  t.bytes <- !bytes;
  t.unsynced <- 0;
  t.last_sync <- Some (Unix.gettimeofday ())

(* Rewrite once dead bytes dominate: more than half the file, with a
   floor so small journals are never churned. *)
let maybe_rewrite t =
  if t.bytes > max (64 * 1024) (2 * t.live) then rewrite t

(* --- recovery ----------------------------------------------------------- *)

let open_ ~dir ~fsync =
  mkdir_p dir;
  let path = Filename.concat dir "journal.wal" in
  let existed = Sys.file_exists path in
  let sc = scan path in
  (match sc.stop with
  | _ when sc.len = 0 ->
      if existed then
        warn "journal %s exists but is empty; starting with no sessions" path
  | Some reason ->
      warn
        "journal %s: %s at offset %d; recovered the valid prefix and \
         dropped %d byte(s) from the tail"
        path reason sc.valid_end (sc.len - sc.valid_end)
  | None -> ());
  (* truncate away the corrupt tail so appends never follow garbage *)
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd sc.valid_end;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let t =
    { path;
      fsync;
      mutex = Mutex.create ();
      fd;
      bytes = sc.valid_end;
      unsynced = 0;
      last_sync = None;
      records = sc.frames;
      sessions =
        Hashtbl.of_seq
          (Seq.map (fun (name, s) -> (name, s.acct)) (Hashtbl.to_seq sc.found));
      live = sc.kept }
  in
  if sc.valid_end = 0 then begin
    write_all fd (Bytes.of_string magic);
    t.bytes <- String.length magic;
    t.live <- t.bytes + write_frame t (meta_payload ());
    (match fsync with Always | Interval _ -> do_sync t | Never -> ())
  end;
  let r_sessions =
    Hashtbl.fold
      (fun name s acc ->
        { rs_name = name;
          rs_entries = List.rev s.entries;
          rs_busy = s.busy;
          rs_last_ts = s.last_ts }
        :: acc)
      sc.found []
    |> List.sort (fun a b -> compare a.rs_name b.rs_name)
  in
  ( t,
    { r_sessions;
      r_replays = List.of_seq (Queue.to_seq sc.rids);
      r_corrupt = sc.stop <> None;
      r_dropped_bytes = sc.len - sc.valid_end } )

(* --- appends ------------------------------------------------------------ *)

let get_sess t name =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> s
  | None ->
      let s = fresh_sess 0 in
      Hashtbl.add t.sessions name s;
      s

let append t ~session ?request_id ?response ~busy entry =
  let ts = Unix.gettimeofday () in
  let rid =
    match (request_id, response) with
    | Some rid, Some (ok, resp) -> Some (rid, ok, resp)
    | _ -> None
  in
  Mutex.protect t.mutex (fun () ->
      let flen =
        write_frame t (mutation_payload ~session ~rid ~busy ~ts entry)
      in
      t.live <- t.live + account (get_sess t session) flen entry;
      maybe_rewrite t)

let evict t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.sessions name with
      | None -> ()
      | Some s ->
          ignore (write_frame t (evict_payload ~session:name ~ts:(Unix.gettimeofday ())));
          t.live <- t.live - s.live;
          Hashtbl.remove t.sessions name;
          maybe_rewrite t)

let tick t =
  Mutex.protect t.mutex (fun () ->
      match t.fsync with
      | Interval _ -> policy_sync t
      | Always | Never -> ())

let flush t = Mutex.protect t.mutex (fun () -> if t.unsynced > 0 then do_sync t)

let close t =
  Mutex.protect t.mutex (fun () ->
      if t.unsynced > 0 then do_sync t;
      try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ())

let file_bytes t = Mutex.protect t.mutex (fun () -> t.bytes)
let lag_bytes t = Mutex.protect t.mutex (fun () -> t.unsynced)

let last_sync_age t =
  Mutex.protect t.mutex (fun () ->
      Option.map (fun at -> Unix.gettimeofday () -. at) t.last_sync)

let record_count t = Mutex.protect t.mutex (fun () -> t.records)
