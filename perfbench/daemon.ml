(* daemon: the real sharped executable (workers = nproc, journal on in a
   directory of the checkout, default fsync policy) driven by nproc
   closed-loop callers, each on one persistent connection and its own two
   sessions.  The request mix:

     eval   a small golden example into the caller's eval session (a
            journaled write), checked against its golden file;
     bind   a model rate in the caller's model session (a journaled write);
     query  an SRN or a PEPA measure of the model session, which reads
            through the shared skeleton cache, checked against an
            in-process Interp.Session reference.

   Requests are small, so the socket path, Json, the journal append, the
   pool hand-off, session locking and parsing dominate; solver kernels
   barely show.  Writes (eval, bind) and reads (query) are timed
   separately so that a change trading one for the other shows. *)

module Interp = Sharpe_lang.Interp
module Parser = Sharpe_lang.Parser
module Pepa = Sharpe_pepa.Pepa
module Linsolve = Sharpe_numerics.Linsolve

let eval_files =
  [ "examples/sharpe/molloy.sharpe"; "examples/sharpe/rbd2p3m.sharpe";
    "examples/sharpe/ft2p3m.sharpe"; "examples/sharpe/mm1k_gspn.sharpe";
    "examples/sharpe/relgraph_repeat.sharpe" ]

let srn_query = "srn_exrss(ring; tok0)"
let pepa_query = "tput(pp, serve)"

let pepa_body =
  {|Idle = (arrive, 1.2).Busy
Busy = (serve, mu).Idle + (fail, 0.1).Down
Down = (repair, 0.5).Idle
Client = (arrive, infty).Think
Think = (think, 0.8).Client
Client <> Client <> Client <arrive> Idle|}

let model_source ~lam ~mu =
  Printf.sprintf
    {|format 8
bind
lam %.17g
mu %.17g
end
func tok0() #(p0)
srn ring ()
p0 12
p1 0
p2 0
end
t01 placedep p0 lam
t12 placedep p1 1.5
t20 ind 0.8
end
end
p0 t01 1
p1 t12 1
p2 t20 1
end
t01 p1 1
t12 p2 1
t20 p0 1
end
end
pepa pp
%s
end
|}
    lam mu pepa_body

(* --- wire ----------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c fields =
  let line = Trace.span "json.encode" (fun () -> Json.to_string (Json.Obj fields)) in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let resp = input_line c.ic in
  match Trace.span "json.decode" (fun () -> Json.parse resp) with
  | Ok r -> r
  | Error e -> failwith ("unparseable response: " ^ e)

let ok r = Json.member "ok" r = Some (Json.Bool true)
let num r k = Option.bind (Json.member k r) Json.to_float
let str r k = Option.bind (Json.member k r) Json.to_str

(* --- the daemon process --------------------------------------------- *)

type daemon = {
  pid : int;
  dir : string;
  sock : string;
  journal : string;
  mutable reaped : bool;
}

let sharped = "_build/default/bin/sharped.exe"

let start ~workers ~dir =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let sock = Filename.concat dir "s.sock" and jdir = Filename.concat dir "journal" in
  let log = Unix.openfile (Filename.concat dir "sharped.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process sharped
      [| sharped; "--socket"; sock; "--workers"; string_of_int workers; "--journal-dir"; jdir |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; dir; sock; journal = Filename.concat jdir "journal.wal"; reaped = false } in
  (* a benchmark that dies half-way must not leave the daemon behind *)
  at_exit (fun () ->
      if not d.reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end);
  let deadline = Util.now () +. 30.0 in
  let rec wait_ready () =
    let ready =
      match connect sock with
      | c ->
          let r = try ok (request c [ ("op", Json.Str "health") ]) with _ -> false in
          close c;
          r
      | exception Unix.Unix_error _ -> false
    in
    let give_up () =
      d.reaped <- true;
      failwith "daemon: sharped did not become ready (see its log under .perfbench/)"
    in
    if not ready then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Util.now () < deadline ->
          Unix.sleepf 0.005;
          wait_ready ()
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          give_up ()
      | _ -> give_up ()
  in
  wait_ready ();
  d

let stop d =
  (try
     let c = connect d.sock in
     (* a hung daemon is killed below rather than waited on here *)
     Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
     ignore (request c [ ("op", Json.Str "shutdown") ]);
     close c
   with _ -> ());
  let deadline = Util.now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  d.reaped <- true;
  Util.rm_rf d.dir

let stats d =
  let c = connect d.sock in
  let r = request c [ ("op", Json.Str "stats") ] in
  close c;
  Option.value ~default:Json.Null (Json.member "stats" r)

(* The daemon refreshes its journal gauge from the accept loop, at most
   every 50 ms and waking at least every 100 ms: a quarter second after
   the callers stop, the gauge is current. *)
let settled_stats d =
  Unix.sleepf 0.25;
  stats d

(* --- callers -------------------------------------------------------- *)

type req = Eval of int | Bind of string * int | Query of [ `Srn | `Pepa ]

type refs = {
  files : (string * string) array;  (** source, golden output *)
  lams : float array;
  mus : float array;
  srn_ref : float array;  (** query value per lam *)
  pepa_ref : float array;  (** query value per mu *)
}

type caller = {
  idx : int;
  conn : conn;
  rng : Random.State.t;
  mutable lam : int;
  mutable mu : int;
  mutable log : req list;  (** requests sent while [logging], newest first *)
}

let kind = function Eval _ -> "eval" | Bind _ -> "bind" | Query _ -> "query"
(* one eval session per file: a file that sets no number format must not
   inherit the format another file set *)
let eval_session c i = Printf.sprintf "e%d-%d" c.idx i
let model_session c = Printf.sprintf "m%d" c.idx

(* The three kinds are equally likely.  No recorded sharped traffic
   exists to take a mix from, so the split is an assumption: the even
   one favours neither writes nor reads. *)
let next_req refs c =
  match Random.State.int c.rng 3 with
  | 0 -> Eval (Random.State.int c.rng (Array.length refs.files))
  | 1 ->
      if Random.State.bool c.rng then Bind ("lam", Random.State.int c.rng (Array.length refs.lams))
      else Bind ("mu", Random.State.int c.rng (Array.length refs.mus))
  | _ -> Query (if Random.State.bool c.rng then `Srn else `Pepa)

(* Sends one request and checks the answer. *)
let send refs c req =
  match req with
  | Eval i ->
      let src, golden = refs.files.(i) in
      let r =
        request c.conn
          [ ("op", Json.Str "eval"); ("session", Json.Str (eval_session c i)); ("src", Json.Str src) ]
      in
      ok r && num r "failed_statements" = Some 0.0
      && (match str r "output" with Some out -> Util.matches_golden ~golden out | None -> false)
  | Bind (name, i) ->
      let v = if name = "lam" then refs.lams.(i) else refs.mus.(i) in
      let r =
        request c.conn
          [ ("op", Json.Str "bind"); ("session", Json.Str (model_session c));
            ("name", Json.Str name); ("value", Json.Num v) ]
      in
      if ok r then if name = "lam" then c.lam <- i else c.mu <- i;
      ok r && str r "bound" = Some name
  | Query q ->
      let expr, expected =
        match q with
        | `Srn -> (srn_query, refs.srn_ref.(c.lam))
        | `Pepa -> (pepa_query, refs.pepa_ref.(c.mu))
      in
      let r =
        request c.conn
          [ ("op", Json.Str "query"); ("session", Json.Str (model_session c)); ("expr", Json.Str expr) ]
      in
      ok r && num r "value" = Some expected

type sample = { lat : float; good : bool }

(* Every caller sends requests back to back until [seconds] have passed.
   [on_write] runs around journaled writes (the journal-size probe). *)
let drive ?(on_write = fun _ f -> f ()) ?(logging = false) refs callers ~seconds =
  let t0 = Util.now () in
  let results = Array.make (List.length callers) [] in
  let body c =
    let mine = ref [] and alive = ref true in
    while !alive && Util.now () -. t0 < seconds do
      let req = next_req refs c in
      if logging then c.log <- req :: c.log;
      let k = kind req in
      let good, lat =
        Util.time (fun () ->
            try Trace.op ("client." ^ k) (fun () -> on_write req (fun () -> send refs c req))
            with e ->
              prerr_endline ("perfbench: daemon: request failed: " ^ Printexc.to_string e);
              alive := false;
              false)
      in
      if not good then prerr_endline ("perfbench: daemon: wrong or failed " ^ k);
      mine := { lat; good } :: !mine
    done;
    results.(c.idx) <- !mine
  in
  let threads = List.map (fun c -> Thread.create body c) callers in
  List.iter Thread.join threads;
  let samples = Array.of_list (List.concat (Array.to_list results)) in
  (samples, Util.now () -. t0)

let summarize samples elapsed =
  let lat = Array.map (fun s -> s.lat) samples in
  let failed = Array.fold_left (fun a s -> if s.good then a else a + 1) 0 samples in
  { Single.lat; attempted = Array.length samples; failed; elapsed; cal = [||]; rel = [||];
    elapsed_cal = 0.0 }

(* --- set-up ----------------------------------------------------------- *)

type state = {
  daemon : daemon;
  refs : refs;
  callers : caller list;
  nproc : int;
}

let draw rng = Array.init 6 (fun _ -> float_of_string (Printf.sprintf "%.6g" (0.2 +. Random.State.float rng 2.0)))

(* In-process reference answers: one Interp.Session evaluates the model
   and is queried under every rate value the callers may bind. *)
let references ~root ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let lams = draw rng and mus = draw rng in
  let s = Interp.Session.create () in
  let _, o = Interp.Session.eval s (model_source ~lam:lams.(0) ~mu:mus.(0)) in
  if o.Interp.failed_statements <> 0 then failwith "daemon: model does not evaluate";
  let query name values q =
    Array.map
      (fun v ->
        Interp.Session.bind s name v;
        match Interp.Session.query s q with
        | Ok x -> x
        | Error e -> failwith ("daemon: reference query failed: " ^ e))
      values
  in
  let files =
    Array.of_list
      (List.map
         (fun f ->
           let path = Filename.concat root f in
           (Util.read_file path, Suite.golden_of root path))
         eval_files)
  in
  { files; lams; mus; srn_ref = query "lam" lams srn_query; pepa_ref = query "mu" mus pepa_query }

let rep = ref 0

let setup ~root ~nproc ~seed =
  let refs = references ~root ~seed in
  incr rep;
  let dir = Printf.sprintf ".perfbench/daemon-%d-%d" (Unix.getpid ()) !rep in
  let daemon = start ~workers:nproc ~dir in
  let callers = ref [] in
  try
    callers :=
      List.init nproc (fun idx ->
          { idx; conn = connect daemon.sock; rng = Random.State.make [| seed; 4; idx |];
            lam = 0; mu = 0; log = [] });
    (* each caller defines its model, and every request kind runs once *)
    List.iter
      (fun c ->
        let r =
          request c.conn
            [ ("op", Json.Str "eval"); ("session", Json.Str (model_session c));
              ("src", Json.Str (model_source ~lam:refs.lams.(0) ~mu:refs.mus.(0))) ]
        in
        let warm =
          [ Query `Srn; Query `Pepa; Bind ("lam", 1); Bind ("mu", 1); Query `Srn; Query `Pepa ]
          @ List.init (Array.length refs.files) (fun i -> Eval i)
        in
        if not (ok r && List.for_all (send refs c) warm) then failwith "daemon: warm-up failed")
      !callers;
    { daemon; refs; callers = !callers; nproc }
  with e ->
    List.iter (fun c -> close c.conn) !callers;
    stop daemon;
    raise e

let teardown st =
  List.iter (fun c -> close c.conn) st.callers;
  stop st.daemon

let peak_rss_mb st = Util.peak_rss_mb (string_of_int st.daemon.pid)

(* The timed phase runs in slices of about a second.  Before the first
   slice and after each, while every caller waits, the host is calibrated
   three times; a request's time is set against the mean of the two
   medians around its slice.

   The daemon's resident memory grows with the requests it has served,
   about 2.6 KB each, so its peak at the end of a run followed the
   run's request count, and so the host's speed: over ten runs of the
   same code, 48 000 to 62 000 requests gave 132 to 178 MiB.  The phase
   therefore goes on past [seconds] until [rss_requests] requests are
   done, the peak is read after every slice, and the peak memory reported
   is the one at [rss_requests] requests, interpolated between the slices
   around it. *)
let rss_requests = 30000

let rss_at n_rss readings =
  let rec find = function
    | (n_a, r_a) :: ((n_b, r_b) :: _ as rest) ->
        if n_b = n_a && n_b >= n_rss then r_b
        else if n_b >= n_rss then r_a +. ((r_b -. r_a) *. float_of_int (n_rss - n_a) /. float_of_int (n_b - n_a))
        else find rest
    | _ -> invalid_arg "rss_at"
  in
  find readings

(* The timed phase and the daemon's peak memory in MiB at [rss_requests]
   requests; [~min_requests:0] runs for [seconds] only. *)
let timed ?(min_requests = rss_requests) st ~seconds =
  let slices = max 1 (int_of_float (Float.round seconds)) in
  let calibrate () = Util.median (Array.init 3 (fun _ -> Calib.sample ())) in
  let rec go k n before acc rss =
    if k >= slices && n >= min_requests then (List.rev acc, List.rev rss, n)
    else if k >= 3 * slices then
      failwith (Printf.sprintf "daemon: %d requests in %d slices, fewer than %d" n k min_requests)
    else
      let samples, elapsed = drive st.refs st.callers ~seconds:(seconds /. float_of_int slices) in
      let after = calibrate () in
      let n = n + Array.length samples in
      go (k + 1) n after
        ((summarize samples elapsed, (before +. after) /. 2.0, after) :: acc)
        ((n, peak_rss_mb st) :: rss)
  in
  let parts, rss, n = go 0 0 (calibrate ()) [] [ (0, peak_rss_mb st) ] in
  let ph = List.map (fun (p, _, _) -> p) parts in
  ( { Single.lat = Array.concat (List.map (fun (p : Single.phase) -> p.lat) ph);
    attempted = List.fold_left (fun a (p : Single.phase) -> a + p.attempted) 0 ph;
    failed = List.fold_left (fun a (p : Single.phase) -> a + p.failed) 0 ph;
    elapsed = List.fold_left (fun a (p : Single.phase) -> a +. p.elapsed) 0.0 ph;
    cal = Array.of_list (List.map (fun (_, _, c) -> c) parts);
    rel = Array.concat (List.map (fun ((p : Single.phase), c, _) -> Array.map (fun t -> t /. c) p.lat) parts);
    elapsed_cal = List.fold_left (fun a ((p : Single.phase), c, _) -> a +. (p.elapsed /. c)) 0.0 parts },
    rss_at (min rss_requests n) rss )

(* --- traced run ------------------------------------------------------- *)

let kinds = [ "eval"; "bind"; "query" ]

let cache_of_stats s : Layers.cache_counts =
  match Json.member "cache" s with
  | Some (Json.List entries) ->
      List.filter_map
        (fun e ->
          match (str e "name", num e "hits", num e "misses") with
          | Some n, Some h, Some m -> Some (n, (int_of_float h, int_of_float m))
          | _ -> None)
        entries
  | _ -> []

let server_p99 s k =
  Option.bind (Option.bind (Json.member "ops" s) (Json.member k)) (fun o -> num o "p99_us")

(* The logged requests replayed in-process, each caller on fresh
   Interp.Sessions: per request a "session.<kind>" span around the session
   call and a separate "parse" span over the same source, and the Diag
   records of the evals. *)
let replay_sessions st =
  let refs = st.refs in
  let records = ref [] and parsed = ref 0 and stmts = ref 0 and n = ref 0 in
  let gc0 = Layers.gc_counts () and dense0 = Linsolve.dense_count () in
  List.iter
    (fun c ->
      let es = Array.map (fun _ -> Interp.Session.create ()) refs.files in
      let ms = Interp.Session.create () in
      ignore (Interp.Session.eval ms (model_source ~lam:refs.lams.(0) ~mu:refs.mus.(0)));
      List.iter
        (fun req ->
          incr n;
          let session f = Trace.span ("session." ^ kind req) f in
          Trace.op "replay" (fun () ->
              match req with
              | Eval i ->
                  let src = fst refs.files.(i) in
                  parsed := !parsed + String.length src;
                  stmts := !stmts + List.length (Trace.span "parse" (fun () -> Parser.parse_string src));
                  let _, o = session (fun () -> Interp.Session.eval es.(i) src) in
                  records := List.rev_append o.Interp.diagnostics !records
              | Bind (name, i) ->
                  let v = if name = "lam" then refs.lams.(i) else refs.mus.(i) in
                  session (fun () -> Interp.Session.bind ms name v)
              | Query q ->
                  let e = match q with `Srn -> srn_query | `Pepa -> pepa_query in
                  parsed := !parsed + String.length e;
                  ignore (Trace.span "parse" (fun () -> Parser.parse_expression e));
                  ignore (session (fun () -> Interp.Session.query ms e))))
        (List.rev c.log))
    st.callers;
  let gc1 = Layers.gc_counts () in
  (!n, !parsed, !stmts, List.rev !records, gc0, gc1, Linsolve.dense_count () - dense0)

(* PEPA derivation under each rate value a caller can bind. *)
let pepa_derive st =
  let model = Pepa.parse pepa_body in
  Array.map
    (fun mu ->
      Trace.span "pepa.derive" (fun () ->
          let c = Pepa.compile ~resolve:(fun n -> if n = "mu" then Some mu else None) model in
          Pepa.n_states c))
    st.refs.mus

let traced st ~seconds =
  let part = seconds /. 4.0 in
  let untraced, _ = timed ~min_requests:0 st ~seconds:part in
  Trace.enabled := true;
  List.iter (fun c -> c.log <- []) st.callers;
  let s0 = settled_stats st.daemon in
  let samples, elapsed = drive ~logging:true st.refs st.callers ~seconds:part in
  let s1 = settled_stats st.daemon in
  let main = summarize samples elapsed in
  let main_spans = Trace.all () in
  (* one caller: the scaling base, and journal bytes per write from the
     journal file's growth around each write *)
  let growth = ref [] in
  let on_write req f =
    match req with
    | Query _ -> f ()
    | _ ->
        let b0 = Util.file_size st.daemon.journal in
        let r = f () in
        let d = Util.file_size st.daemon.journal - b0 in
        if d > 0 then growth := float_of_int d :: !growth;
        r
  in
  let one_samples, one_elapsed =
    drive ~on_write st.refs [ List.hd st.callers ] ~seconds:part
  in
  let one = summarize one_samples one_elapsed in
  let n, parsed, stmts, records, gc0, gc1, dense = replay_sessions st in
  let pepa_states = pepa_derive st in
  Trace.enabled := false;
  let spans = Trace.all () in
  let ops = main.attempted in
  let med name = Util.median (Trace.durations ~spans name) in
  let per_req x = Util.ratio x (float_of_int n) in
  let parse = Trace.total ~spans "parse" in
  let session_total =
    Util.sum (Array.of_list (List.map (fun k -> Trace.total ~spans ("session." ^ k)) kinds))
  in
  (* every frame the daemon appended, snapshots included *)
  let journal_records s = Option.value ~default:nan (num s "journal_records") in
  let per_kind =
    List.concat_map
      (fun k ->
        let rt = Util.median (Trace.durations ~spans:main_spans ("client." ^ k)) in
        let ss = med ("session." ^ k) in
        [ Layers.m ("client.roundtrip_s." ^ k) "s" rt;
          Layers.m ("session.s." ^ k) "s" ss;
          Layers.m ("server.overhead_s." ^ k) "s" (rt -. ss);
          Layers.m ("server.p99_us." ^ k) "us" (Option.value ~default:nan (server_p99 s1 k)) ])
      kinds
  in
  let tput ph = float_of_int ph.Single.attempted /. ph.Single.elapsed in
  let metrics =
    [ Layers.m "parse.s_per_op" "s" (per_req parse);
      Layers.m "parse.bytes_per_s" "B/s" (Util.ratio (float_of_int parsed) parse);
      Layers.m "eval.s_per_op" "s" (per_req session_total);
      Layers.m "eval.self_s_per_op" "s" (per_req session_total);
      Layers.m "eval.stmts_per_op" "count/op" (per_req (float_of_int stmts)) ]
    @ Layers.cache_metrics ~ops ~before:(cache_of_stats s0) ~after:(cache_of_stats s1)
    @ [ Layers.m "pool.scaling_eff" "ratio" (tput main /. (float_of_int st.nproc *. tput one)) ]
    @ Layers.gc_metrics ~ops:n ~before:gc0 ~after:gc1
    @ Layers.diag_metrics ~ops:n records
    @ [ Layers.dense_metric ~ops:n dense ]
    @ per_kind
    @ [ Layers.m "json.encode_s" "s" (Util.median (Trace.durations ~spans:main_spans "json.encode"));
        Layers.m "json.decode_s" "s" (Util.median (Trace.durations ~spans:main_spans "json.decode"));
        Layers.m "journal.records" "count/op"
          (Util.ratio (journal_records s1 -. journal_records s0) (float_of_int ops));
        Layers.m "journal.bytes_per_write" "B" (Util.median (Array.of_list !growth));
        Layers.m "pepa.derive_s" "s" (med "pepa.derive");
        Layers.mi "pepa.states" "count" pepa_states.(0);
        Layers.m "trace.overhead_ratio" "ratio" (Util.median main.lat /. Util.median untraced.lat) ]
  in
  let attempted = untraced.attempted + main.attempted + one.attempted in
  let failed = untraced.failed + main.failed + one.failed in
  (metrics, attempted, failed)
