(* The repository's benchmark: four workloads through the public entry
   points of the interpreter, the model libraries and the sharped wire
   protocol.

     bench.exe --workload suite|sweep|large|daemon --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is a separate run that times the benchmark's own calls into each layer
   and reports the per-layer metrics.  The metric names and units are
   those of BENCHMARK.json.  The last line of standard output is the
   result object; the spans of a traced run and the full result with its
   provenance are written under .perfbench/. *)

module Pool = Sharpe_numerics.Pool

let usage = "bench.exe --workload suite|sweep|large|daemon --seed N --seconds S --trace 0|1"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* One set-up: its seconds, and the mean Calib sample taken around it. *)
type setup_sample = { secs : float; kernel : float }

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME suite, sweep, large or daemon");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S length of the measured phase");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 end-to-end (0) or per-layer (1) run") ]
    (fun a -> fail ("unexpected argument " ^ a))
    usage;
  match (!workload, !seed, !seconds, !trace) with
  | ("suite" | "sweep" | "large" | "daemon"), Some seed, Some seconds, Some (0 | 1 as t)
    when seconds > 0.0 ->
      { workload = !workload; seed; seconds; trace = t = 1 }
  | _ -> fail ("usage: " ^ usage)

(* (name, unit) of the end-to-end and per-layer metrics in BENCHMARK.json *)
let contract () =
  let j =
    match Json.parse (Util.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> fail ("BENCHMARK.json: " ^ e)
  in
  let metrics key =
    match Json.member key j with
    | Some (Json.List l) ->
        List.filter_map
          (fun m ->
            match (Option.bind (Json.member "name" m) Json.to_str,
                   Option.bind (Json.member "unit" m) Json.to_str) with
            | Some n, Some u -> Some (n, u)
            | _ -> None)
          l
    | _ -> fail ("BENCHMARK.json has no " ^ key)
  in
  (metrics "end_to_end", metrics "per_layer")

(* --- provenance -------------------------------------------------------- *)

let source_digest () =
  let rec files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune" then [ p ]
           else [])
  in
  let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun p -> p ^ Util.read_file p) all)))

let provenance a ~nproc ~jobs ~workers ~participation ~setups =
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [ ("workload", Json.Str a.workload);
      ("seed", num a.seed);
      ("seconds", Json.Num a.seconds);
      ("trace", Json.Bool a.trace);
      ("nproc", num nproc);
      ("recommended_domain_count", num (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("jobs", num jobs);
      ("workers", match workers with Some w -> num w | None -> Json.Null);
      ("git_commit", match Util.command_line "git rev-parse HEAD" with Some c -> Json.Str c | None -> Json.Null);
      ("source_digest", Json.Str (source_digest ()));
      ("setup_s_samples", Json.List (List.map (fun s -> Json.Num s.secs) setups));
      ("setup_kernel_s_samples", Json.List (List.map (fun s -> Json.Num s.kernel) setups));
      ( "pool_participation",
        match participation with Some p -> Layers.participation_json p | None -> Json.Null ) ]

(* --- running a workload -------------------------------------------------- *)

(* Set up [reps] times and keep the last state.  Set-up time is an
   end-to-end metric of its own, so that work moved out of the timed ops
   into set-up shows; the median keeps it steady.  The daemon's set-up
   takes some 40 ms, so it runs more often for the same cost; suite's,
   half a second at jobs=1, runs often enough to span about ten seconds,
   because on a shared host a core's speed can hold for several. *)
let setup_reps = function "daemon" -> 15 | "suite" -> 21 | _ -> 7

(* The host is calibrated before and after every set-up, as around every
   op: suite's set-up time in seconds rose by 27% between two ten-seed
   sets of the same code run 90 minutes apart, while its median op time
   in kernel units rose by 2%. *)
let set_up a make teardown =
  let reps = setup_reps a.workload in
  let rec go k acc =
    (* every set-up starts from a compacted heap, not from what the
       previous one left *)
    Gc.compact ();
    let before = Calib.sample () in
    let st, secs = Util.time make in
    let acc = { secs; kernel = (before +. Calib.sample ()) /. 2.0 } :: acc in
    if k = reps then (st, List.rev acc)
    else begin
      teardown st;
      go (k + 1) acc
    end
  in
  go 1 []

type outcome = {
  metrics : Layers.metric list;
  lat : float array;  (** seconds per timed op *)
  attempted : int;
  failed : int;
  jobs : int;
  workers : int option;
  participation : Pool.participation option;
  setups : setup_sample list;
}

(* The percentile behind op_tail_cal, fixed per workload so that one metric
   name always means one statistic: the highest of p90, p75 and p50 that
   leaves at least ten ops beyond it in a run of the workload.  Higher
   percentiles measure the host: across ten daemon runs on a shared 2-core
   host, the spread of p99 was a third of its median, that of p90 an
   eighth. *)
let tail_percentile = function "daemon" -> 90 | "large" -> 50 | _ -> 75

(* The fewest ops that leave ten beyond the [p]th percentile.  A
   single-caller run goes on past --seconds until it has them; a daemon
   run without them is refused. *)
let min_ops p = (1000 + (100 - p) - 1) / (100 - p)

(* Op times go into BENCHMARK.json in units of the calibration kernel
   (Calib): seconds drift with the host.  Set-up time goes in as seconds
   on the reference host: each set-up's kernel units times
   [Calib.reference_s].  The same figures in measured seconds are printed
   too, and [op_s_p99] where the run supports it: on [daemon]. *)
let end_to_end a ~setups (ph : Single.phase) ~rss =
  let n = Array.length ph.lat in
  let tail = tail_percentile a.workload in
  if n < min_ops tail then
    fail (Printf.sprintf "%d ops are too few for op_tail_cal (p%d)" n tail);
  let ops_per_s = float_of_int n /. ph.elapsed and cal = Util.median ph.cal in
  let setup_med f = Util.median (Array.of_list (List.map f setups)) in
  [ Layers.m "setup_s" "s" (Calib.reference_s *. setup_med (fun s -> s.secs /. s.kernel));
    Layers.m "setup_wall_s" "s" (setup_med (fun s -> s.secs));
    Layers.m "op_p50_cal" "cal" (Util.median ph.rel);
    Layers.m "op_tail_cal" "cal" (Util.percentile ph.rel (float_of_int tail));
    Layers.m "ops_per_cal" "1/cal" (float_of_int n /. ph.elapsed_cal);
    Layers.m "op_s_p50" "s" (Util.median ph.lat);
    Layers.m "op_s_tail" "s" (Util.percentile ph.lat (float_of_int tail));
    Layers.mi "op_s_tail.percentile" "%" tail ]
  @ (if float_of_int n *. 0.01 >= 10.0 then [ Layers.m "op_s_p99" "s" (Util.percentile ph.lat 99.0) ]
     else [])
  @ [ Layers.m "ops_per_s" "1/s" ops_per_s;
      Layers.m "host.cal_s" "s" cal;
      Layers.mi "host.cal_samples" "count" (Array.length ph.cal);
      Layers.m "peak_rss_mb" "MiB" rss;
      Layers.m "fail_ratio" "ratio" (Util.ratio (float_of_int ph.failed) (float_of_int ph.attempted));
      Layers.mi "ops" "count" n ]

let run_single a ~nproc make =
  let w, setups = set_up a make ignore in
  if a.trace then
    let metrics, attempted, failed, part = Single.traced w ~nproc ~seconds:a.seconds in
    { metrics; lat = [||]; attempted; failed; jobs = w.jobs; workers = None; participation = Some part; setups }
  else
    let ph, part = Single.timed w ~min_ops:(min_ops (tail_percentile a.workload)) ~seconds:a.seconds in
    { metrics = end_to_end a ~setups ph ~rss:(Util.peak_rss_mb "self");
      lat = ph.lat; attempted = ph.attempted; failed = ph.failed; jobs = w.jobs; workers = None;
      participation = Some part; setups }

let run_daemon a ~nproc =
  if not (Sys.file_exists Daemon.sharped) then fail (Daemon.sharped ^ " is not built");
  let st, setups =
    set_up a (fun () -> Daemon.setup ~root:"." ~nproc ~seed:a.seed) Daemon.teardown
  in
  Fun.protect ~finally:(fun () -> Daemon.teardown st) (fun () ->
      if a.trace then
        let metrics, attempted, failed = Daemon.traced st ~seconds:a.seconds in
        { metrics; lat = [||]; attempted; failed; jobs = nproc; workers = Some nproc; participation = None; setups }
      else
        let ph, rss = Daemon.timed st ~seconds:a.seconds in
        { metrics =
            end_to_end a ~setups ph ~rss
            @ [ Layers.m "peak_rss_end_mb" "MiB" (Daemon.peak_rss_mb st) ];
          lat = ph.lat; attempted = ph.attempted; failed = ph.failed; jobs = nproc; workers = Some nproc;
          participation = None; setups })

(* --- output ---------------------------------------------------------------- *)

(* The contract's metrics, in its order.  A per-layer count or ratio that a
   workload does not exercise reads 0; every time is measured. *)
let contract_metrics keys (metrics : Layers.metric list) =
  List.map
    (fun (name, unit_) ->
      let value =
        match List.find_opt (fun (m : Layers.metric) -> m.name = name) metrics with
        | Some m when Float.is_finite m.value -> m.value
        | Some _ -> fail ("metric " ^ name ^ " is not finite")
        | None when unit_ = "s" -> fail ("workload does not measure " ^ name)
        | None -> 0.0
      in
      (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
    keys

let () =
  let a = parse_args () in
  let e2e_keys, layer_keys = contract () in
  if not (Sys.file_exists "examples/sharpe" && Sys.file_exists "test/golden") then
    fail "run from the root of an osharpe checkout";
  let nproc = Util.nproc () in
  Util.mkdir_p ".perfbench";
  let o =
    match a.workload with
    | "suite" -> run_single a ~nproc (fun () -> Suite.setup ~root:"." ~seed:a.seed)
    | "sweep" -> run_single a ~nproc (fun () -> Sweep.setup ~nproc ~seed:a.seed)
    | "large" -> run_single a ~nproc (fun () -> Large.setup ~nproc ~seed:a.seed)
    | _ -> run_daemon a ~nproc
  in
  Pool.shutdown ();
  let tag = Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed (if a.trace then 1 else 0) in
  if a.trace then Trace.write (Printf.sprintf ".perfbench/spans-%s.jsonl" tag);
  let correct = o.failed = 0 in
  let prov =
    provenance a ~nproc ~jobs:o.jobs ~workers:o.workers ~participation:o.participation
      ~setups:o.setups
  in
  let all =
    Json.Obj
      (List.map
         (fun (m : Layers.metric) ->
           (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
         o.metrics)
  in
  Util.write_file
    (Printf.sprintf ".perfbench/result-%s.json" tag)
    (Json.to_string
       (Json.Obj
          [ ("provenance", prov); ("metrics", all);
            ("op_s", Json.List (Array.to_list (Array.map (fun x -> Json.Num x) o.lat))) ])
    ^ "\n");
  List.iter
    (fun (m : Layers.metric) -> Printf.printf "%-42s %16.9g %s\n" m.name m.value m.unit_)
    o.metrics;
  print_endline ("provenance: " ^ Json.to_string prov);
  let keys = if a.trace then layer_keys else e2e_keys in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", Json.Obj (contract_metrics keys o.metrics)) ]));
  exit (if correct then 0 else 1)
