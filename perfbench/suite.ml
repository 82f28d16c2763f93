(* suite: the golden examples other than atm.sharpe, each run cold (fresh
   environment, solve caches cleared) at jobs=1.  One op is one pass over
   the files in an order shuffled from the seed.

   atm.sharpe is left out because it takes about 25 times as long as the
   other 37 together and would turn the suite into an atm benchmark; its
   layers (the transient ladder, interpreted reward functions) are the
   bulk of the sweep workload. *)

module Interp = Sharpe_lang.Interp
module Structhash = Sharpe_numerics.Structhash
module Pool = Sharpe_numerics.Pool

type file = { path : string; golden : string; ref_failed : int }

let sources root =
  List.concat_map
    (fun dir ->
      let dir = Filename.concat root dir in
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sharpe" && f <> "atm.sharpe")
      |> List.sort compare
      |> List.map (Filename.concat dir))
    [ "examples/sharpe"; "examples/pepa" ]

let golden_of root path =
  Util.read_file
    (Filename.concat root
       (Filename.concat "test/golden"
          (Filename.remove_extension (Filename.basename path) ^ ".out")))

let run_file path =
  let buf = Buffer.create 4096 in
  let o = Interp.run_program_file ~print:(Buffer.add_string buf) path in
  (Buffer.contents buf, o.Interp.failed_statements)

let check f (out, failed) =
  let ok = failed = f.ref_failed && Util.matches_golden ~golden:f.golden out in
  if not ok then prerr_endline ("perfbench: suite: wrong output from " ^ f.path);
  ok

(* Fisher-Yates from the workload's own generator. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Maps [f] over [a] at jobs=1 with the elements split into one
   consecutive share per allowed CPU, each share pinned to its CPU; the
   main thread runs anywhere again afterwards.

   On a shared virtual machine each core's speed drifts on its own: a
   core runs fast or about half again as slow for seconds at a time, and
   the scheduler keeps a single-threaded process on one core for long
   stretches.  A pass confined to one core measures that core's state,
   and the op times of a run fall in two modes whose median jumps between
   them.  A pass split across the cores measures their mean.  At jobs
   above 1 the pool's domains spread anyway, and must not inherit a
   one-CPU mask. *)
let across_cpus f a =
  match Util.allowed_cpus () with
  | _ :: _ :: _ as cpus when Pool.jobs () = 1 ->
      let c = Array.of_list cpus and n = Array.length a in
      let owner i = i * Array.length c / n in
      Fun.protect
        ~finally:(fun () -> ignore (Util.pin cpus))
        (fun () ->
          Array.mapi
            (fun i x ->
              if i = 0 || owner i <> owner (i - 1) then ignore (Util.pin [ c.(owner i) ]);
              f x)
            a)
  | _ -> Array.map f a

(* Reads the files and goldens and runs one reference pass, which records
   each file's failed-statement count, checks its output, and is the
   warm-up. *)
let setup ~root ~seed =
  let files =
    across_cpus
      (fun path ->
        Structhash.clear_all ();
        let out, failed = run_file path in
        let f = { path; golden = golden_of root path; ref_failed = failed } in
        if not (check f (out, failed)) then
          failwith ("suite: reference run disagrees with the golden file: " ^ path);
        f)
      (Array.of_list (sources root))
  in
  let rng = Random.State.make [| seed |] in
  let pass run =
    across_cpus
      (fun f ->
        Structhash.clear_all ();
        run f)
      (shuffle rng files)
    |> Array.for_all Fun.id
  in
  let traced_op () =
    let records = ref [] and bytes = ref 0 in
    let ok =
      pass (fun f ->
          let src = Util.read_file f.path in
          bytes := !bytes + String.length src;
          let o = Interp_traced.run src in
          records := List.rev_append o.records !records;
          check f (o.output, o.failed))
    in
    (ok, List.rev !records, !bytes)
  in
  { Single.jobs = 1;
    op = (fun () -> pass (fun f -> check f (run_file f.path)));
    traced_op;
    layer_metrics = (fun ~ops:_ _ -> []) }
