(* Experiment harness: regenerates every table and figure of the paper
   (thesis "The Reconstruction of SHARPE" / the DSN-2002 SHARPE tool paper)
   and runs the daemon's chaos and crash-recovery soaks.  Timing lives in
   perfbench/, the repository's one benchmark.

   Usage:
     main.exe                 run every experiment
     main.exe --quick         skip the slow experiments (E7 ATM, E23 Erlang)
     main.exe --table E9      run a single experiment
     main.exe --chaos [--seconds S] [--clients N] [--seed K]
                              the chaos soak, then the crash-recovery soak

   The run exits 1 when an experiment raises or a solver records an
   error-severity diagnostic.

   Experiment ids follow DESIGN.md's experiment index.  Every experiment
   prints the rows of the corresponding paper artifact; several also print a
   BASELINE column computed with an independent method (closed form, or the
   thesis' own hand-reduced CTMC) so the reproduction can be judged in
   place. *)

module D = Sharpe_expo.Dist
module Ctmc = Sharpe_markov.Ctmc
module Fast_mttf = Sharpe_markov.Fast_mttf
module Net = Sharpe_petri.Net
module Srn = Sharpe_petri.Srn
module Reach = Sharpe_petri.Reach
module Rbd = Sharpe_rbd.Rbd
module Ftree = Sharpe_ftree.Ftree

let printf = Printf.printf

(* --- running the thesis' own input files ------------------------------ *)

let examples_dir =
  match Sys.getenv_opt "SHARPE_EXAMPLES" with
  | Some d -> d
  | None ->
      let rec find dir depth =
        let cand = Filename.concat dir "examples/sharpe" in
        if Sys.file_exists cand then cand
        else if depth = 0 then "examples/sharpe"
        else find (Filename.concat dir "..") (depth - 1)
      in
      find "." 4

let run_example ?(grep = fun _ -> true) file =
  let path = Filename.concat examples_dir file in
  let buf = Buffer.create 4096 in
  Sharpe_lang.Interp.run_file ~print:(Buffer.add_string buf) path;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun l -> if l <> "" && grep l then printf "  %s\n" l)

(* --- experiment registry ---------------------------------------------- *)

type experiment = { id : string; title : string; slow : bool; run : unit -> unit }

let experiments : experiment list ref = ref []
let register ?(slow = false) id title run =
  experiments := { id; title; slow; run } :: !experiments

(* ====================================================================== *)
(* Chapter 2: SRN experiments                                             *)
(* ====================================================================== *)

(* E1 — Figure 2.9: wfs availability curves, with the hand-built CTMC of
   Figure 2.7 (the thesis' own reduction of the net) as baseline. *)

let wfs_net c =
  let one_ _ = 1 in
  let lw = 0.0001 and lf = 0.00005 and muw = 1.0 and muf = 0.5 in
  let t name ?(kind = Net.Timed) rate ~ins ~outs ?(inh = []) () =
    { Net.t_name = name; kind; rate; guard = (fun _ -> true); priority = 0;
      inputs = ins; outputs = outs; inhibitors = inh }
  in
  Net.build
    ~places:[ ("wsup", 2); ("fsup", 1); ("wst", 0); ("wsdn", 0); ("fsdn", 0) ]
    ~transitions:
      [ t "wsfl" (fun m -> float_of_int m.(0) *. lw) ~ins:[ (0, one_) ]
          ~outs:[ (2, one_) ] ~inh:[ (4, one_) ] ();
        t "fsfl" (fun _ -> lf) ~ins:[ (1, one_) ] ~outs:[ (4, one_) ]
          ~inh:[ (3, fun _ -> 2) ] ();
        t "wsrp" (fun _ -> muw) ~ins:[ (3, one_) ] ~outs:[ (0, one_) ]
          ~inh:[ (4, one_) ] ();
        t "fsrp" (fun _ -> muf) ~ins:[ (4, one_) ] ~outs:[ (1, one_) ] ();
        t "wscv" ~kind:Net.Immediate (fun _ -> c) ~ins:[ (2, one_) ]
          ~outs:[ (3, one_) ] ();
        t "wsuc" ~kind:Net.Immediate (fun _ -> 1.0 -. c)
          ~ins:[ (2, one_); (1, one_) ]
          ~outs:[ (3, one_); (4, one_) ] () ]

(* Figure 2.7's CTMC, built by hand:
   states 0:(2 ws up, fs up) 1:(1,up) 2:(0,up) 3:(2,dn) 4:(1,dn) 5:(0,dn) *)
let wfs_figure27_ctmc c =
  let lw = 0.0001 and lf = 0.00005 and muw = 1.0 and muf = 0.5 in
  Ctmc.make ~n:6
    [ (0, 1, 2.0 *. lw *. c); (0, 4, 2.0 *. lw *. (1.0 -. c)); (0, 3, lf);
      (1, 2, lw *. c); (1, 5, lw *. (1.0 -. c)); (1, 4, lf);
      (1, 0, muw); (2, 1, muw);
      (3, 0, muf); (4, 1, muf); (5, 2, muf) ]

let wfs_avail m = if m.(0) > 0 && m.(1) = 1 then 1.0 else 0.0

let e1 () =
  printf "  %-6s %-6s %-14s %-14s %s\n" "c" "t" "SRN" "CTMC(Fig2.7)" "|diff|";
  List.iter
    (fun c ->
      let s = Srn.solve (wfs_net c) in
      let hand = wfs_figure27_ctmc c in
      let init = [| 1.0; 0.0; 0.0; 0.0; 0.0; 0.0 |] in
      let ts = [ 1.0; 2.0; 5.0; 10.0; 20.0 ] in
      (* whole time grid in one call: the uncached points fan out over
         the pool (bit-identical to point-by-point queries) *)
      List.iter
        (fun (t, a_srn) ->
          let pi = Ctmc.transient hand ~init t in
          let a_hand = pi.(0) +. pi.(1) in
          printf "  %-6.1f %-6.0f %-14.9f %-14.9f %.2e\n" c t a_srn a_hand
            (Float.abs (a_srn -. a_hand)))
        (Srn.exrt_many s wfs_avail ts))
    [ 0.7; 0.8; 0.9 ]

let () = register "E1" "Figure 2.9 - wfs availability vs t (c = 0.7, 0.8, 0.9)" e1

let () =
  register "E2" "S2.4.2 - Molloy's GSPN, steady-state reward values" (fun () ->
      run_example "molloy.sharpe")

let () =
  register "E3" "S2.4.3 - software performance, completion probability" (fun () ->
      run_example "software.sharpe")

(* E4 — M/M/m/b measures with the birth-death closed form as baseline *)
let e4 () =
  run_example "mmmb.sharpe" ~grep:(fun l -> String.length l > 3 && l.[0] = 's');
  let lam = 0.9 and mu = 0.1 and m = 2 and b = 2 in
  let unnorm = Array.make (b + 1) 1.0 in
  for n = 1 to b do
    unnorm.(n) <- unnorm.(n - 1) *. lam /. (float_of_int (min n m) *. mu)
  done;
  let z = Array.fold_left ( +. ) 0.0 unnorm in
  let pi n = unnorm.(n) /. z in
  printf "  BASELINE birth-death: qlength %.8f  probrej %.8f  probempty %.8f\n"
    ((1.0 *. pi 1) +. (2.0 *. pi 2))
    (pi 2) (pi 0)

let () = register "E4" "S2.4.4 - M/M/m/b queue vs closed form" e4

let () =
  register "E5" "Figure 2.16 - C.mmp reliability and reward rate" (fun () ->
      run_example "cmmp.sharpe")

let () =
  register "E6" "S2.4.6 - database system availability" (fun () ->
      run_example "database.sharpe")

let () =
  register ~slow:true "E7" "Figure 2.20 - ATM network under overload" (fun () ->
      run_example "atm.sharpe")

let () =
  register "E8" "S2.4.8 - Birnbaum and criticality importances" (fun () ->
      run_example "importance.sharpe")

let e9 () =
  run_example "cellular_fp.sharpe";
  printf "  PAPER tp: 4.054972 5.557387 6.098202 6.280690 6.340547 6.359983\n";
  printf "  PAPER BH 6.50059657e-003  BN 3.03008702e-002  ACh 8.70770327e+000\n";
  printf "  PAPER fnum/ftput2 4.21143605e-004\n"

let () =
  register "E9" "S2.4.9 - cellular fixed-point iteration (exact paper output)" e9

let () =
  register "E10" "S2.4.10 - while-statement syntax test" (fun () ->
      run_example "whiletest.sharpe")

(* ====================================================================== *)
(* Chapter 3: the integrated model types                                  *)
(* ====================================================================== *)

let () =
  register "E11" "S3.1.3 - three-phase PMS, six phase orders, ltimep/rtimep"
    (fun () -> run_example "pms3.sharpe")

let () =
  register "E12" "Figure 3.4 - space-mission unreliability across the last phase"
    (fun () -> run_example "space.sharpe")

let () =
  register "E13" "S3.2.3 - two-boards multi-state fault tree" (fun () ->
      run_example "boards_mstree.sharpe")

let () =
  register "E14" "Figure 3.10 - network blocking probability (MFT over CTMC)"
    (fun () -> run_example "netmft.sharpe")

let () =
  register "E15" "S3.3.3 - MRGP cellular network (C = 5, 6, 7; g = 3)" (fun () ->
      run_example "mrgp_cellular.sharpe")

let e16 () =
  run_example "rbd2p3m.sharpe";
  let lp = 1.0 /. 720.0 and lm = 1.0 /. 1440.0 in
  let block k =
    Rbd.Series
      [ Rbd.Parallel [ Rbd.Comp (D.exponential lp); Rbd.Comp (D.exponential lp) ];
        Rbd.Kofn (k, 3, Rbd.Comp (D.exponential lm)) ]
  in
  printf "  BASELINE api: mean(1) %.6f  mean(2) %.6f  ratio %.6f\n"
    (Rbd.mean_time_to_failure (block 1))
    (Rbd.mean_time_to_failure (block 2))
    (Rbd.mean_time_to_failure (block 1) /. Rbd.mean_time_to_failure (block 2))

let () = register "E16" "S3.4.2 - RBD 2 processors / 3 memories" e16

let () =
  register "E17" "S3.5.3 - fault tree 2p3m + instantaneous unavailability"
    (fun () -> run_example "ft2p3m.sharpe")

let () =
  register "E18" "S3.6.3 - reliability graph with repeated edges (= shared model)"
    (fun () -> run_example "relgraph_repeat.sharpe"
        ~grep:(fun l -> String.length l <= 200))

let () =
  register "E19" "S3.6.3 - electrical-pyrotechnic system" (fun () ->
      run_example "pyro.sharpe" ~grep:(fun l -> String.length l <= 200))

let () =
  register "E20" "S3.7.2 - CPU-I/O overlap speedups" (fun () ->
      run_example "overlap.sharpe")

let () =
  register "E21" "S3.8.2 - PFQN terminal system, E[R] for 10..60 terminals"
    (fun () -> run_example "pfqn916.sharpe")

let () =
  register "E22" "S3.9.2 - MPFQN version (must equal E21)" (fun () ->
      run_example "mpfqn916.sharpe")

let () =
  register ~slow:true "E23"
    "Figure 3.21 - Erlang loss: hierarchical vs composite blocking probability"
    (fun () -> run_example "erlang_loss.sharpe")

let () =
  register "E24" "S3.11.2 - semi-Markov chain symbolic CDFs" (fun () ->
      run_example "semimark1.sharpe")

let e25 () =
  run_example "mm1k_gspn.sharpe";
  let rho = 0.5 and k = 10 in
  let z = (1.0 -. (rho ** float_of_int (k + 1))) /. (1.0 -. rho) in
  let pi n = (rho ** float_of_int n) /. z in
  let ql = ref 0.0 in
  for n = 1 to k do
    ql := !ql +. (float_of_int n *. pi n)
  done;
  printf "  BASELINE M/M/1/10 (no failures): Pidle %.6f  qlength %.6f  tput %.6f\n"
    (pi 0) !ql (2.0 *. (1.0 -. pi 0))

let () = register "E25" "S3.12.2 - GSPN M/M/1/K with server failure/repair" e25

let () =
  register "E26" "C.3 - fast MTTF (Markov and semi-Markov)" (fun () ->
      run_example "fastmttf_m6.sharpe";
      run_example "fastmttf_semi.sharpe")

let () =
  register "E27" "C.1 - fault-tree extras (TEST_KEY 0.3, nkofn, mincuts, impt)"
    (fun () -> run_example "ftree_extra.sharpe")

let () =
  register "E28" "C.2 - reliability-graph extras (bridge cuts/paths, impt)"
    (fun () -> run_example "relgraph_extra.sharpe")

let () =
  register "E29" "C.4.1 - SRN mean time to absorption" (fun () ->
      run_example "srn_mtta.sharpe")

(* ====================================================================== *)
(* Ablations                                                              *)
(* ====================================================================== *)

let a1 () =
  let mk_tree n =
    let t = Ftree.create () in
    for i = 0 to n - 1 do
      Ftree.repeat t (Printf.sprintf "c%d" i) (D.prob 0.01)
    done;
    let layer =
      List.init (n / 2) (fun i ->
          let g = Printf.sprintf "g%d" i in
          Ftree.gate t g Ftree.And
            [ Printf.sprintf "c%d" (2 * i); Printf.sprintf "c%d" ((2 * i) + 1) ];
          g)
    in
    Ftree.gate t "top" Ftree.Or layer;
    t
  in
  let t = mk_tree 16 in
  let p_bdd = Ftree.sysprob t in
  let t0 = Unix.gettimeofday () in
  let p_enum = ref 0.0 in
  for mask = 0 to 65535 do
    let bit i = mask land (1 lsl i) <> 0 in
    let any = ref false in
    for i = 0 to 7 do
      if bit (2 * i) && bit ((2 * i) + 1) then any := true
    done;
    if !any then begin
      let p = ref 1.0 in
      for i = 0 to 15 do
        p := !p *. (if bit i then 0.01 else 0.99)
      done;
      p_enum := !p_enum +. !p
    end
  done;
  let t_enum = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let reps = 100 in
  for _ = 1 to reps do
    ignore (Ftree.sysprob (mk_tree 16))
  done;
  let t_bdd = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  printf "  16-event tree: BDD %.9f  enumeration %.9f  |diff| %.2e\n" p_bdd !p_enum
    (Float.abs (p_bdd -. !p_enum));
  printf "  time/solve: BDD %.4f ms   2^16-enumeration %.4f ms\n" (t_bdd *. 1e3)
    (t_enum *. 1e3)

let () = register "A1" "ablation - BDD vs truth-table enumeration (fault tree)" a1

let a2 () =
  let module L = Sharpe_numerics.Linsolve in
  let module S = Sharpe_numerics.Sparse in
  let s = Srn.solve (wfs_net 0.9) in
  let q = Ctmc.generator (Reach.ctmc (Srn.graph s)) in
  let n = S.rows q in
  let direct = L.ctmc_steady_state q in
  let qt = S.transpose q in
  let x = Array.make n (1.0 /. float_of_int n) in
  let sweeps = ref 0 and delta = ref infinity in
  while !delta > 1e-13 && !sweeps < 10000 do
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      let diag = ref 0.0 and acc = ref 0.0 in
      S.iter_row qt i (fun j v -> if j = i then diag := v else acc := !acc +. (v *. x.(j)));
      if !diag <> 0.0 then begin
        let xi = -. !acc /. !diag in
        let ch = Float.abs (xi -. x.(i)) /. Float.max 1e-300 (Float.abs xi) in
        if ch > !d then d := ch;
        x.(i) <- xi
      end
    done;
    let total = Array.fold_left ( +. ) 0.0 x in
    Array.iteri (fun i v -> x.(i) <- v /. total) x;
    delta := !d;
    incr sweeps
  done;
  let maxdiff = ref 0.0 in
  Array.iteri (fun i v -> maxdiff := Float.max !maxdiff (Float.abs (v -. direct.(i)))) x;
  printf
    "  wfs CTMC (%d states): Gauss-Seidel converged in %d sweeps, max |GS - direct| = %.2e\n"
    n !sweeps !maxdiff

let () = register "A2" "ablation - Gauss-Seidel vs direct steady-state solve" a2

let a3 () =
  let t0 = Unix.gettimeofday () in
  let reps = 200 in
  for _ = 1 to reps do
    ignore (Srn.solve (wfs_net 0.9))
  done;
  let full = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  let s = Srn.solve (wfs_net 0.9) in
  printf
    "  wfs: %d tangible + %d vanishing markings; reachability + elimination %.4f ms/solve\n"
    (Reach.n_tangible (Srn.graph s))
    (Reach.n_vanishing (Srn.graph s))
    (full *. 1e3)

let () = register "A3" "ablation - vanishing-marking elimination cost" a3

let a4 () =
  let mk lambda mu =
    Ctmc.make ~n:4
      [ (3, 2, 3.0 *. lambda); (2, 1, 2.0 *. lambda); (1, 0, lambda);
        (2, 3, mu); (1, 2, mu) ]
  in
  printf "  %-10s %-16s %-16s %s\n" "lambda/mu" "exact" "aggregated" "rel.err";
  List.iter
    (fun ratio ->
      let c = mk ratio 1.0 in
      let init = [| 0.0; 0.0; 0.0; 1.0 |] in
      let exact = Fast_mttf.mttf c ~init ~readf:[ 0 ] in
      let fast = Fast_mttf.mttf_fast c ~init { reada = [ 2; 3 ]; readf = [ 0 ] } in
      printf "  %-10.0e %-16.6e %-16.6e %.2e\n" ratio exact fast
        (Float.abs (fast -. exact) /. exact))
    [ 1e-2; 1e-4; 1e-6 ]

let () = register "A4" "ablation - fast (aggregated) MTTF vs exact MTTF" a4

(* ====================================================================== *)
(* --chaos: fault-injection soak for the daemon                           *)
(* ====================================================================== *)

(* `bench --chaos [--seconds S] [--clients N] [--seed K]` runs an
   in-process sharped under deliberately hostile conditions — injected
   worker-job crashes and slowdowns, malformed frames, mid-request
   disconnects, and session churn against a small session cap with a
   short TTL — while N concurrent clients replay [chaos_model] below.

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
  let repo_root = Filename.dirname (Filename.dirname examples_dir) in
  let path = Filename.concat repo_root "BENCH_server.json" in
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

(* ====================================================================== *)
(* main                                                                   *)
(* ====================================================================== *)

let () =
  let args = Array.to_list Sys.argv in
  let flag_arg name ~default ~conv =
    let rec find = function
      | f :: v :: _ when f = name -> (
          match conv v with
          | Some x -> x
          | None -> failwith (Printf.sprintf "bench: bad value for %s" name))
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  if List.mem "--chaos" args then begin
    let seed = flag_arg "--seed" ~default:1 ~conv:int_of_string_opt in
    let rc =
      chaos_main
        ~seconds:(flag_arg "--seconds" ~default:5.0 ~conv:float_of_string_opt)
        ~clients:(flag_arg "--clients" ~default:16 ~conv:int_of_string_opt)
        ~seed
    in
    let rc2 = crash_recovery_soak ~seed in
    exit (max rc rc2)
  end;
  let quick = List.mem "--quick" args in
  let only =
    let rec find = function
      | "--table" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let todo =
    List.rev !experiments
    |> List.filter (fun e ->
           (match only with Some id -> e.id = id | None -> true)
           && not (quick && e.slow))
  in
  let failed =
    List.filter_map
      (fun e ->
        printf "== %s: %s ==\n%!" e.id e.title;
        let failure =
          match e.run () with
          | () -> None
          | exception exn ->
              printf "  ERROR: %s\n" (Printexc.to_string exn);
              Some e.id
        in
        printf "\n%!";
        failure)
      todo
  in
  if failed <> [] then
    Printf.eprintf "bench: experiment(s) failed: %s\n" (String.concat ", " failed);
  (* an experiment that raised, or any error-severity diagnostic a
     solver accumulated during the experiments, is a correctness
     problem, not noise: name it on stderr and fail, so CI smoke runs
     catch silent breakage *)
  let module Diag = Sharpe_numerics.Diag in
  let errors =
    List.filter
      (fun r -> r.Diag.severity = Diag.Error)
      (Diag.default_records ())
  in
  List.iter
    (fun r -> Printf.eprintf "bench: %s\n" (Diag.record_to_string r))
    errors;
  if failed <> [] || errors <> [] then exit 1
