(* large: one cold solve of a token-bounded SRN big enough for the Krylov
   tier.  Four places in a ring with two chords; N tokens start in p0 and
   every transition fires at a seed-drawn rate times its input place's
   marking.  The program asks for the steady-state expected tokens in p0
   under the Auto solver at jobs=nproc.  One op is one program run with
   the solve caches cleared.

   C(N+3, 3) markings: 39 711 at N = 60, above Linsolve.krylov_threshold
   (20 000) and with well over Sparse.par_min_nnz (20 000) generator
   nonzeros, so state-space generation, BiCGStab and the row-parallel
   SpMV carry the op.

   Oracle: with every rate linear in its input place's marking the tokens
   move independently, so the answer is N * pi0 of the single-token
   4-state chain -- solved here by hand, independently of every solver in
   the repository. *)

module Interp = Sharpe_lang.Interp
module Net = Sharpe_petri.Net
module Reach = Sharpe_petri.Reach
module Ctmc = Sharpe_markov.Ctmc
module Linsolve = Sharpe_numerics.Linsolve
module Sparse = Sharpe_numerics.Sparse
module Structhash = Sharpe_numerics.Structhash
module Diag = Sharpe_numerics.Diag

let tokens = 60

(* transitions: name, from place, to place *)
let arcs =
  [ ("t01", 0, 1); ("t12", 1, 2); ("t23", 2, 3); ("t30", 3, 0); ("t02", 0, 2); ("t13", 1, 3) ]

(* BiCGStab's iteration count swings by a factor of three between nearby
   rate vectors, so every op solves a fresh vector: a run's median then
   describes the solver over many inputs rather than one lucky or unlucky
   draw.  Weak chords (a tenth of the ring rates) halve that swing.

   Op [k]'s vector is point [k] of a Kronecker sequence (k * sqrt p mod 1
   in each coordinate, p the first six primes) shifted by a seed-drawn
   offset.  Its first twenty points cover the rate box evenly, where
   twenty independent draws cluster, so a run's median depends less on
   its seed: over five seeds the median op time of independent draws
   spread by 0.17. *)
let draw_rates ~offset k =
  List.mapi
    (fun j (_, src, dst) ->
      let lo = if (dst - src + 4) mod 4 = 1 then 0.5 else 0.05 in
      let alpha = Float.sqrt (float_of_int (List.nth [ 2; 3; 5; 7; 11; 13 ] j)) in
      let u = Float.rem (offset.(j) +. (float_of_int k *. alpha)) 1.0 in
      Printf.sprintf "%.6g" (lo +. (2.0 *. lo *. u)))
    arcs

let program rates =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "format 12\nfunc tok0() #(p0)\nsrn big ()\n";
  for i = 0 to 3 do
    add "p%d %d\n" i (if i = 0 then tokens else 0)
  done;
  add "end\n";
  List.iter2 (fun (t, src, _) r -> add "%s placedep p%d %s\n" t src r) arcs rates;
  add "end\nend\n";
  List.iter (fun (t, src, _) -> add "p%d %s 1\n" src t) arcs;
  add "end\n";
  List.iter (fun (t, _, dst) -> add "%s p%d 1\n" t dst) arcs;
  add "end\nend\nexpr srn_exrss(big; tok0)\nend\n";
  Buffer.contents b

(* N * pi0 of the single-token chain, by Gaussian elimination on
   pi Q = 0 with the last equation replaced by sum pi = 1. *)
let oracle rates =
  let q = Array.make_matrix 4 4 0.0 in
  List.iter2
    (fun (_, s, d) r ->
      let r = float_of_string r in
      q.(s).(d) <- q.(s).(d) +. r;
      q.(s).(s) <- q.(s).(s) -. r)
    arcs rates;
  (* a.(i) is the augmented row i of Q^T pi = 0 *)
  let a = Array.init 4 (fun i -> Array.init 5 (fun j -> if j < 4 then q.(j).(i) else 0.0)) in
  a.(3) <- [| 1.0; 1.0; 1.0; 1.0; 1.0 |];
  for k = 0 to 3 do
    let p = ref k in
    for i = k + 1 to 3 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!p);
    a.(!p) <- t;
    for i = k + 1 to 3 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to 4 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done
    done
  done;
  let pi = Array.make 4 0.0 in
  for i = 3 downto 0 do
    let s = ref a.(i).(4) in
    for j = i + 1 to 3 do
      s := !s -. (a.(i).(j) *. pi.(j))
    done;
    pi.(i) <- !s /. a.(i).(i)
  done;
  float_of_int tokens *. pi.(0)

let net rates =
  let one _ = 1 in
  Net.build
    ~places:(List.init 4 (fun i -> (Printf.sprintf "p%d" i, if i = 0 then tokens else 0)))
    ~transitions:
      (List.map2
         (fun (t_name, src, dst) r ->
           let r = float_of_string r in
           { Net.t_name; kind = Net.Timed;
             rate = (fun m -> float_of_int m.(src) *. r);
             guard = (fun _ -> true); priority = 0;
             inputs = [ (src, one) ]; outputs = [ (dst, one) ]; inhibitors = [] })
         arcs rates)

let spmv_reps = 20

(* Lower layers called directly: reachability, generator, the Auto
   steady-state solve, and the reward -- summed as Srn.exrss sums it.
   Then the generator's SpMV, serial and row-parallel. *)
let replay rates =
  let value, q, states, records =
    Trace.span "replay" (fun () ->
        let n = net rates in
        let sk = Trace.span "reach.explore" (fun () -> Reach.explore_skeleton n) in
        let g = Trace.span "reach.reweight" (fun () -> Reach.build ~skeleton:sk n) in
        let q = Ctmc.generator (Reach.ctmc g) in
        let pi, records =
          Trace.span "linsolve.solve" (fun () ->
              Diag.capture (fun () -> Linsolve.ctmc_steady_state q))
        in
        let acc = ref 0.0 in
        Array.iteri
          (fun i p -> if p <> 0.0 then acc := !acc +. (p *. float_of_int (Reach.tangible_marking g i).(0)))
          pi;
        (!acc, q, (Reach.n_tangible g, Reach.n_vanishing g), records))
  in
  let x = Array.init (Sparse.rows q) (fun i -> 1.0 +. (float_of_int (i mod 7) /. 7.0)) in
  let serial = ref [||] and par = ref [||] in
  Trace.span "spmv.serial" (fun () ->
      for _ = 1 to spmv_reps do serial := Sparse.mat_vec q x done);
  Trace.span "spmv.par" (fun () ->
      for _ = 1 to spmv_reps do par := Sparse.par_mat_vec q x done);
  (value, q, states, records, !serial = !par)

let run prog =
  let buf = Buffer.create 256 in
  Structhash.clear_all ();
  let o = Interp.run_program ~print:(Buffer.add_string buf) prog in
  (Buffer.contents buf, o.Interp.failed_statements)

let check ~expected (out, failed) =
  let ok =
    failed = 0
    && match Util.printed_values out with
       | [ v ] -> Util.rel_close ~tol:1e-8 v expected
       | _ -> false
  in
  if not ok then prerr_endline "perfbench: large: answer differs from N * pi0";
  ok

(* Set-up ends with a checked solve of fixed mid-range rates, so that
   set-up time does not depend on how hard the seed's vectors are. *)
let warm_up ~nproc =
  let rates = List.map (fun (_, src, dst) -> if (dst - src + 4) mod 4 = 1 then "1" else "0.1") arcs in
  if not (Single.with_jobs nproc (fun () -> check ~expected:(oracle rates) (run (program rates))))
  then failwith "large: warm-up solve gave a wrong answer"

let setup ~nproc ~seed =
  warm_up ~nproc;
  let rng = Random.State.make [| seed; 2 |] in
  let offset = Array.init (List.length arcs) (fun _ -> Random.State.float rng 1.0) in
  let k = ref 0 in
  let next () =
    let rates = draw_rates ~offset !k in
    incr k;
    (rates, program rates, oracle rates)
  in
  let op () =
    let _, prog, expected = next () in
    check ~expected (run prog)
  in
  let last = ref None in
  let traced_op () =
    let rates, prog, expected = next () in
    Structhash.clear_all ();
    let o = Interp_traced.run prog in
    let ok = check ~expected (o.output, o.failed) in
    let value, q, states, records, spmv_same = replay rates in
    last := Some (q, states);
    (* the replayed solve must take the same solver path as the op's *)
    let path rs = List.map (fun (r : Diag.record) -> (r.severity, r.solver, r.iterations)) rs in
    let same =
      spmv_same
      && path records = path o.records
      && match Util.printed_values o.output with
         | [ v ] -> Util.rel_close ~tol:1e-11 v value
         | _ -> false
    in
    if not same then prerr_endline "perfbench: large: layer replay disagrees with the program";
    (ok && same, o.records, String.length prog)
  in
  let layer_metrics ~ops spans =
    let per_op name = Util.ratio (Trace.total ~spans name) (float_of_int ops) in
    let spmv name = Util.ratio (Trace.total ~spans name) (float_of_int (ops * spmv_reps)) in
    let q, (tangible, vanishing) = Option.get !last in
    let row_ptr, _, _ = Sparse.raw q in
    (* one pass reads row_ptr, col_idx, values and x, and writes y *)
    let bytes =
      float_of_int ((8 * Array.length row_ptr) + (16 * Sparse.nnz q) + (8 * Sparse.nnz q) + (8 * Sparse.rows q))
    in
    [ Layers.m "reach.explore_s" "s" (per_op "reach.explore");
      Layers.m "reach.reweight_s" "s" (per_op "reach.reweight");
      Layers.m "linsolve.s_per_solve" "s" (per_op "linsolve.solve");
      Layers.mi "reach.tangible" "count" tangible;
      Layers.mi "reach.vanishing" "count" vanishing;
      Layers.m "spmv.s" "s" (spmv "spmv.serial");
      Layers.m "spmv.par_s" "s" (spmv "spmv.par");
      Layers.m "spmv.gbytes_per_s_computed" "GB/s" (bytes /. spmv "spmv.serial" /. 1e9);
      Layers.mi "spmv.nnz" "count" (Sparse.nnz q) ]
  in
  { Single.jobs = nproc; op; traced_op; layer_metrics }
