(* Tests for the CTMC engine: steady state, transient, absorption, symbolic. *)
open Sharpe_markov
module E = Sharpe_expo.Exponomial

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

(* two-state availability model: up --l--> down --m--> up *)
let two_state l m = Ctmc.make ~n:2 [ (0, 1, l); (1, 0, m) ]

let test_construction () =
  let c = two_state 0.5 2.0 in
  checkf "rate up->down" 0.5 (Ctmc.rate c 0 1);
  checkf "exit up" 0.5 (Ctmc.exit_rate c 0);
  Alcotest.(check bool) "not absorbing" false (Ctmc.is_absorbing c 0)

let test_duplicate_edges_sum () =
  let c = Ctmc.make ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
  checkf "summed" 3.0 (Ctmc.rate c 0 1)

let test_steady_two_state () =
  let l = 0.5 and m = 2.0 in
  let pi = Ctmc.steady_state (two_state l m) in
  checkf "up" (m /. (l +. m)) pi.(0);
  checkf "down" (l /. (l +. m)) pi.(1)

let test_transient_two_state () =
  (* known closed form: P_down(t) = l/(l+m) (1 - e^-(l+m)t) from up *)
  let l = 0.5 and m = 2.0 in
  let c = two_state l m in
  List.iter
    (fun t ->
      let pi = Ctmc.transient c ~init:[| 1.0; 0.0 |] t in
      let expected = l /. (l +. m) *. (1.0 -. exp (-.(l +. m) *. t)) in
      checkf6 (Printf.sprintf "t=%g" t) expected pi.(1);
      checkf6 "sums to 1" 1.0 (pi.(0) +. pi.(1)))
    [ 0.0; 0.1; 1.0; 5.0; 50.0 ]

let test_transient_large_t_matches_steady () =
  let c = two_state 0.3 1.7 in
  let pi_t = Ctmc.transient c ~init:[| 0.0; 1.0 |] 200.0 in
  let pi = Ctmc.steady_state c in
  Array.iteri (fun i p -> checkf6 (Printf.sprintf "pi%d" i) p pi_t.(i)) pi

let test_cumulative_two_state () =
  (* L_down(t) = integral of P_down: l/(l+m) * (t - (1-e^-(l+m)t)/(l+m)) *)
  let l = 0.5 and m = 2.0 in
  let c = two_state l m in
  let t = 2.0 in
  let lv = Ctmc.cumulative c ~init:[| 1.0; 0.0 |] t in
  let a = l +. m in
  let expected = l /. a *. (t -. ((1.0 -. exp (-.a *. t)) /. a)) in
  checkf6 "L_down" expected lv.(1);
  checkf6 "total time" t (lv.(0) +. lv.(1))

let test_rewards () =
  let l = 1.0 and m = 3.0 in
  let c = two_state l m in
  let reward = function 0 -> 1.0 | _ -> 0.0 in
  checkf "ss availability" (m /. (l +. m)) (Ctmc.expected_reward_ss c ~reward);
  let at = Ctmc.expected_reward_at c ~init:[| 1.0; 0.0 |] ~reward 1.0 in
  let a = l +. m in
  checkf6 "transient availability"
    ((m /. a) +. (l /. a *. exp (-.a))) at

let test_mtta_pure_death () =
  (* 2 -> 1 -> 0 with rates 2l, l: MTTA = 1/(2l) + 1/l *)
  let l = 0.5 in
  let c = Ctmc.make ~n:3 [ (2, 1, 2.0 *. l); (1, 0, l) ] in
  let init = [| 0.0; 0.0; 1.0 |] in
  checkf "mtta" ((1.0 /. (2.0 *. l)) +. (1.0 /. l)) (Ctmc.mtta c ~init)

let test_absorption_probs () =
  (* from 0: to 1 w.p. 2/5, to 2 w.p. 3/5 *)
  let c = Ctmc.make ~n:3 [ (0, 1, 2.0); (0, 2, 3.0) ] in
  let p = Ctmc.absorption_probs c ~init:[| 1.0; 0.0; 0.0 |] in
  checkf "to 1" 0.4 p.(1);
  checkf "to 2" 0.6 p.(2)

let test_reward_until_absorption () =
  let c = Ctmc.make ~n:2 [ (0, 1, 0.25) ] in
  let r = Ctmc.reward_until_absorption c ~init:[| 1.0; 0.0 |] ~reward:(function 0 -> 2.0 | _ -> 0.0) in
  checkf "reward" 8.0 r

let test_no_absorbing_raises () =
  let c = two_state 1.0 1.0 in
  Alcotest.check_raises "no absorbing" (Invalid_argument "Ctmc: no absorbing state")
    (fun () -> ignore (Ctmc.mtta c ~init:[| 1.0; 0.0 |]))

(* --- acyclic symbolic --------------------------------------------- *)

let test_acyclic_detection () =
  Alcotest.(check bool) "cycle" false (Acyclic.is_acyclic (two_state 1.0 1.0));
  Alcotest.(check bool) "dag" true
    (Acyclic.is_acyclic (Ctmc.make ~n:2 [ (0, 1, 1.0) ]))

let test_acyclic_two_state () =
  let l = 2.0 in
  let c = Ctmc.make ~n:2 [ (0, 1, l) ] in
  let p = Acyclic.state_probabilities c ~init:[| 1.0; 0.0 |] in
  List.iter
    (fun t ->
      checkf (Printf.sprintf "P0 t=%g" t) (exp (-.l *. t)) (E.eval p.(0) t);
      checkf (Printf.sprintf "P1 t=%g" t) (1.0 -. exp (-.l *. t)) (E.eval p.(1) t))
    [ 0.0; 0.5; 2.0 ]

let test_acyclic_erlang_chain () =
  (* 0 -> 1 -> 2 with equal rates: P2 = Erlang(2,l) cdf *)
  let l = 1.5 in
  let c = Ctmc.make ~n:3 [ (0, 1, l); (1, 2, l) ] in
  let p = Acyclic.state_probabilities c ~init:[| 1.0; 0.0; 0.0 |] in
  let er = Sharpe_expo.Dist.erlang 2 l in
  List.iter
    (fun t -> checkf (Printf.sprintf "t=%g" t) (E.eval er t) (E.eval p.(2) t))
    [ 0.0; 0.3; 1.0; 4.0 ]

let test_acyclic_matches_uniformization () =
  (* hypoexp branching dag *)
  let c = Ctmc.make ~n:4 [ (0, 1, 1.0); (0, 2, 2.0); (1, 3, 0.5); (2, 3, 3.0) ] in
  let init = [| 1.0; 0.0; 0.0; 0.0 |] in
  let sym = Acyclic.state_probabilities c ~init in
  List.iter
    (fun t ->
      let num = Ctmc.transient c ~init t in
      Array.iteri
        (fun i p -> checkf6 (Printf.sprintf "state %d t=%g" i t) p (E.eval sym.(i) t))
        num)
    [ 0.2; 1.0; 3.0 ]

let test_absorption_cdf_mean_is_mtta () =
  let c = Ctmc.make ~n:3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let init = [| 1.0; 0.0; 0.0 |] in
  let cdf = Acyclic.absorption_cdf c ~init 2 in
  checkf6 "mean = mtta" (Ctmc.mtta c ~init) (E.mean cdf)

(* --- fast mttf ----------------------------------------------------- *)

let repairable_model lambda mu =
  (* states: 2 up, 1 up(1 failed), 0 down; repair back up *)
  Ctmc.make ~n:3
    [ (2, 1, 2.0 *. lambda); (1, 0, lambda); (1, 2, mu); (0, 1, mu) ]

let test_mttf_exact () =
  (* MTTF from state 2 to state 0 of the repairable 2-unit model:
     standard formula (3 lambda + mu) / (2 lambda^2) *)
  let lambda = 0.01 and mu = 1.0 in
  let c = repairable_model lambda mu in
  let expected = ((3.0 *. lambda) +. mu) /. (2.0 *. lambda *. lambda) in
  checkf6 "mttf" expected (Fast_mttf.mttf c ~init:[| 0.0; 0.0; 1.0 |] ~readf:[ 0 ])

let test_mttf_fast_close_to_exact () =
  let lambda = 1e-4 and mu = 1.0 in
  let c = repairable_model lambda mu in
  let init = [| 0.0; 0.0; 1.0 |] in
  let exact = Fast_mttf.mttf c ~init ~readf:[ 0 ] in
  let fast = Fast_mttf.mttf_fast c ~init { reada = [ 1; 2 ]; readf = [ 0 ] } in
  Alcotest.(check bool) "within 1%" true (Float.abs (fast -. exact) /. exact < 0.01)

(* Three units failing one by one (3 -> 2 -> 1 -> 0, rates 3l, 2l, l),
   each degraded state repaired at rate m, state 0 absorbing.  From the
   first-passage system T3 = 1/(3l) + T2, (2l+m) T2 = 1 + 2l T1 + m T3,
   (l+m) T1 = 1 + m T2 the differences solve one after another, every
   term positive, so the closed form keeps full precision however stiff *)
let three_unit_mttf l m =
  let d3 = 1.0 /. (3.0 *. l) in
  let d2 = (1.0 +. (m *. d3)) /. (2.0 *. l) in
  let t1 = (1.0 +. (m *. d2)) /. l in
  t1 +. d2 +. d3

let test_mttf_three_unit_closed_form () =
  let init = [| 0.0; 0.0; 0.0; 1.0 |] in
  List.iter
    (fun (ratio, fast_bound, exact_bound) ->
      let c =
        Ctmc.make ~n:4
          [ (3, 2, 3.0 *. ratio); (2, 1, 2.0 *. ratio); (1, 0, ratio);
            (2, 3, 1.0); (1, 2, 1.0) ]
      in
      let want = three_unit_mttf ratio 1.0 in
      let rel x = Float.abs (x -. want) /. want in
      let fast = Fast_mttf.mttf_fast c ~init { reada = [ 2; 3 ]; readf = [ 0 ] } in
      let exact = Fast_mttf.mttf c ~init ~readf:[ 0 ] in
      if rel exact > exact_bound then
        Alcotest.failf "l/m=%g: mttf rel. error %.2e > %.0e" ratio (rel exact)
          exact_bound;
      if rel fast > fast_bound then
        Alcotest.failf "l/m=%g: mttf_fast rel. error %.2e > %.0e" ratio (rel fast)
          fast_bound)
    (* aggregation's error shrinks with l/m.  The exact side loses digits
       as the chain stiffens: Ctmc.time_in_transient solves Q_TT^T by dense
       Gauss elimination, which cancels (measured 2.6e-9 at 1e-4, 6.0e-6
       at 1e-6), so its bounds there record that loss, not a tolerance *)
    [ (1e-2, 5e-4, 1e-12); (1e-4, 5e-8, 5e-9); (1e-6, 2e-10, 1e-5) ]

(* --- properties ---------------------------------------------------- *)

let test_acyclic_negative_rate_rejected () =
  (* a malformed "generator" with a negative off-diagonal cannot come
     from Ctmc.make, but Acyclic.predecessors takes a raw sparse matrix:
     it must refuse it loudly (Invalid_argument + an error diagnostic)
     rather than silently produce negative symbolic probabilities *)
  let module S = Sharpe_numerics.Sparse in
  let module Diag = Sharpe_numerics.Diag in
  let q =
    S.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 1, -1.0); (1, 1, 0.0) ]
  in
  let outcome, records =
    Diag.capture (fun () ->
        match Acyclic.predecessors q with
        | _ -> `No_raise
        | exception Invalid_argument _ -> `Raised)
  in
  Alcotest.(check bool) "raises Invalid_argument" true (outcome = `Raised);
  Alcotest.(check bool) "emits an error diagnostic" true
    (List.exists (fun r -> r.Diag.severity = Diag.Error) records)

let test_acyclic_predecessors_adjacency () =
  (* the one-pass predecessor lists index incoming transitions: for the
     chain 0 -> 1 -> 2, state 2's only predecessor is 1 with rate mu *)
  let module S = Sharpe_numerics.Sparse in
  let l = 2.0 and m = 3.0 in
  let q =
    S.of_triplets ~rows:3 ~cols:3
      [ (0, 0, -.l); (0, 1, l); (1, 1, -.m); (1, 2, m) ]
  in
  let preds = Acyclic.predecessors q in
  Alcotest.(check int) "state 0 has no predecessors" 0 (List.length preds.(0));
  Alcotest.(check (list (pair int (float 1e-12)))) "state 1" [ (0, l) ]
    preds.(1);
  Alcotest.(check (list (pair int (float 1e-12)))) "state 2" [ (1, m) ]
    preds.(2)

let prop_transient_is_distribution =
  QCheck.Test.make ~name:"transient vector is a distribution" ~count:50
    QCheck.(triple (float_range 0.1 3.0) (float_range 0.1 3.0) (float_range 0.0 10.0))
    (fun (l, m, t) ->
      let c = Ctmc.make ~n:3 [ (0, 1, l); (1, 2, m); (2, 0, 1.0) ] in
      let pi = Ctmc.transient c ~init:[| 1.0; 0.0; 0.0 |] t in
      let s = Array.fold_left ( +. ) 0.0 pi in
      Float.abs (s -. 1.0) < 1e-8 && Array.for_all (fun p -> p >= -1e-12) pi)

let prop_steady_is_fixed_point =
  QCheck.Test.make ~name:"steady state annihilates the generator" ~count:50
    QCheck.(pair (float_range 0.1 5.0) (float_range 0.1 5.0))
    (fun (l, m) ->
      let c = Ctmc.make ~n:3 [ (0, 1, l); (1, 2, m); (2, 0, 1.0); (1, 0, 0.3) ] in
      let pi = Ctmc.steady_state c in
      let r = Sharpe_numerics.Sparse.vec_mat pi (Ctmc.generator c) in
      Array.for_all (fun x -> Float.abs x < 1e-8) r)

(* [of_rows] emitting each row's rates in list order builds the same chain
   as [make] on the list, bit for bit: duplicate cells and exit rates are
   summed in the same order. *)
let prop_of_rows_matches_make =
  QCheck.Test.make ~name:"of_rows is make in emission order" ~count:200
    QCheck.(
      list_of_size (Gen.int_bound 60)
        (triple (int_bound 4) (int_bound 4) (float_range 0.0 10.0)))
    (fun ts ->
      let n = 5 in
      let ts = List.filter (fun (i, j, _) -> i <> j) ts in
      let a = Ctmc.make ~n ts in
      let b =
        Ctmc.of_rows ~n (fun i emit ->
            List.iter (fun (i', j, r) -> if i' = i then emit j r) ts)
      in
      let bits (rp, ci, vs) = (rp, ci, Array.map Int64.bits_of_float vs) in
      let exits c = List.init n (fun i -> Int64.bits_of_float (Ctmc.exit_rate c i)) in
      bits (Sharpe_numerics.Sparse.raw (Ctmc.generator a))
      = bits (Sharpe_numerics.Sparse.raw (Ctmc.generator b))
      && exits a = exits b)

(* A uniformization step reuses two iterates, so a long series allocates
   a few vectors in all rather than one per Poisson term (a vector past
   256 floats goes straight to the major heap and paces the major
   collector). *)
let test_transient_allocates_per_solve () =
  let n = 1000 in
  let c =
    Ctmc.make ~n
      (List.concat
         (List.init n (fun i -> [ (i, (i + 1) mod n, 1.0); (i, (i + n - 1) mod n, 0.5) ])))
  in
  let init = Array.init n (fun i -> if i = 0 then 1.0 else 0.0) in
  ignore (Ctmc.transient c ~init 1.0);
  (* allocated words of one solve, the least of three: a solve that
     allocates per term does so every time *)
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let once () =
    let w0 = words () in
    let pi = Ctmc.transient c ~init 200.0 in
    let w = words () -. w0 in
    checkf6 "mass" 1.0 (Array.fold_left ( +. ) 0.0 pi);
    w
  in
  let w = List.fold_left Float.min infinity (List.init 3 (fun _ -> once ())) in
  if w > float_of_int (10 * n) then
    Alcotest.failf "transient allocated %.0f words for a %d-state chain" w n

let suite =
  [ ("construction", `Quick, test_construction);
    ("duplicate edges sum", `Quick, test_duplicate_edges_sum);
    ("steady state two-state", `Quick, test_steady_two_state);
    ("transient two-state closed form", `Quick, test_transient_two_state);
    ("transient converges to steady", `Quick, test_transient_large_t_matches_steady);
    ("cumulative two-state", `Quick, test_cumulative_two_state);
    ("reward measures", `Quick, test_rewards);
    ("mtta pure death", `Quick, test_mtta_pure_death);
    ("absorption probabilities", `Quick, test_absorption_probs);
    ("reward until absorption", `Quick, test_reward_until_absorption);
    ("mtta requires absorbing", `Quick, test_no_absorbing_raises);
    ("acyclic detection", `Quick, test_acyclic_detection);
    ("acyclic symbolic two-state", `Quick, test_acyclic_two_state);
    ("acyclic erlang chain", `Quick, test_acyclic_erlang_chain);
    ("acyclic matches uniformization", `Quick, test_acyclic_matches_uniformization);
    ("absorption cdf mean = mtta", `Quick, test_absorption_cdf_mean_is_mtta);
    ("mttf exact 2-unit", `Quick, test_mttf_exact);
    ("fast mttf close to exact", `Quick, test_mttf_fast_close_to_exact);
    ("mttf 3-unit = closed form, fast and exact", `Quick,
     test_mttf_three_unit_closed_form);
    ("acyclic rejects negative rates", `Quick, test_acyclic_negative_rate_rejected);
    ("acyclic predecessor adjacency", `Quick, test_acyclic_predecessors_adjacency);
    ("transient allocates per solve, not per step", `Quick, test_transient_allocates_per_solve);
    QCheck_alcotest.to_alcotest prop_transient_is_distribution;
    QCheck_alcotest.to_alcotest prop_steady_is_fixed_point;
    QCheck_alcotest.to_alcotest prop_of_rows_matches_make ]

