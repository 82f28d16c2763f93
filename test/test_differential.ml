(* Tests for the differential self-check harness (lib/check): every
   oracle pair must agree on seeded random models, runs must be
   reproducible from the master seed alone, and an injected fault must
   be caught and reported with the seed that reproduces it. *)

module Check = Sharpe_check.Check
module Srng = Sharpe_check.Srng
module Diag = Sharpe_numerics.Diag

(* Run the harness under a capturing sink so its diagnostics do not leak
   into the test runner's output; return both the report and records. *)
let run_quiet ?tol ?inject ?pairs ~seed ~count () =
  Diag.capture (fun () -> Check.run ?tol ?inject ?pairs ~seed ~count ())

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_all_pairs_agree () =
  let rep, _ = run_quiet ~seed:7 ~count:12 () in
  Alcotest.(check int) "all pairs exercised"
    (List.length Check.pair_names)
    (List.length rep.Check.r_pairs);
  List.iter
    (fun p ->
      Alcotest.(check int) (p.Check.p_name ^ ": models") 12 p.Check.p_models;
      Alcotest.(check int) (p.Check.p_name ^ ": errors") 0 p.Check.p_errors;
      Alcotest.(check bool)
        (p.Check.p_name ^ ": compared something")
        true
        (p.Check.p_comparisons > 0);
      Alcotest.(check bool)
        (p.Check.p_name ^ ": worst rel err under tolerance")
        true
        (p.Check.p_worst <= rep.Check.r_tol))
    rep.Check.r_pairs;
  Alcotest.(check int) "no discrepancies" 0
    (List.length rep.Check.r_discrepancies)

let test_run_is_deterministic () =
  let r1, _ = run_quiet ~seed:42 ~count:6 () in
  let r2, _ = run_quiet ~seed:42 ~count:6 () in
  List.iter2
    (fun p1 p2 ->
      Alcotest.(check string) "pair" p1.Check.p_name p2.Check.p_name;
      Alcotest.(check int) (p1.Check.p_name ^ ": comparisons")
        p1.Check.p_comparisons p2.Check.p_comparisons;
      Alcotest.(check int) (p1.Check.p_name ^ ": skipped") p1.Check.p_skipped
        p2.Check.p_skipped;
      (* worst relative error must match to the last bit, not just to a
         tolerance: same seed, same platform-independent PRNG stream *)
      Alcotest.(check bool)
        (p1.Check.p_name ^ ": identical worst rel err")
        true
        (Int64.equal
           (Int64.bits_of_float p1.Check.p_worst)
           (Int64.bits_of_float p2.Check.p_worst)))
    r1.Check.r_pairs r2.Check.r_pairs

let test_injection_is_caught () =
  List.iter
    (fun pair ->
      let rep, records =
        run_quiet ~seed:3 ~count:4 ~inject:pair ~pairs:[ pair ] ()
      in
      Alcotest.(check bool)
        (pair ^ ": injected fault produces discrepancies")
        true
        (rep.Check.r_discrepancies <> []);
      List.iter
        (fun d ->
          Alcotest.(check string) "discrepancy names the pair" pair
            d.Check.d_pair;
          Alcotest.(check bool) "rel err above tolerance" true
            (d.Check.d_err > rep.Check.r_tol))
        rep.Check.r_discrepancies;
      let errs =
        List.filter (fun r -> r.Diag.severity = Diag.Error) records
      in
      Alcotest.(check bool)
        (pair ^ ": error diagnostics emitted")
        true (errs <> []);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            "diagnostic carries the reproducing seed"
            true
            (contains ~needle:"seed=" r.Diag.message))
        errs)
    Check.pair_names

let test_replay_reproduces_clean_model () =
  (* an injected run flags models that are actually healthy; replaying
     any reported seed without injection must rebuild the same model and
     find both engines in agreement *)
  let rep, _ =
    run_quiet ~seed:11 ~count:3 ~inject:"acyclic-vs-uniformization"
      ~pairs:[ "acyclic-vs-uniformization" ] ()
  in
  Alcotest.(check bool) "discrepancies to replay" true
    (rep.Check.r_discrepancies <> []);
  List.iter
    (fun d ->
      let comps, _ =
        Diag.capture (fun () -> Check.replay d.Check.d_pair d.Check.d_seed)
      in
      Alcotest.(check bool) "replay rebuilds the model" true (comps <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s agrees on replay" d.Check.d_seed
               c.Check.what)
            true
            (Check.rel_err c.Check.a c.Check.b <= rep.Check.r_tol))
        comps)
    rep.Check.r_discrepancies

let test_replay_unknown_pair_rejected () =
  Alcotest.(check bool) "unknown pair raises" true
    (match Check.replay "no-such-pair" 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_srng_derive_is_stable () =
  (* model seeds derive deterministically from (master, pair, index) and
     differ across indices and pair names *)
  let a = Srng.derive 2002 "steady-gs-vs-direct" 0 in
  let b = Srng.derive 2002 "steady-gs-vs-direct" 0 in
  Alcotest.(check int) "same inputs, same seed" a b;
  Alcotest.(check bool) "indices decorrelate" true
    (a <> Srng.derive 2002 "steady-gs-vs-direct" 1);
  Alcotest.(check bool) "pair names decorrelate" true
    (a <> Srng.derive 2002 "expo-vs-quadrature" 0);
  Alcotest.(check bool) "seeds are nonnegative" true (a >= 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_agree_any_seed =
  QCheck.Test.make ~name:"oracle pairs agree for arbitrary master seeds"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rep, _ = run_quiet ~seed ~count:2 () in
      rep.Check.r_discrepancies = [] && Check.total_errors rep = 0)

let prop_injection_always_caught =
  QCheck.Test.make
    ~name:"an injected perturbation is flagged for any master seed" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rep, _ =
        run_quiet ~seed ~count:2 ~inject:"steady-gs-vs-direct"
          ~pairs:[ "steady-gs-vs-direct" ] ()
      in
      rep.Check.r_discrepancies <> [])

(* An engine error inside a pair reaches the surrounding sink once, with
   the context that reproduces it.  Forced GTH refuses the SRN pair's
   chains that have no transition to a lower-indexed state (2 of the first
   10 at seed 1). *)
let test_engine_error_reported_once () =
  let rep, records =
    Sharpe_numerics.Linsolve.with_method Sharpe_numerics.Linsolve.Gth (fun () ->
        run_quiet ~seed:1 ~count:10 ~pairs:[ "srn-gs-vs-direct" ] ())
  in
  let engine =
    List.filter
      (fun r -> r.Diag.severity = Diag.Error && r.Diag.solver <> "selfcheck")
      records
  in
  Alcotest.(check bool) "the forced engine refused some model" true (engine <> []);
  Alcotest.(check int) "each counted once" (List.hd rep.Check.r_pairs).Check.p_errors
    (List.length engine);
  List.iter
    (fun r ->
      match r.Diag.context with
      | [ c ] when contains ~needle:"selfcheck srn-gs-vs-direct seed=" c -> ()
      | ctx ->
          Alcotest.failf "engine error with context [%s]" (String.concat "; " ctx))
    engine

let suite =
  [ ("all pairs agree", `Quick, test_all_pairs_agree);
    ("runs are deterministic", `Quick, test_run_is_deterministic);
    ("injected faults are caught", `Quick, test_injection_is_caught);
    ("replay reproduces the model", `Quick, test_replay_reproduces_clean_model);
    ("unknown pair rejected", `Quick, test_replay_unknown_pair_rejected);
    ("seed derivation is stable", `Quick, test_srng_derive_is_stable);
    ("engine error reported once", `Quick, test_engine_error_reported_once);
    QCheck_alcotest.to_alcotest prop_agree_any_seed;
    QCheck_alcotest.to_alcotest prop_injection_always_caught ]
