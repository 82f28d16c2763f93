(* Tests for the diagnostic sink and the solver fallback chains.

   Each scenario pins down both the numeric answer and the exact
   (severity, solver) sequence of emitted diagnostics, so a regression in
   the escalation logic is caught even when the final numbers stay right. *)
open Sharpe_numerics

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

let sev_solver recs =
  List.map (fun r -> (Diag.severity_to_string r.Diag.severity, r.Diag.solver)) recs

let chain = Alcotest.(check (list (pair string string)))

let is_infix needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sink mechanics                                                      *)

let test_capture_and_context () =
  let (), recs =
    Diag.capture (fun () ->
        Diag.with_context "outer" (fun () ->
            Diag.with_context "inner" (fun () ->
                Diag.emit Diag.Warning ~solver:"t" ~iterations:3 "msg")))
  in
  match recs with
  | [ r ] ->
      Alcotest.(check (list string)) "context" [ "outer"; "inner" ] r.Diag.context;
      Alcotest.(check (option int)) "iterations" (Some 3) r.Diag.iterations;
      Alcotest.(check (option (float 0.))) "residual" None r.Diag.residual
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

let test_capture_isolation () =
  (* nested captures: the inner sink sees the inner record, and so does the
     outer one (broadcast), but records emitted after the inner capture ends
     reach only the outer sink *)
  let (), outer =
    Diag.capture (fun () ->
        let (), inner =
          Diag.capture (fun () -> Diag.emit Diag.Info ~solver:"a" "one")
        in
        Alcotest.(check int) "inner count" 1 (List.length inner);
        Diag.emit Diag.Info ~solver:"b" "two")
  in
  chain "outer sees both" [ ("info", "a"); ("info", "b") ] (sev_solver outer)

let test_severity_order () =
  let open Diag in
  let ranks = List.map severity_rank [ Info; Warning; Fallback; Non_convergence; Error ] in
  Alcotest.(check (list int)) "strictly increasing" (List.sort_uniq compare ranks) ranks

let test_json_shape () =
  let (), recs =
    Diag.capture (fun () ->
        Diag.emit Diag.Error ~solver:"s\"x" ~residual:0.5 "bad \"quote\"")
  in
  let json = Diag.records_to_json recs in
  let contains needle =
    Alcotest.(check bool) needle true
      (is_infix needle json)
  in
  contains "\"severity\":\"error\"";
  contains "\"solver\":\"s\\\"x\"";
  contains "\"residual\":0.5";
  contains "\"iterations\":null"

(* ------------------------------------------------------------------ *)
(* Linear-solve escalation chain                                       *)

(* not diagonally dominant: plain Gauss-Seidel diverges on this system *)
let awkward () =
  Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 3.0); (1, 1, 1.0) ]

let test_solve_escalates_to_direct () =
  let x, recs = Diag.capture (fun () -> Linsolve.solve (awkward ()) [| 5.0; 4.0 |]) in
  check_float "x0" 0.6 x.(0);
  check_float "x1" 2.2 x.(1);
  chain "escalation sequence"
    [ ("non-convergence", "gauss_seidel");
      ("fallback", "linsolve");
      ("non-convergence", "sor");
      ("fallback", "linsolve") ]
    (sev_solver recs)

let test_solve_quiet_when_convergent () =
  (* diagonally dominant: Gauss-Seidel converges, no diagnostics at all *)
  let a =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
  in
  let b = [| 9.0; 7.0 |] in
  let x, recs = Diag.capture (fun () -> Linsolve.solve a b) in
  check_float "residual" 0.0 (Linsolve.residual_inf a x b);
  Alcotest.(check int) "silent" 0 (List.length recs)

let forced m f = Diag.capture (fun () -> Linsolve.with_method m f)

let test_gauss_seidel_stats () =
  let a =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
  in
  let b = [| 9.0; 7.0 |] in
  let x, recs = forced Linsolve.Gauss_seidel (fun () -> Linsolve.solve a b) in
  Alcotest.(check bool) "tiny residual" true (Linsolve.residual_inf a x b <= 1e-12);
  Alcotest.(check int) "no diagnostics" 0 (List.length recs)

let test_gauss_seidel_divergence_diagnosed () =
  let b = [| 5.0; 4.0 |] in
  let x, recs = forced Linsolve.Gauss_seidel (fun () -> Linsolve.solve (awkward ()) b) in
  Alcotest.(check bool) "not converged" false (Linsolve.residual_inf (awkward ()) x b <= 1e-8);
  chain "one record" [ ("error", "gauss_seidel") ] (sev_solver recs)

(* ------------------------------------------------------------------ *)
(* CTMC steady state: nearly-completely-decomposable chain             *)

(* two 2-state clusters with internal rates O(1) coupled at 1e-11: the
   sweep iteration cannot cross the coupling in any reasonable budget *)
let ncd_generator () =
  let e = 1e-11 in
  let edges =
    [ (0, 1, 1.0); (1, 0, 2.0); (0, 2, e); (2, 0, 2.0 *. e); (2, 3, 1.0); (3, 2, 2.0) ]
  in
  let diag =
    let d = Array.make 4 0.0 in
    List.iter (fun (i, _, r) -> d.(i) <- d.(i) -. r) edges;
    Array.to_list (Array.mapi (fun i r -> (i, i, r)) d)
  in
  Sparse.of_triplets ~rows:4 ~cols:4 (edges @ diag)

let test_ctmc_ncd_fallback_chain () =
  let q = ncd_generator () in
  (* small chains go direct by default and stay silent *)
  let pi_direct, recs0 = Diag.capture (fun () -> Linsolve.ctmc_steady_state q) in
  Alcotest.(check int) "direct path silent" 0 (List.length recs0);
  (* force the iterative path: sweeps fail, SOR fails, direct rescues *)
  let pi, recs =
    Diag.capture (fun () ->
        Linsolve.ctmc_steady_state ~direct_threshold:0 ~max_iter:20_000 q)
  in
  Array.iteri (fun i p -> check_float_loose (Printf.sprintf "pi%d" i) pi_direct.(i) p) pi;
  check_float_loose "pi0 value" (4.0 /. 9.0) pi.(0);
  chain "escalation sequence"
    [ ("non-convergence", "ctmc_gauss_seidel");
      ("fallback", "ctmc_steady_state");
      ("non-convergence", "ctmc_sor");
      ("fallback", "ctmc_steady_state") ]
    (sev_solver recs)

(* ------------------------------------------------------------------ *)
(* DTMC steady state: periodic chain                                   *)

let test_dtmc_periodic_fallback () =
  (* period 2: states 1 and 2 bounce back to 0; power iteration cycles *)
  let p =
    Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 1, 0.5); (0, 2, 0.5); (1, 0, 1.0); (2, 0, 1.0) ]
  in
  let pi, recs = Diag.capture (fun () -> Linsolve.dtmc_steady_state p) in
  check_float "pi0" 0.5 pi.(0);
  check_float "pi1" 0.25 pi.(1);
  check_float "pi2" 0.25 pi.(2);
  chain "escalation sequence"
    [ ("non-convergence", "dtmc_steady_state"); ("fallback", "dtmc_steady_state") ]
    (sev_solver recs)

(* ------------------------------------------------------------------ *)
(* Escalation paths pinned bit for bit                                 *)

(* Every record field, floats in hex, so a ladder rewrite that changes a
   message, an iteration count or the last bit of a residual fails. *)
let pin recs =
  let opt f = function Some v -> f v | None -> "-" in
  List.map
    (fun r ->
      Printf.sprintf "%s %s it=%s r=%s tol=%s | %s"
        (Diag.severity_to_string r.Diag.severity)
        r.Diag.solver
        (opt string_of_int r.Diag.iterations)
        (opt (Printf.sprintf "%h") r.Diag.residual)
        (opt (Printf.sprintf "%h") r.Diag.tolerance)
        r.Diag.message)
    recs

let pinned = Alcotest.(check (list string))

(* digest of the exact bits of a vector *)
let fingerprint x =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") x))))

let fp = Alcotest.(check string)

(* 1-D Poisson matrix: symmetric, property A, Gauss-Seidel contraction
   cos^2(pi/(n+1)) — slow enough that the SOR window matters *)
let poisson n =
  Sparse.of_triplets ~rows:n ~cols:n
    (List.concat
       (List.init n (fun i ->
            ((i, i, 2.0) :: (if i > 0 then [ (i, i - 1, -1.0) ] else []))
            @ if i < n - 1 then [ (i, i + 1, -1.0) ] else [])))

(* birth-death generator on n states *)
let birth_death n =
  let lam = 1.0 and mu = 1.3 in
  let e =
    List.concat
      (List.init n (fun i ->
           (if i < n - 1 then [ (i, i + 1, lam) ] else [])
           @ if i > 0 then [ (i, i - 1, mu) ] else []))
  in
  let d = Array.make n 0.0 in
  List.iter (fun (i, _, r) -> d.(i) <- d.(i) -. r) e;
  Sparse.of_triplets ~rows:n ~cols:n
    (e @ Array.to_list (Array.mapi (fun i r -> (i, i, r)) d))

let test_solve_forced_sor () =
  let a = poisson 40 in
  let b = Array.make 40 1.0 in
  (* window converges: the over-relaxed trial finishes the solve *)
  let x, recs = forced Linsolve.Sor (fun () -> Linsolve.solve a b) in
  pinned "trial converges: silent" [] (pin recs);
  Alcotest.(check bool) "verified" true (Linsolve.residual_inf a x b <= 1e-8);
  fp "trial converges: iterate" "a2c510f097d3163483958b216e65bcd4" (fingerprint x);
  (* window too short: the trial beats the probe and keeps omega *)
  let x, recs = forced Linsolve.Sor (fun () -> Linsolve.solve ~max_iter:2000 a b) in
  pinned "omega kept: silent" [] (pin recs);
  fp "omega kept: iterate" "a2c510f097d3163483958b216e65bcd4" (fingerprint x);
  (* budget exhausted: one error, best iterate returned *)
  let x, recs = forced Linsolve.Sor (fun () -> Linsolve.solve ~max_iter:200 a b) in
  pinned "budget exhausted" [ "error sor it=- r=0x1.c618231de8p-8 tol=0x1.5798ee2308c3ap-27 | forced \
       method did not produce a verified solution (no fallback under --solver)" ] (pin recs);
  fp "budget exhausted: iterate" "57a3b201e2976f599a934615a361eb32" (fingerprint x);
  (* the over-relaxed trial blows up: the budget finishes at omega = 1 *)
  let cyc =
    Sparse.of_triplets ~rows:5 ~cols:5
      (List.concat
         (List.init 5 (fun i -> [ (i, i, 1.0); (i, (i + 1) mod 5, -0.99) ])))
  in
  let b = Array.make 5 1.0 in
  let x, recs = forced Linsolve.Sor (fun () -> Linsolve.solve cyc b) in
  pinned "omega rejected: silent" [] (pin recs);
  Alcotest.(check bool) "omega rejected: verified" true
    (Linsolve.residual_inf cyc x b <= 1e-8);
  fp "omega rejected: iterate" "85ff3e00f027bb96d3c6d4bc7c576d5e" (fingerprint x);
  (* Gauss-Seidel diverges and so does the under-relaxed trial *)
  let x, recs =
    forced Linsolve.Sor (fun () -> Linsolve.solve (awkward ()) [| 5.0; 4.0 |])
  in
  pinned "divergent" [ "error sor it=- r=nan tol=0x1.5798ee2308c3ap-27 | forced method did not \
       produce a verified solution (no fallback under --solver)" ] (pin recs);
  fp "divergent: iterate" "ca19a7ff0e6293032a8207f6b9929140" (fingerprint x)

(* The ladder's SOR rung is the forced-SOR engine: once Gauss-Seidel has
   spent its sweeps, the automatic answer is bit for bit the forced one. *)
let test_auto_sor_is_forced_sor () =
  let a = poisson 40 in
  let b = Array.make 40 1.0 in
  let x, recs = forced Linsolve.Auto (fun () -> Linsolve.solve ~max_iter:2000 a b) in
  chain "gauss-seidel gives up, sor accepts"
    [ ("non-convergence", "gauss_seidel"); ("fallback", "linsolve") ]
    (sev_solver recs);
  Alcotest.(check string) "fallback message" "escalating to SOR"
    (List.nth recs 1).Diag.message;
  let x_sor, _ = forced Linsolve.Sor (fun () -> Linsolve.solve ~max_iter:2000 a b) in
  fp "auto = forced sor" (fingerprint x_sor) (fingerprint x)

let test_ctmc_forced_sor () =
  let q = birth_death 60 in
  let pi, recs =
    forced Linsolve.Sor (fun () ->
        Linsolve.ctmc_steady_state ~direct_threshold:0 q)
  in
  pinned "converges: silent" [] (pin recs);
  fp "converges: pi" "f53ba731c6bed79c2ce6f2bc2c1e5b90" (fingerprint pi);
  let pi, recs =
    forced Linsolve.Sor (fun () ->
        Linsolve.ctmc_steady_state ~direct_threshold:0 ~max_iter:2000
          (ncd_generator ()))
  in
  pinned "NCD budget exhausted" [ "error ctmc_sor it=2100 r=0x1.38cp-41 tol=0x1.12e0be826d695p-30 | forced \
       method did not produce a verified steady state (no fallback under --solver)" ] (pin recs);
  fp "NCD: pi" "2a9d8bd708c630f8573f3cbc7f8d357b" (fingerprint pi);
  (* a ring whose over-relaxed trial oscillates: finished at omega = 1 *)
  let ring =
    let n = 20 in
    let e =
      List.concat
        (List.init n (fun i ->
             [ (i, (i + 1) mod n, 1.0 +. float_of_int (i mod 3));
               ((i + 1) mod n, i, 3.0) ]))
    in
    let d = Array.make n 0.0 in
    List.iter (fun (i, _, r) -> d.(i) <- d.(i) -. r) e;
    Sparse.of_triplets ~rows:n ~cols:n
      (e @ Array.to_list (Array.mapi (fun i r -> (i, i, r)) d))
  in
  let pi, recs =
    forced Linsolve.Sor (fun () ->
        Linsolve.ctmc_steady_state ~direct_threshold:0 ring)
  in
  pinned "omega rejected: silent" [] (pin recs);
  fp "omega rejected: pi" "a2b365543b1568eed7a9e87eefc23d9a" (fingerprint pi)

(* singular and inconsistent: no Krylov variant can verify *)
let test_solve_forced_bicgstab_fails () =
  let a =
    Sparse.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 1.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 1.0) ]
  in
  let x, recs = forced Linsolve.Bicgstab (fun () -> Linsolve.solve a [| 1.0; 2.0 |]) in
  pinned "non-convergence then error" [ "non-convergence bicgstab(jacobi) it=12 r=0x1p-2 tol=0x1.5798ee2308c3ap-27 \
       | no convergence within iteration budget";
      "error bicgstab(jacobi) it=- r=0x1p-2 tol=0x1.5798ee2308c3ap-27 | forced \
       method did not produce a verified solution (no fallback under --solver)" ] (pin recs);
  fp "iterate returned" "7cfaf8f0d754b19a3ae85abebaa9ea9d" (fingerprint x)

let test_solve_zero_diagonal () =
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  let x, recs = Diag.capture (fun () -> Linsolve.solve a [| 2.0; 3.0 |]) in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1);
  pinned "direct fallback" [ "fallback linsolve it=- r=- tol=- | gauss_seidel hit a zero diagonal: \
       falling back to direct Gaussian elimination" ] (pin recs)

(* stand-ins: a forcing with no specialization for the problem runs the
   automatic ladder, records and bits included *)
let same_as_auto name m f =
  let x_auto, r_auto = forced Linsolve.Auto f in
  let x, r = forced m f in
  pinned (name ^ ": records") (pin r_auto) (pin r);
  fp (name ^ ": result") (fingerprint x_auto) (fingerprint x)

let test_forced_stand_ins () =
  let periodic =
    Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 1, 0.5); (0, 2, 0.5); (1, 0, 1.0); (2, 0, 1.0) ]
  in
  same_as_auto "solve gth" Linsolve.Gth (fun () ->
      Linsolve.solve (awkward ()) [| 5.0; 4.0 |]);
  same_as_auto "solve gth, convergent" Linsolve.Gth (fun () ->
      Linsolve.solve (poisson 40) (Array.make 40 1.0));
  List.iter
    (fun (m, name) ->
      same_as_auto ("dtmc " ^ name) m (fun () -> Linsolve.dtmc_steady_state periodic))
    Linsolve.[ (Gauss_seidel, "gs"); (Sor, "sor"); (Gth, "gth") ]

(* ------------------------------------------------------------------ *)
(* CTMC well-formedness and uniformization warnings                    *)

let test_ctmc_validate_unreachable () =
  let c = Sharpe_markov.Ctmc.make ~n:3 [ (0, 1, 1.0); (1, 0, 2.0); (2, 0, 1.0) ] in
  let (), recs =
    Diag.capture (fun () ->
        Sharpe_markov.Ctmc.validate ~names:(fun i -> [| "up"; "down"; "iso" |].(i)) c)
  in
  match recs with
  | [ r ] ->
      Alcotest.(check string) "severity" "warning" (Diag.severity_to_string r.Diag.severity);
      Alcotest.(check bool) "names the state" true
        (is_infix "iso" r.Diag.message)
  | l -> Alcotest.failf "expected one warning, got %d records" (List.length l)

let test_ctmc_validate_clean () =
  let c = Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let (), recs = Diag.capture (fun () -> Sharpe_markov.Ctmc.validate c) in
  Alcotest.(check int) "silent" 0 (List.length recs)

let test_ctmc_make_rejects_nan () =
  Alcotest.(check bool) "nan rate rejected" true
    (try
       ignore (Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, Float.nan) ]);
       false
     with Invalid_argument _ -> true)

let test_cumulative_truncation_warning () =
  (* lambda ~ 2, t = 4e6 => ~8e6 uniformization steps, past the 5M cap *)
  let c = Sharpe_markov.Ctmc.make ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let t = 4.0e6 in
  let l, recs =
    Diag.capture (fun () ->
        Sharpe_markov.Ctmc.cumulative c ~init:[| 1.0; 0.0 |] t)
  in
  (* the truncated series only accounts for part of [0, t] — that is what
     the warning reports — but the occupancy split of the covered span is
     still the steady-state 2/3 : 1/3 *)
  let covered = l.(0) +. l.(1) in
  Alcotest.(check bool) "series was cut short" true (covered < 0.99 *. t);
  check_float_loose "occupancy split" (2.0 /. 3.0) (l.(0) /. covered);
  let warnings =
    List.filter (fun r -> r.Diag.severity = Diag.Warning) recs
  in
  match warnings with
  | [ r ] ->
      Alcotest.(check bool) "mentions truncation" true
        (is_infix "truncated" r.Diag.message);
      Alcotest.(check bool) "reports shortfall" true
        (match r.Diag.residual with Some s -> s >= 0.0 && s < t | None -> false)
  | l -> Alcotest.failf "expected one truncation warning, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Cancellation is not a solve failure                                 *)

(* Run [f] under a deadline that has passed by the time [f]'s solve first
   checks it ([with_until] checks on entry, so the deadline expires
   during a sleep inside), and return the records emitted before the
   [Timed_out] that must unwind it. *)
let records_of_cancelled f =
  let sink = Diag.create_sink () in
  match
    Diag.with_sink sink (fun () ->
        Deadline.with_until (Unix.gettimeofday () +. 0.02) (fun () ->
            Unix.sleepf 0.05;
            f ()))
  with
  | _ -> Alcotest.fail "the solve finished past its deadline"
  | exception Deadline.Timed_out -> Diag.records sink

let test_srn_steady_timeout_unwinds () =
  (* The vanishing initial marking resolves to the absorbing marking D
     (tangible index 0) or to a chain of 600 transient markings: tokens
     move p -> q and back, and the all-p marking dies to D.  The
     absorption solve over 600 transient markings takes the iterative
     sparse path, which checks the deadline; the fallback steady-state
     solve would take banded GTH (every marking has a move to a lower
     index), which never checks it and reports itself as
     ctmc_steady_state. *)
  let module Net = Sharpe_petri.Net in
  let n = 600 in
  let s = 0 and p = 1 and q = 2 and d = 3 in
  let arc ?(k = 1) i = (i, fun _ -> k) in
  let t ?(kind = Net.Timed) ?(guard = fun _ -> true) name rate ins outs =
    { Net.t_name = name; kind; rate = (fun _ -> rate); guard; priority = 0;
      inputs = ins; outputs = outs; inhibitors = [] }
  in
  let net =
    Net.build
      ~places:[ ("s", 1); ("p", 0); ("q", 0); ("d", 0) ]
      ~transitions:
        [ t ~kind:Net.Immediate "to_d" 1.0 [ arc s ] [ arc d ];
          t ~kind:Net.Immediate "to_p" 1.0 [ arc s ] [ arc ~k:n p ];
          t "f" 1.0 ~guard:(fun m -> m.(q) < n - 1) [ arc p ] [ arc q ];
          t "r" 0.5 [ arc q ] [ arc p ];
          t "die" 0.01 [ arc ~k:n p ] [ arc d ] ]
  in
  let srn = Sharpe_petri.Srn.solve net in
  let recs =
    records_of_cancelled (fun () ->
        Sharpe_petri.Srn.exrss srn (Sharpe_petri.Srn.reward srn (fun m -> float_of_int m.(q))))
  in
  Alcotest.(check (list string)) "no fallback steady-state solve" []
    (List.filter_map
       (fun r -> if r.Diag.solver = "ctmc_steady_state" then Some r.Diag.message else None)
       recs)

let test_fast_mttf_timeout_unwinds () =
  (* 1000 aggregated states in a ring: the ring's bandwidth puts banded
     GTH over budget, so their steady state takes Gauss-Seidel sweeps,
     which check the deadline.  The aggregated chain has three states,
     so the uniform-weight fallback would finish without a check. *)
  let na = 1000 in
  let a i = 2 + i in
  let rates =
    (1, 0, 0.5) :: (1, a 0, 1.0)
    :: List.concat
         (List.init na (fun i -> [ (a i, a ((i + 1) mod na), 1.0); (a i, 1, 0.001) ]))
  in
  let c = Sharpe_markov.Ctmc.make ~n:(na + 2) rates in
  let init = Array.init (na + 2) (fun i -> if i = a 0 then 1.0 else 0.0) in
  ignore
    (records_of_cancelled (fun () ->
         Sharpe_markov.Fast_mttf.mttf_fast c ~init
           { Sharpe_markov.Fast_mttf.reada = List.init na a; readf = [ 0 ] }))

(* ------------------------------------------------------------------ *)
(* Language level: per-statement recovery and error reporting          *)

let test_interp_recovers_per_statement () =
  let src = "expr nosuchvar\nexpr 2+2\n" in
  let buf = Buffer.create 64 in
  let out = Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf) src in
  Alcotest.(check int) "one failed statement" 1 out.Sharpe_lang.Interp.failed_statements;
  Alcotest.(check bool) "later statement still ran" true
    (is_infix "4" (Buffer.contents buf));
  let errors =
    List.filter
      (fun r -> r.Diag.severity = Diag.Error)
      out.Sharpe_lang.Interp.diagnostics
  in
  match errors with
  | [ r ] ->
      Alcotest.(check (list string)) "statement context" [ "statement 1" ] r.Diag.context
  | l -> Alcotest.failf "expected one error, got %d" (List.length l)

let test_interp_parse_error_is_diagnostic () =
  let out = Sharpe_lang.Interp.run_program ~print:ignore "markov )(" in
  Alcotest.(check bool) "failed" true (out.Sharpe_lang.Interp.failed_statements > 0);
  Alcotest.(check bool) "parser error recorded" true
    (List.exists
       (fun r -> r.Diag.severity = Diag.Error && r.Diag.solver = "parser")
       out.Sharpe_lang.Interp.diagnostics)

let suite =
  [ Alcotest.test_case "capture and context" `Quick test_capture_and_context;
    Alcotest.test_case "capture isolation" `Quick test_capture_isolation;
    Alcotest.test_case "severity order" `Quick test_severity_order;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "solve escalates to direct" `Quick test_solve_escalates_to_direct;
    Alcotest.test_case "solve quiet when convergent" `Quick test_solve_quiet_when_convergent;
    Alcotest.test_case "gauss_seidel iter_stats" `Quick test_gauss_seidel_stats;
    Alcotest.test_case "gauss_seidel divergence diagnosed" `Quick
      test_gauss_seidel_divergence_diagnosed;
    Alcotest.test_case "ctmc NCD fallback chain" `Quick test_ctmc_ncd_fallback_chain;
    Alcotest.test_case "dtmc periodic fallback" `Quick test_dtmc_periodic_fallback;
    Alcotest.test_case "solve forced sor window" `Quick test_solve_forced_sor;
    Alcotest.test_case "auto sor is the forced sor engine" `Quick test_auto_sor_is_forced_sor;
    Alcotest.test_case "ctmc forced sor window" `Quick test_ctmc_forced_sor;
    Alcotest.test_case "solve forced bicgstab fails" `Quick
      test_solve_forced_bicgstab_fails;
    Alcotest.test_case "solve zero diagonal" `Quick test_solve_zero_diagonal;
    Alcotest.test_case "forced stand-ins run auto" `Quick test_forced_stand_ins;
    Alcotest.test_case "ctmc validate unreachable" `Quick test_ctmc_validate_unreachable;
    Alcotest.test_case "ctmc validate clean" `Quick test_ctmc_validate_clean;
    Alcotest.test_case "ctmc make rejects nan" `Quick test_ctmc_make_rejects_nan;
    Alcotest.test_case "cumulative truncation warning" `Quick
      test_cumulative_truncation_warning;
    Alcotest.test_case "srn steady: timeout unwinds, no fallback" `Quick
      test_srn_steady_timeout_unwinds;
    Alcotest.test_case "fast mttf: timeout unwinds, no fallback" `Quick
      test_fast_mttf_timeout_unwinds;
    Alcotest.test_case "interp per-statement recovery" `Quick
      test_interp_recovers_per_statement;
    Alcotest.test_case "interp parse error diagnostic" `Quick
      test_interp_parse_error_is_diagnostic ]
