(* PEPA front end: pretty-print/parse roundtrip, derivation determinism
   and semantics, the Krylov-tier scaling path, and diagnostics. *)

module A = Sharpe_pepa.Ast
module Pepa = Sharpe_pepa.Pepa
module Linsolve = Sharpe_numerics.Linsolve

let checkf tol = Alcotest.(check (float tol))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let expect_error what subs src =
  match Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse src) with
  | exception Pepa.Error msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "%s: error %S lacks %S" what msg sub)
        subs
  | _ -> Alcotest.failf "%s: expected Pepa.Error" what

(* --- QCheck: printing is the left inverse of parsing ------------------ *)

let gen_model =
  let open QCheck.Gen in
  let act = oneofl [ "a"; "b"; "tick"; "go" ] in
  let act_set lo = map (List.sort_uniq compare) (list_size (int_range lo 3) act) in
  let num =
    oneof
      [ float_range 0.001 1000.0;
        map (fun k -> 0.25 *. float_of_int k) (int_range 1 40) ]
  in
  let rec rexpr n st =
    if n = 0 then
      oneof
        [ map (fun f -> A.Num f) num;
          oneofl [ A.Var ("r1", A.no_pos); A.Var ("mu", A.no_pos) ] ]
        st
    else
      let sub = rexpr (n / 2) in
      oneof
        [ map (fun f -> A.Num f) num;
          map2 (fun a b -> A.Add (a, b)) sub sub;
          map2 (fun a b -> A.Sub (a, b)) sub sub;
          map2 (fun a b -> A.Mul (a, b)) sub sub;
          map2 (fun a b -> A.Div (a, b)) sub sub ]
        st
  in
  let rate =
    oneof
      [ map (fun e -> A.Active e) (rexpr 2);
        return (A.Passive None);
        map (fun e -> A.Passive (Some e)) (rexpr 1) ]
  in
  let const = map (fun c -> A.Const (c, A.no_pos)) (oneofl [ "P0"; "P1"; "P2" ]) in
  let rec proc n st =
    if n = 0 then oneof [ return A.Stop; const ] st
    else
      let sub = proc (n / 2) in
      oneof
        [ const;
          map3 (fun a r k -> A.Prefix (a, r, k)) act rate sub;
          map2 (fun a b -> A.Choice (a, b)) sub sub;
          map3 (fun a l b -> A.Coop (a, l, b)) sub (act_set 0) sub;
          map2 (fun p l -> A.Hide (p, l)) sub (act_set 1) ]
        st
  in
  map3
    (fun rhss system ms ->
      { A.defs =
          List.mapi
            (fun i rhs ->
              { A.d_name = Printf.sprintf "P%d" i; d_pos = A.no_pos; d_rhs = rhs })
            rhss;
        system;
        max_states = ms })
    (list_repeat 3 (proc 4))
    (proc 5)
    (opt (int_range 1 100_000))

let prop_roundtrip =
  QCheck.Test.make ~name:"pretty-print then parse is the identity" ~count:400
    (QCheck.make ~print:A.pp_model gen_model)
    (fun m -> A.equal_model m (Pepa.parse (A.pp_model m)))

(* --- derivation determinism ------------------------------------------ *)

(* the same seed must reproduce the same source text and a bit-identical
   CSR generator (the selfcheck replay workflow depends on this) *)
let test_derivation_deterministic () =
  let module R = Sharpe_check.Srng in
  let module G = Sharpe_check.Gen in
  for seed = 1 to 8 do
    let gen () =
      let case = G.pepa_case (R.make seed) in
      let c = Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse case.G.pc_src) in
      (case.G.pc_src, Sharpe_numerics.Sparse.raw (Pepa.generator c))
    in
    let s1, (ra1, ca1, va1) = gen () in
    let s2, (ra2, ca2, va2) = gen () in
    Alcotest.(check string) "same source" s1 s2;
    Alcotest.(check bool) "bit-identical CSR" true
      (ra1 = ra2 && ca1 = ca2 && va1 = va2)
  done

(* --- semantics on a closed form --------------------------------------- *)

(* independent cyclic components: the product steady state factorizes,
   and each factor is proportional to the reciprocal rates *)
let cycle_model ~leaves ~states =
  let buf = Buffer.create 1024 in
  for leaf = 0 to leaves - 1 do
    for s = 0 to states - 1 do
      Buffer.add_string buf
        (Printf.sprintf "L%d_%d = (t%d, %s).L%d_%d\n" leaf s leaf
           (A.pp_float (1.0 +. (0.25 *. float_of_int s)))
           leaf
           ((s + 1) mod states))
    done
  done;
  Buffer.add_string buf "L0_0";
  for leaf = 1 to leaves - 1 do
    Buffer.add_string buf (Printf.sprintf " <> L%d_0" leaf)
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let test_small_cycle_marginals () =
  let c =
    Pepa.compile ~resolve:(fun _ -> None)
      (Pepa.parse (cycle_model ~leaves:2 ~states:4))
  in
  Alcotest.(check int) "product states" 16 (Pepa.n_states c);
  let pi = Pepa.steady c in
  let r = Array.init 4 (fun s -> 1.0 +. (0.25 *. float_of_int s)) in
  let z = Array.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 r in
  for s = 0 to 3 do
    checkf 1e-9
      (Printf.sprintf "marginal L0_%d" s)
      (1.0 /. r.(s) /. z)
      (Pepa.prob c pi (Printf.sprintf "L0_%d" s))
  done

(* a cooperation of 4 components with >= 10^4 product states must ride
   the Krylov tier: no dense matrix may be materialized *)
let test_large_cooperation_krylov () =
  let src = cycle_model ~leaves:4 ~states:12 in
  let c = Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse src) in
  let n = Pepa.n_states c in
  Alcotest.(check int) "12^4 product states" 20736 n;
  Alcotest.(check bool) "above the Krylov threshold" true
    (n >= Linsolve.krylov_threshold);
  let dense0 = Linsolve.dense_count () in
  let pi = Pepa.steady c in
  Alcotest.(check int) "no dense materialization" dense0
    (Linsolve.dense_count ());
  let r = Array.init 12 (fun s -> 1.0 +. (0.25 *. float_of_int s)) in
  let z = Array.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 r in
  checkf 1e-6 "marginal L2_7" (1.0 /. r.(7) /. z) (Pepa.prob c pi "L2_7")

(* --- structured failures ---------------------------------------------- *)

let test_state_cap () =
  let src = "maxstates 100\n" ^ cycle_model ~leaves:4 ~states:12 in
  (* the header must override the default cap and fail with advice *)
  match Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse src) with
  | exception Pepa.Error msg ->
      Alcotest.(check bool) "mentions maxstates" true
        (contains msg "maxstates")
  | _ -> Alcotest.fail "expected the 100-state cap to trip"

let test_wellformedness_errors () =
  expect_error "undefined constant" [ "B" ] "A = (a, 1).B\nA";
  expect_error "unguarded recursion" [ "A" ] "A = A\nA";
  expect_error "tau in cooperation set" [ "tau" ] "A = (a, 1).A\nA <tau> A";
  expect_error "passive at top level" [ "passive" ] "A = (a, infty).A\nA";
  expect_error "mixed polarity" [ "active"; "passive" ]
    "A = (a, 1).A\nB = (a, infty).B\nC = (a, 1).C\n(A <> B) <a> C"

let test_parse_positions () =
  (match Pepa.parse "A = (a, 1.A\nA" with
  | exception Pepa.Error msg ->
      Alcotest.(check bool) "position on line 1" true
        (contains msg "line 1, col ")
  | _ -> Alcotest.fail "expected a parse error");
  (* through the SHARPE front end the position is file-relative: the
     block body starts after the [pepa m] header line *)
  match
    Sharpe_lang.Interp.eval_output "pepa m\nA = (a, 1.A\nA\nend\nexpr 1"
  with
  | exception Sharpe_lang.Parser.Parse_error msg ->
      Alcotest.(check bool) "file-relative line 2" true
        (contains msg "line 2, col ")
  | _ -> Alcotest.fail "expected a parse error"

(* --- self-loops --------------------------------------------------------- *)

(* A state whose only moves are self-loops must have an empty generator
   row.  Summing the loops into the diagonal left rounding residue
   (here (-(0.1 + 0.25) + 0.1) + 0.25 > 0): a positive diagonal that
   made uniformization divide by a floor rate and the transient NaN.
   The loops still count for throughput. *)
let test_self_loop_only () =
  let c =
    Pepa.compile ~resolve:(fun _ -> None)
      (Pepa.parse "P = (a, 0.1).P + (b, 0.25).P\nP\n")
  in
  Alcotest.(check int) "one state" 1 (Pepa.n_states c);
  Alcotest.(check int) "empty generator" 0
    (Sharpe_numerics.Sparse.nnz (Pepa.generator c));
  List.iter
    (fun t ->
      let pi = Pepa.transient c t in
      checkf 0.0 (Printf.sprintf "pi(t=%g)" t) 1.0 pi.(0);
      checkf 1e-15 (Printf.sprintf "tput b (t=%g)" t) 0.25 (Pepa.throughput c pi "b"))
    [ 0.4; 1.7 ]

(* --- lexer warning dedupe regression ----------------------------------- *)

let test_truncation_warned_once () =
  let long_x = String.make 40 'x' in
  let long_y = String.make 40 'y' in
  let count src =
    let warns = ref 0 in
    ignore (Sharpe_lang.Lexer.tokenize ~warn:(fun _ -> incr warns) src);
    !warns
  in
  Alcotest.(check int) "three occurrences warn once" 1
    (count (Printf.sprintf "bind %s 1\nexpr %s + %s\n" long_x long_x long_x));
  Alcotest.(check int) "distinct names warn separately" 2
    (count (Printf.sprintf "expr %s + %s + %s\n" long_x long_y long_x))

let suite =
  [ QCheck_alcotest.to_alcotest prop_roundtrip;
    ("derivation is deterministic", `Quick, test_derivation_deterministic);
    ("independent cycle marginals", `Quick, test_small_cycle_marginals);
    ("large cooperation stays sparse", `Slow, test_large_cooperation_krylov);
    ("state cap", `Quick, test_state_cap);
    ("wellformedness errors", `Quick, test_wellformedness_errors);
    ("parse error positions", `Quick, test_parse_positions);
    ("self-loop-only state", `Quick, test_self_loop_only);
    ("truncation warning dedupe", `Quick, test_truncation_warned_once) ]
