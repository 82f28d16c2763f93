(* Deeper cross-model properties, pretty-printer round trips, and edge
   cases that the per-module suites do not cover. *)

module E = Sharpe_expo.Exponomial
module D = Sharpe_expo.Dist
module Ctmc = Sharpe_markov.Ctmc
module Net = Sharpe_petri.Net
module Srn = Sharpe_petri.Srn
module Rg = Sharpe_relgraph.Relgraph
module Spg = Sharpe_spg.Spg
module Ms = Sharpe_mstree.Mstree
module Ft = Sharpe_ftree.Ftree
module Pms = Sharpe_pms.Pms
module F = Sharpe_bdd.Formula
module P = Sharpe_lang.Parser
module Pretty = Sharpe_lang.Pretty

let checkf6 = Alcotest.(check (float 1e-6))

(* --- pretty-printer round trips -------------------------------------- *)

let rec expr_equal (a : Sharpe_lang.Ast.expr) (b : Sharpe_lang.Ast.expr) =
  let open Sharpe_lang.Ast in
  match (a, b) with
  | Num x, Num y -> Float.abs (x -. y) < 1e-12
  | Ident x, Ident y -> x = y
  | TokCount x, TokCount y | Enabled x, Enabled y -> x = y
  | Neg x, Neg y | Not x, Not y -> expr_equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Call (f1, g1), Call (f2, g2) ->
      f1 = f2 && List.length g1 = List.length g2
      && List.for_all2 (fun x y -> List.length x = List.length y && List.for_all2 expr_equal x y) g1 g2
  | Tmpl t1, Tmpl t2 ->
      List.length t1 = List.length t2
      && List.for_all2
           (fun p q ->
             match (p, q) with
             | Lit x, Lit y -> x = y
             | Sub x, Sub y -> expr_equal x y
             | _ -> false)
           t1 t2
  | _ -> false

let roundtrip src =
  let e = P.parse_expression src in
  let printed = Pretty.expr_to_string e in
  let e' = P.parse_expression printed in
  Alcotest.(check bool)
    (Printf.sprintf "round trip %S -> %S" src printed)
    true (expr_equal e e')

let test_pretty_roundtrip_cases () =
  List.iter roundtrip
    [ "1+2*3"; "(1+2)*3"; "2^3^2"; "-a*b"; "a and b or not c";
      "f(x, y; z)"; "#(p) + 1"; "?(t1)"; "Rate(t2)*1.8+#(p3)*0.7";
      "a <= b"; "x <> y"; "min(1, max(2, 3))"; "1.5e-3 / 2.5E+2";
      "sum(i, 0, C, prob(cp, $(i)_$(i)))" ]

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Sharpe_lang.Ast.Num (float_of_int i)) (int_range 0 100);
        oneofl
          [ Sharpe_lang.Ast.Ident "x"; Sharpe_lang.Ast.Ident "y";
            Sharpe_lang.Ast.TokCount "p"; Sharpe_lang.Ast.Enabled "t" ] ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (3,
           map3
             (fun op a b -> Sharpe_lang.Ast.Binop (op, a, b))
             (oneofl
                Sharpe_lang.Ast.
                  [ Add; Sub; Mul; Div; BAnd; BOr; BEq; BLt; BGe ])
             (go (depth - 1)) (go (depth - 1)));
          (1, map (fun e -> Sharpe_lang.Ast.Neg e) (go (depth - 1)));
          (1,
           map
             (fun es -> Sharpe_lang.Ast.Call ("f", [ es ]))
             (list_size (int_range 1 3) (go (depth - 1)))) ]
  in
  go 3

let prop_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty-print/parse round trip" ~count:200
    (QCheck.make ~print:Pretty.expr_to_string gen_expr)
    (fun e ->
      let printed = Pretty.expr_to_string e in
      expr_equal e (P.parse_expression printed))

(* --- exponomial edge cases ------------------------------------------- *)

let test_convolve_defective () =
  (* defective conv proper: total mass = product of masses *)
  let f = D.defective 0.6 1.0 and g = D.exponential 2.0 in
  let h = E.convolve f g in
  checkf6 "mass" 0.6 (E.limit_at_inf h)

let test_convolve_three_way_assoc () =
  let a = D.exponential 1.0 and b = D.erlang 2 2.0 and c = D.exponential 0.5 in
  let h1 = E.convolve (E.convolve a b) c in
  let h2 = E.convolve a (E.convolve b c) in
  List.iter
    (fun t -> checkf6 (Printf.sprintf "t=%g" t) (E.eval h1 t) (E.eval h2 t))
    [ 0.3; 1.0; 4.0 ]

let test_variance_of_convolution_adds () =
  let a = D.erlang 3 2.0 and b = D.exponential 0.7 in
  checkf6 "variances add" (E.variance a +. E.variance b) (E.variance (E.convolve a b))

let test_near_equal_rates_merge () =
  (* rates within the merge tolerance must not blow up the convolution *)
  let l = 1.0 in
  let f = D.exponential l and g = D.exponential (l *. (1.0 +. 1e-14)) in
  let h = E.convolve f g in
  let er = D.erlang 2 l in
  List.iter
    (fun t ->
      Alcotest.(check bool) "close to erlang" true
        (Float.abs (E.eval h t -. E.eval er t) < 1e-6))
    [ 0.5; 2.0 ]

(* --- SRN vs direct CTMC on random birth-death nets -------------------- *)

let prop_srn_equals_ctmc =
  QCheck.Test.make ~name:"random birth-death SRN = direct CTMC" ~count:20
    QCheck.(triple (int_range 2 6) (QCheck.make (Gen.float_range 0.3 3.0)) (QCheck.make (Gen.float_range 0.3 3.0)))
    (fun (k, lam, mu) ->
      let one_ _ = 1 in
      let t name rate ~ins ~outs ?(inh = []) () =
        { Net.t_name = name; kind = Net.Timed; rate; guard = (fun _ -> true);
          priority = 0; inputs = ins; outputs = outs; inhibitors = inh }
      in
      let net =
        Net.build ~places:[ ("q", 0) ]
          ~transitions:
            [ t "in_" (fun _ -> lam) ~ins:[] ~outs:[ (0, one_) ] ~inh:[ (0, fun _ -> k) ] ();
              t "out_" (fun m -> float_of_int m.(0) *. mu) ~ins:[ (0, one_) ] ~outs:[] () ]
      in
      let s = Srn.solve net in
      let qlen_srn = Srn.etok s "q" in
      let c =
        Ctmc.make ~n:(k + 1)
          (List.concat
             (List.init k (fun i ->
                  [ (i, i + 1, lam); (i + 1, i, float_of_int (i + 1) *. mu) ])))
      in
      let pi = Ctmc.steady_state c in
      let qlen = ref 0.0 in
      Array.iteri (fun i p -> qlen := !qlen +. (float_of_int i *. p)) pi;
      Float.abs (qlen_srn -. !qlen) < 1e-8)

(* --- combinatorial cross-model properties ----------------------------- *)

let prop_relgraph_unrel_monotone =
  QCheck.Test.make ~name:"relgraph unreliability nondecreasing in t" ~count:50
    QCheck.(pair (QCheck.make (Gen.float_range 0.1 2.0)) (QCheck.make (Gen.float_range 0.1 2.0)))
    (fun (l1, l2) ->
      let g = Rg.create () in
      ignore (Rg.edge g "s" "m" (D.exponential l1));
      ignore (Rg.edge g "m" "t" (D.exponential l2));
      ignore (Rg.edge g "s" "t" (D.exponential (l1 +. l2)));
      let ts = List.init 10 (fun i -> 0.4 *. float_of_int i) in
      let vs = List.map (Rg.unreliability g) ts in
      let rec mono = function a :: b :: r -> a <= b +. 1e-10 && mono (b :: r) | _ -> true in
      mono vs)

let prop_spg_kofn_between_min_max =
  QCheck.Test.make ~name:"spg kofn mean between min and max" ~count:50
    (QCheck.make QCheck.Gen.(float_range 0.3 3.0))
    (fun mu ->
      let mk exit =
        let g = Spg.create () in
        Spg.add_edge g "r" "a";
        Spg.add_edge g "r" "b";
        Spg.add_edge g "r" "c";
        Spg.set_dist g "r" D.zero_dist;
        List.iter (fun n -> Spg.set_dist g n (D.exponential mu)) [ "a"; "b"; "c" ];
        Spg.set_exit g "r" exit;
        Spg.mean g
      in
      let mn = mk Spg.Min and k2 = mk (Spg.Kofn (2, 3)) and mx = mk Spg.Max in
      mn <= k2 +. 1e-9 && k2 <= mx +. 1e-9)

let prop_mstree_states_partition =
  QCheck.Test.make ~name:"mstree or over all states has prob 1" ~count:50
    QCheck.(pair (QCheck.make (Gen.float_range 0.0 1.0)) (QCheck.make (Gen.float_range 0.0 1.0)))
    (fun (a, b) ->
      let total = a +. b +. 1.0 in
      let p1 = a /. total and p2 = b /. total in
      let p3 = 1.0 -. p1 -. p2 in
      let t = Ms.create () in
      Ms.basic t ~comp:"c" ~state:"1" p1;
      Ms.basic t ~comp:"c" ~state:"2" p2;
      Ms.basic t ~comp:"c" ~state:"3" p3;
      Ms.gate_or t "top"
        [ Ms.Event ("c", "1"); Ms.Event ("c", "2"); Ms.Event ("c", "3") ];
      Float.abs (Ms.sysprob t "top" -. 1.0) < 1e-9)

let prop_pms_rtimep_at_least_ltimep_for_tightening =
  (* phase 2 stricter than phase 1 (or vs and): latent faults can only
     increase the boundary unreliability seen from the right *)
  QCheck.Test.make ~name:"pms rtimep >= ltimep at boundary (tightening configs)"
    ~count:50
    (QCheck.make QCheck.Gen.(float_range 0.01 0.3))
    (fun l ->
      let p1 =
        { Pms.name = "A"; duration = 5.0; tree = F.And [ F.Var "x"; F.Var "y" ];
          dist = (fun _ -> D.exponential l) }
      in
      let p2 =
        { Pms.name = "B"; duration = 5.0; tree = F.Or [ F.Var "x"; F.Var "y" ];
          dist = (fun _ -> D.exponential l) }
      in
      let p = Pms.make [ p1; p2 ] in
      Pms.unreliability ~side:`Right p 5.0 >= Pms.unreliability ~side:`Left p 5.0 -. 1e-12)

let prop_ftree_importances_consistent =
  QCheck.Test.make ~name:"criticality = birnbaum * q / sys" ~count:50
    QCheck.(pair (QCheck.make (Gen.float_range 0.1 2.0)) (QCheck.make (Gen.float_range 0.1 3.0)))
    (fun (l, time) ->
      let t = Ft.create () in
      Ft.repeat t "a" (D.exponential l);
      Ft.repeat t "b" (D.exponential (2.0 *. l));
      Ft.repeat t "c" (D.exponential (0.5 *. l));
      Ft.gate t "g1" Ft.And [ "a"; "b" ];
      Ft.gate t "top" Ft.Or [ "g1"; "c" ];
      let bi = Ft.birnbaum t "a" time in
      let ci = Ft.criticality t "a" time in
      let q = 1.0 -. exp (-.l *. time) in
      let sys = Ft.prob_at t time in
      Float.abs (ci -. (bi *. q /. sys)) < 1e-9)

(* --- interpreter edge cases ------------------------------------------- *)

let run = Sharpe_lang.Interp.eval_output

let test_lang_gen_distribution () =
  (* the thesis' semimark gen syntax with line continuations *)
  let out =
    run
      "semimark main\n2 1 gen\\\n1,0,0\\\n-1,0,-lambda\\\n-lambda,1,-lambda\n2 0 exp (.01)\nend\nend\nbind lambda .02\nend\ncdf (main,0)"
  in
  Alcotest.(check bool) "prints a cdf" true (String.length out > 10)

let test_lang_nested_model_args () =
  (* model args flowing through two levels of functions *)
  let out =
    run
      "block b(k, l)\ncomp c exp(l)\nkofn top k,4,c\nend\n\
       func m(k, l) mean(b; k, l)\nexpr m(4, 2.0)"
  in
  (* 4-of-4 over exp(2): mean = 1/(4*2)... failure when 1 fails: 1/8 *)
  checkf6 "two args" (1.0 /. 8.0)
    (let lines = String.split_on_char '\n' out in
     let line = List.find (fun l -> String.contains l ':') lines in
     let i = String.rindex line ':' in
     float_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1))))

let test_lang_deep_nesting () =
  let out =
    run
      "bind acc 0\nloop i, 1, 3\nloop j, 1, 3\nif i == j\nbind acc acc+1\nend\nend\nend\nexpr acc+0"
  in
  let lines = String.split_on_char '\n' out in
  let line = List.find (fun l ->
      let rec has i = i + 5 <= String.length l && (String.sub l i 5 = "acc+0" || has (i+1)) in
      has 0) lines in
  let i = String.rindex line ':' in
  checkf6 "diagonal count" 3.0
    (float_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1))))

let test_cli_examples_parse () =
  (* every shipped .sharpe example must at least parse *)
  let dir = "../../../examples/sharpe" in
  let dir = if Sys.file_exists dir then dir else "examples/sharpe" in
  if Sys.file_exists dir then begin
    let files = Sys.readdir dir in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".sharpe" then begin
          let ic = open_in_bin (Filename.concat dir f) in
          let n = in_channel_length ic in
          let src = really_input_string ic n in
          close_in ic;
          match Sharpe_lang.Parser.parse_string src with
          | _ :: _ -> ()
          | [] -> Alcotest.failf "%s parsed to an empty program" f
        end)
      files
  end

(* --- golden checks over the shipped example corpus ------------------- *)

let example_dir () =
  let cands = [ "../../../examples/sharpe"; "examples/sharpe" ] in
  List.find_opt Sys.file_exists cands

let run_example_file name =
  match example_dir () with
  | None -> None
  | Some dir ->
      let buf = Buffer.create 2048 in
      Sharpe_lang.Interp.run_file ~print:(Buffer.add_string buf)
        (Filename.concat dir name);
      Some (Buffer.contents buf)

let value_after out key =
  let lines = String.split_on_char '\n' out in
  let line =
    List.find
      (fun l ->
        let n = String.length key in
        let rec has i = i + n <= String.length l && (String.sub l i n = key || has (i + 1)) in
        has 0)
      lines
  in
  let i = String.rindex line ':' in
  float_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let golden name key expected tol () =
  match run_example_file name with
  | None -> () (* examples not reachable from this cwd: skip *)
  | Some out ->
      let got = value_after out key in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %.9g vs %.9g" name key expected got)
        true
        (Float.abs (got -. expected) <= tol *. Float.max 1.0 (Float.abs expected))

let test_golden_boards = golden "boards_mstree.sharpe" "top:3" 0.9405 1e-6
let test_golden_ft2p3m = golden "ft2p3m.sharpe" "mean(nodepf;1)" 946.285714 1e-6
let test_golden_rbd2p3m = golden "rbd2p3m.sharpe" "mean(nodep;2)" 699.428571 1e-6
let test_golden_overlap = golden "overlap.sharpe" "mean(SERIAL;0.7)" 0.27505 1e-6
let test_golden_mrgp = golden "mrgp_cellular.sharpe" "prob(cellular5_3, 5)" 0.833674587 1e-6
let test_golden_fastmttf = golden "fastmttf_semi.sharpe" "fastmttf(abc2)" 0.92 1e-6
let test_golden_mm1k = golden "mm1k_gspn.sharpe" "avquelength" 1.002832 1e-5
let test_golden_ftx = golden "ftree_extra.sharpe" "sysunrel" 0.3 1e-9
let test_golden_mtta = golden "srn_mtta.sharpe" "mtta(mttatest)" 33.0461838 1e-6
let test_golden_pfqn = golden "pfqn916.sharpe" "ER(60)" 3.112092 1e-5

let lines_from out prefix =
  String.split_on_char '\n' out
  |> List.filter (String.starts_with ~prefix)

(* §2.4.4: M/M/m/b's measures against its birth-death closed form *)
let test_mmmb_closed_form () =
  match run_example_file "mmmb.sharpe" with
  | None -> ()
  | Some out ->
      let lam = 0.9 and mu = 0.1 and m = 2 and b = 2 in
      let unnorm = Array.make (b + 1) 1.0 in
      for n = 1 to b do
        unnorm.(n) <- unnorm.(n - 1) *. lam /. (float_of_int (min n m) *. mu)
      done;
      let z = Array.fold_left ( +. ) 0.0 unnorm in
      let pi n = unnorm.(n) /. z in
      let qlength = (1.0 *. pi 1) +. (2.0 *. pi 2) in
      (* the output prints 9 significant digits *)
      List.iter
        (fun (key, want) ->
          let got = value_after out ("srn_exrss(example3; " ^ key ^ ")") in
          if Float.abs (got -. want) > 1e-8 *. Float.abs want then
            Alcotest.failf "mmmb %s: printed %.9g, closed form %.9g" key got want)
        [ ("qlength1", qlength); ("probrej", pi b); ("probempty", pi 0) ]

(* §2.4.9: the thesis prints this example's whole output file; every
   number it prints must be ours at the precision it prints *)
let test_cellular_fp_thesis_output () =
  match run_example_file "cellular_fp.sharpe" with
  | None -> ()
  | Some out ->
      (* the bound names, at the thesis' six decimals *)
      let series name =
        List.map
          (fun l -> Scanf.sscanf l "%_s <- %f" (Printf.sprintf "%.6f"))
          (lines_from out (name ^ " <- "))
      in
      Alcotest.(check (list string)) "tp"
        [ "4.054972"; "5.557387"; "6.098202"; "6.280690"; "6.340547"; "6.359983" ]
        (series "tp");
      Alcotest.(check (list string)) "err"
        [ "0.950678"; "0.270346"; "0.088684"; "0.029055"; "0.009440"; "0.003056" ]
        (series "err");
      List.iter
        (fun (key, thesis) ->
          Alcotest.(check string) key (Printf.sprintf "%.8e" thesis)
            (Printf.sprintf "%.8e" (value_after out key)))
        [ ("srn_exrss(icupc98; BH)", 6.50059657e-3);
          ("srn_exrss(icupc98; BN)", 3.03008702e-2);
          ("srn_exrss(icupc98; ACh)", 8.70770327);
          ("srn_exrss(icupc98; fnum)/srn_exrss(icupc98; ftput2)", 4.21143605e-4) ]

(* §3.9.2: the MPFQN version of the terminal system must print exactly
   the PFQN version's response times *)
let test_mpfqn_er_equals_pfqn () =
  match (run_example_file "pfqn916.sharpe", run_example_file "mpfqn916.sharpe") with
  | Some pfqn, Some mpfqn ->
      let er = lines_from pfqn "ER(" in
      Alcotest.(check int) "ER rows" 6 (List.length er);
      Alcotest.(check (list string)) "ER(n)" er (lines_from mpfqn "ER(")
  | _ -> ()

let suite =
  [ ("pretty round trips (cases)", `Quick, test_pretty_roundtrip_cases);
    QCheck_alcotest.to_alcotest prop_pretty_roundtrip;
    ("convolve defective", `Quick, test_convolve_defective);
    ("convolution associativity", `Quick, test_convolve_three_way_assoc);
    ("variance additivity", `Quick, test_variance_of_convolution_adds);
    ("near-equal rate merge", `Quick, test_near_equal_rates_merge);
    QCheck_alcotest.to_alcotest prop_srn_equals_ctmc;
    QCheck_alcotest.to_alcotest prop_relgraph_unrel_monotone;
    QCheck_alcotest.to_alcotest prop_spg_kofn_between_min_max;
    QCheck_alcotest.to_alcotest prop_mstree_states_partition;
    QCheck_alcotest.to_alcotest prop_pms_rtimep_at_least_ltimep_for_tightening;
    QCheck_alcotest.to_alcotest prop_ftree_importances_consistent;
    ("lang: gen distribution with continuations", `Quick, test_lang_gen_distribution);
    ("lang: multi-argument models", `Quick, test_lang_nested_model_args);
    ("lang: deep nesting", `Quick, test_lang_deep_nesting);
    ("all shipped examples parse", `Quick, test_cli_examples_parse);
    ("golden: boards mstree", `Quick, test_golden_boards);
    ("golden: ftree 2p3m", `Quick, test_golden_ft2p3m);
    ("golden: rbd 2p3m", `Quick, test_golden_rbd2p3m);
    ("golden: cpu-io overlap", `Quick, test_golden_overlap);
    ("golden: mrgp cellular", `Quick, test_golden_mrgp);
    ("golden: fast mttf semi", `Quick, test_golden_fastmttf);
    ("golden: gspn mm1k", `Quick, test_golden_mm1k);
    ("golden: ftree TEST_KEY", `Quick, test_golden_ftx);
    ("golden: srn mtta", `Quick, test_golden_mtta);
    ("golden: pfqn ER(60)", `Quick, test_golden_pfqn);
    ("golden: mmmb = birth-death closed form (paper)", `Quick, test_mmmb_closed_form);
    ("golden: cellular fixed point = thesis output (paper)", `Quick,
     test_cellular_fp_thesis_output);
    ("golden: mpfqn ER = pfqn ER (paper)", `Quick, test_mpfqn_er_equals_pfqn) ]
