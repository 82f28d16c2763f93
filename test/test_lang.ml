(* Integration tests for the SHARPE language: lexer, parser, interpreter,
   and end-to-end model analyses, checked against closed forms and the
   thesis' printed outputs. *)

let run src = Sharpe_lang.Interp.eval_output src

(* extract the float printed for the [n]-th result line containing [key] *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let result_nth out key n =
  let lines = String.split_on_char '\n' out in
  let matching =
    List.filter (fun l -> contains l key && (String.contains l ':' || contains l "<-")) lines
  in
  match List.nth_opt matching n with
  | Some line ->
      let i =
        if String.contains line ':' then String.rindex line ':'
        else String.rindex line '-'
      in
      float_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | None -> Alcotest.failf "no %d-th output line matching %S in:\n%s" n key out

let result out key = result_nth out key 0

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))
let check_rel msg expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %g vs %g" msg expected got)
    true
    (Float.abs (got -. expected) <= 1e-6 *. Float.max 1.0 (Float.abs expected))

(* --- lexer ---------------------------------------------------------- *)

let test_lexer_scientific () =
  let out = run "expr 1.0E-1 + 2.5e+2" in
  checkf "sci" 250.1 (result out "1.0E-1")

let test_lexer_name_truncation () =
  let out =
    run
      "bind a0123456789012345678901234567890123456789 2\n\
       expr a0123456789012345678901234567890123456789 * 3"
  in
  Alcotest.(check bool) "warned" true
    (String.length out > 0 &&
     (let rec has i = i + 7 <= String.length out && (String.sub out i 7 = "warning" || has (i+1)) in has 0));
  checkf "value survives truncation" 6.0 (result out "*")

let test_comment_lines () =
  let out = run "* this is a comment\nexpr 1+1\n* another\n" in
  checkf "comment" 2.0 (result out "1+1")

(* --- expressions / statements --------------------------------------- *)

let test_arith_precedence () =
  checkf "prec" 7.0 (result (run "expr 1+2*3") "1+2");
  checkf "pow" 512.0 (result (run "expr 2^3^2") "2^3");
  checkf "unary" (-4.0) (result (run "expr -2*2") "-2")

let test_builtin_math () =
  checkf "sqrt" 3.0 (result (run "expr sqrt(9)") "sqrt");
  checkf "min" 1.0 (result (run "expr min(1, 2)") "min");
  checkf "max" 2.0 (result (run "expr max(1, 2)") "max");
  checkf6 "ln" (log 2.0) (result (run "expr ln(2)") "ln");
  checkf6 "ceil" 3.0 (result (run "expr ceil(2.1)") "ceil")

let test_bind_forms () =
  let out = run "bind x 2\nbind\ny 3\nz x*y\nend\nexpr z" in
  checkf "block bind" 6.0 (result out "z")

let test_var_is_reevaluated () =
  let out = run "bind c 1\nvar v c*10\nexpr v\nbind c 2\nexpr v" in
  checkf "first" 10.0 (result_nth out "v" 0);
  checkf "second" 20.0 (result_nth out "v" 1)

let test_func_old_and_new () =
  let out = run "func f(x) x*x\nexpr f(3)" in
  checkf "old form" 9.0 (result out "f(3)");
  let out2 = run "func g(x)\nif x > 0\n1\nelse\n0\nend\nend\nexpr g(5), g(-5)" in
  checkf "if true" 1.0 (result out2 "g(5)");
  checkf "if false" 0.0 (result out2 "g(-5)")

let test_func_local_bind () =
  (* binds inside functions are local *)
  let out = run "bind t 100\nfunc h(x)\nbind t x*2\nt+1\nend\nexpr h(5), t" in
  checkf "local" 11.0 (result out "h(5)");
  checkf "global untouched" 100.0 (result_nth out "t:" 0)

let test_while_and_loop () =
  (* key on "s*1" so the bind trace lines (s <- ...) are not picked up *)
  let out = run "bind i 0\nbind s 0\nwhile i < 5\nbind s s+i\nbind i i+1\nend\nexpr s*1" in
  checkf "while sum" 10.0 (result out "s*1");
  let out2 = run "bind s 0\nloop k, 1, 4\nbind s s+k\nend\nexpr s*1" in
  checkf "loop sum" 10.0 (result out2 "s*1")

let test_loop_fractional_step () =
  let out = run "bind n 0\nloop t, 0.1, 1.0, 0.1\nbind n n+1\nend\nexpr n*1" in
  checkf "ten iterations" 10.0 (result out "n*1")

let test_nested_if_elseif () =
  let out =
    run "func cls(x)\nif x < 0\n0\nelseif x == 0\n1\nelseif x < 10\n2\nelse\n3\nend\nend\n\
         expr cls(-1), cls(0), cls(5), cls(50)"
  in
  checkf "neg" 0.0 (result out "cls(-1)");
  checkf "zero" 1.0 (result out "cls(0)");
  checkf "small" 2.0 (result out "cls(5)");
  checkf "big" 3.0 (result out "cls(50)")

let test_sum_builtin () =
  checkf "sum" 15.0 (result (run "expr sum(i, 1, 5, i)") "sum")

(* --- model types end to end ----------------------------------------- *)

let test_block_model () =
  let out =
    run
      "block m(k)\ncomp c exp(l)\nkofn top k,3,c\nend\nbind l 0.5\n\
       expr mean(m;1), mean(m;3)"
  in
  (* 1-of-3: mean = 1/(3l)+1/(2l)+1/l; 3-of-3: 1/(3l) *)
  check_rel "kofn 1" ((1.0 /. 1.5) +. (1.0 /. 1.0) +. 2.0) (result out "mean(m;1)");
  check_rel "kofn 3" (1.0 /. 1.5) (result out "mean(m;3)")

let test_ftree_test_key () =
  (* the thesis' own regression key: sysunrel = 3.0000e-01 *)
  let out =
    run
      "ftree ft\nrepeat a prob(0.3)\nrepeat b prob(0.4)\nbasic c prob(0.8)\n\
       and d a b\nnand f a d\nor e d b\nor g f e\nand h a g\nnor i g c\nor z h i\nend\n\
       var sysunrel pzero(ft)\nexpr sysunrel"
  in
  checkf6 "TEST_KEY" 0.3 (result out "sysunrel")

let test_mstree_boards () =
  let out =
    run
      "mstree ex1\nbasic B1:4 prob(0.95)\nbasic B1:3 prob(0.02)\nbasic B1:2 prob(0.02)\n\
       basic B1:1 prob(0.01)\nbasic B2:4 prob(0.95)\nbasic B2:3 prob(0.02)\n\
       basic B2:2 prob(0.02)\nbasic B2:1 prob(0.01)\n\
       or gor321 B2:3 B2:4\nand gand311 B1:4 gor321\nand gand312 B1:3 B2:4\n\
       or top:3 gand311 gand312\nend\nexpr sysprob(ex1, top:3)"
  in
  (* 0.95*0.97 + 0.02*0.95 *)
  checkf6 "top:3" ((0.95 *. 0.97) +. (0.02 *. 0.95)) (result out "top:3")

let test_markov_two_state () =
  let out =
    run "markov m\nup down 0.5\ndown up 2.0\nend\nend\nexpr prob(m, up)"
  in
  checkf6 "availability" 0.8 (result out "prob")

let test_markov_reward_and_loops () =
  let out =
    run
      "bind C 3\nmarkov m\nloop i, 0, C-1\n$(i) $(i+1) 1.0\n$(i+1) $(i) 2.0\nend\nend\n\
       reward\nloop i, 0, C\n$(i) i\nend\nend\nend\nexpr exrss(m)"
  in
  (* birth-death l=1 m=2: pi ∝ (1, .5, .25, .125); E[i] = (0+.5+.5+.375)/1.875 *)
  checkf6 "expected level" (1.375 /. 1.875) (result out "exrss")

let test_markov_value_transient () =
  let out =
    run
      "markov m readprobs\na b 1.0\nend\na 1\nend\nexpr value(0.5; m, b)"
  in
  checkf6 "transient" (1.0 -. exp (-0.5)) (result out "value")

let test_markov_cdf_symbolic () =
  let out = run "markov m readprobs\na b 2.0\nend\na 1\nend\ncdf(m, b)" in
  Alcotest.(check bool) "has exponomial" true
    (let rec has i = i + 11 <= String.length out && (String.sub out i 11 = "exp(-2 t) +" || has (i+1)) in
     has 0 || String.length out > 0)

let test_semimark_race_vs_markov () =
  (* race semantics over exponential edges = CTMC: mttf of the thesis' C.3.2
     chain is 0.92 (hand computation on the embedded chain) *)
  let out =
    run
      "semimark abc2\nm1 m2 exp(1.2)\nm2 m3 exp(0.8)\nm1 m3 exp(1.4)\nm2 m1 exp(0.3)\n\
       m3 m1 exp(1.5)\nm3 m4 exp(2.5)\nm4 m1 exp(1.0)\nend\nm1 1\nend\n\
       fastmttf\nm1 READA\nm2 READA\nm3 READF\nend\nexpr fastmttf(abc2)"
  in
  checkf6 "thesis C.3.2 mttf" 0.92 (result out "fastmttf");
  let out2 = run "semimark s\na b exp(2.0)\nend\na 1\nend\nexpr mean(s)" in
  checkf6 "mean sojourn" 0.5 (result out2 "mean")

let test_pfqn () =
  let out =
    run
      "pfqn q(n)\ncpu term 1\nterm cpu 1\nend\ncpu fcfs 2.0\nterm is 1.0\nend\ncust n\nend\n\
       expr util(q,cpu;5), tput(q,cpu;5), qlength(q,cpu;5)"
  in
  let c =
    Sharpe_markov.Ctmc.make ~n:6
      (List.concat (List.init 5 (fun k -> [ (k, k + 1, float_of_int (5 - k)); (k + 1, k, 2.0) ])))
  in
  let pi = Sharpe_markov.Ctmc.steady_state c in
  checkf6 "util" (1.0 -. pi.(0)) (result out "util");
  checkf6 "tput" (2.0 *. (1.0 -. pi.(0))) (result out "tput")

let test_gspn_measures () =
  let out =
    run
      "gspn g(K)\nsrc K\nq 0\nend\narr ind 1.0\nsrv ind 2.0\nend\nend\n\
       src arr 1\nq srv 1\nend\narr q 1\nsrv src 1\nend\nend\n\
       expr etok(g, q; 4), prempty(g, q; 4), util(g, srv; 4), tput(g, srv; 4)"
  in
  (* M/M/1/4: rho = .5 *)
  let rho = 0.5 in
  let z = (1.0 -. (rho ** 5.0)) /. (1.0 -. rho) in
  let pi n = (rho ** float_of_int n) /. z in
  let ql = List.fold_left ( +. ) 0.0 (List.init 5 (fun n -> float_of_int n *. pi n)) in
  checkf6 "etok" ql (result out "etok");
  checkf6 "prempty" (pi 0) (result out "prempty");
  checkf6 "util" (1.0 -. pi 0) (result out "util");
  checkf6 "tput" (2.0 *. (1.0 -. pi 0)) (result out "tput")

let test_srn_guard_and_priority () =
  (* guard true initially (p=2): i1 wins by priority; after firing p=1 so
     only i2 enabled *)
  let out =
    run
      "func g()\nif #(p) > 1\n1\nelse\n0\nend\nend\nfunc fq() #(q)\nfunc fr() #(r)\n\
       srn s()\np 2\nq 0\nr 0\nend\nend\n\
       i1 ind 1.0 guard g() priority 5\ni2 ind 1.0 priority 1\nend\n\
       p i1 1\np i2 1\nend\ni1 q 1\ni2 r 1\nend\nend\n\
       expr srn_exrt(0, s; fq), srn_exrt(0, s; fr)"
  in
  checkf6 "q got one" 1.0 (result out "fq");
  checkf6 "r got one" 1.0 (result out "fr")

let test_srn_fixed_point_paper_values () =
  (* thesis example 2.4.9 printed output: tp converges 4.054972 ->
     6.359983; final measures (8 digits) *)
  let src =
    "format 8\nbind\nMAX_ITERATIONS 6\nMAX_ERROR 1e-7\nt_channel 28\ng_c 1\n\
     lam_n 10\nlam_h_o 0.33\nlam_h_i 0.2\nlam_d 0.5\nlam_f 0.000016677\nmu_r 0.0167\nend\n\
     srn icupc98 ()\nT 0\nB 0\nR 0\nCP t_channel\nend\n\
     t_n ind lam_n\nt_h_i ind lam_h_i\nt_d placedep T lam_d\nt_f placedep T lam_f\n\
     t_h_o placedep T lam_h_o\nt_r ind mu_r\nend\nt_1 ind 1.0 priority 100\nend\n\
     CP t_n g_c+1\nCP t_h_i 1\nT t_h_o 1\nT t_d 1\nT t_f 1\nR t_r 1\nB t_1 1\nCP t_1 1\nend\n\
     t_n T 1\nt_n CP g_c\nt_h_i T 1\nt_h_o CP 1\nt_d CP 1\nt_f B 1\nt_f R 1\nt_r CP 1\nt_1 T 1\nend\nend\n\
     func BH()\nif (#(CP)==0)\n1.0\nelse\n0.0\nend\nend\n\
     func hotput() Rate(t_h_o)\n\
     bind i 0\nbind err 1\n\
     while (i < MAX_ITERATIONS and err > MAX_ERROR)\nbind tp srn_exrss(icupc98; hotput)\n\
     bind err fabs((lam_h_i - tp)/tp)\nbind i i+1\nif (i < MAX_ITERATIONS)\nbind lam_h_i tp\nend\nend\n\
     expr srn_exrss(icupc98; BH)\n"
  in
  let out = run src in
  (* the paper's result file prints tp <- 4.054972 first and BH 6.50059657e-3 *)
  let tp0 = result_nth out "tp <-" 0 in
  Alcotest.(check bool) "tp0 = 4.054972 (paper)" true (Float.abs (tp0 -. 4.054972) < 1e-5);
  let tp5 = result_nth out "tp <-" 5 in
  Alcotest.(check bool) "tp5 = 6.359983 (paper)" true (Float.abs (tp5 -. 6.359983) < 1e-5);
  let bh = result out "BH" in
  Alcotest.(check bool) "BH = 6.50059657e-3 (paper)" true
    (Float.abs (bh -. 6.50059657e-3) < 1e-9)

let test_pms_and_switches () =
  (* latent fault: phase 1 tolerates a single failure (and-gate), phase 2
     does not (or-gate over the same components); at the boundary ltimep
     sees the phase-1 configuration, rtimep the phase-2 one *)
  let src common =
    "ftree X\nrepeat a exp(0.1)\nrepeat b exp(0.1)\nand top a b\nend\n\
     ftree Y\nrepeat a exp(0.1)\nrepeat b exp(0.1)\nor top a b\nend\n\
     pms M\n1 X 10\n2 Y 10\nend\n" ^ common
  in
  let left = run (src "ltimep\nexpr tvalue(10; M)") in
  let right = run (src "rtimep\nexpr tvalue(10; M)") in
  let qa = 1.0 -. exp (-1.0) in
  checkf6 "ltimep" (qa *. qa) (result left "tvalue");
  checkf6 "rtimep" (1.0 -. ((1.0 -. qa) ** 2.0)) (result right "tvalue")

let test_relgraph_and_importance () =
  let out =
    run
      "relgraph g\ns m prob(0.1)\nm t prob(0.2)\nend\n\
       expr sysprob(g), bimpt(0; g, s, m), cimpt(0; g, s, m), simpt(g, s, m)"
  in
  checkf6 "sys" 0.28 (result out "sysprob");
  checkf6 "birnbaum" 0.8 (result out "bimpt");
  checkf6 "crit" (0.8 *. 0.1 /. 0.28) (result out "cimpt");
  checkf6 "struct" 0.5 (result out "simpt")

let test_graph_model () =
  let out =
    run
      "graph G(p)\na b\na c\nend\nexit a prob\nprob a b p\ndist a zero\n\
       dist b exp(1.0)\ndist c exp(0.5)\nend\nexpr mean(G;0.25)"
  in
  checkf6 "prob graph mean" ((0.25 *. 1.0) +. (0.75 *. 2.0)) (result out "mean")

let test_mrgp_language () =
  (* with an exponential "general" distribution the MRGP is the M/M/1/1
     CTMC: arrivals Exp(1) (regenerative), service Exp(2) *)
  let out =
    run
      "mrgp m\n1 - 0 exp(2.0)\n0 @ 1 Erlang(1, 1.0)\n1 @ 1 Erlang(1, 1.0)\nend\n\
       expr prob(m, 1)"
  in
  checkf6 "M/M/1/1" (1.0 /. 3.0) (result out "prob")

let test_hierarchy_ftree_over_markov () =
  (* state probability of a CTMC feeding a fault-tree event probability *)
  let out =
    run
      "markov link readprobs\nu d 1.0\nd u 3.0\nend\nu 1\nend\n\
       ftree f(t)\nbasic x prob(value(t; link, d))\nbasic y prob(value(t; link, d))\nand top x y\nend\n\
       expr sysprob(f; 100)"
  in
  checkf6 "hierarchical" (0.25 *. 0.25) (result out "sysprob")

let test_instance_cache_invalidation () =
  (* rebinding a global must invalidate cached model instances *)
  let out =
    run
      "bind l 1.0\nmarkov m\nu d l\nd u 2.0\nend\nend\nexpr prob(m, d)\n\
       bind l 2.0\nexpr prob(m, d)"
  in
  checkf6 "first" (1.0 /. 3.0) (result_nth out "prob" 0);
  checkf6 "second" 0.5 (result_nth out "prob" 1)

(* every input error is a positioned Parse_error, lexer errors included;
   every statement, a bare expression or one led by a keyword, must fill
   its line, and a line after a chain that is neither a statement nor
   [end] opens its init section *)
let test_parse_errors_reported () =
  List.iter
    (fun (what, src, msg) ->
      Alcotest.check_raises what (Sharpe_lang.Parser.Parse_error msg) (fun () ->
          ignore (run src)))
    [ ("bad gate", "ftree f\nbogus x y\nend", "line 2, col 7: unknown ftree line bogus");
      ("illegal character", "expr {2}", "line 1, col 6: illegal character '{'");
      ("lone !", "1 ! 2", "line 1, col 3: unexpected '!'");
      ( "unclosed pepa block", "pepa m\nA = (a, 1).A\nA\n",
        "line 2, col 1: pepa block not terminated by end" );
      ( "expression short of its line", "expr 1\n1 2\n",
        "line 2, col 3: expected end of line after expression" );
      ("expr short of its line", "expr 1 2", "line 1, col 8: expected end of line after expression");
      ("bind short of its line", "bind y 3 4", "line 1, col 10: expected end of line after statement");
      ("var short of its line", "var v 1 )", "line 1, col 9: expected end of line after statement");
      ("format short of its line", "format 8 expr 1", "line 1, col 10: expected end of line after statement");
      ( "loop end short of its line", "loop i, 1, 2\nexpr i\nend expr 3",
        "line 3, col 5: expected end of line after statement" );
      ( "markov end short of its line", "markov m\n0 1 1\n1 0 2\nend 4\nexpr 1",
        "line 4, col 5: expected end of line after statement" );
      ( "init section without its end",
        "bind lam 0.001\nmarkov up2\n2 1 2*lam\n1 0 lam\n1 2 0.1\nend\n0 1.0\n\
         expr prob(up2, 0)",
        "line 8, col 18: expected a (state) name" ) ]

let test_undefined_name () =
  Alcotest.(check bool) "raises Error" true
    (try ignore (run "expr nosuchvar") ; false
     with Sharpe_lang.Eval.Error _ -> true)

(* --- markov instantiation against the former expansion --------------- *)

module Eval = Sharpe_lang.Eval
module Builtins = Sharpe_lang.Builtins
module Ctmc = Sharpe_markov.Ctmc
module Pool = Sharpe_numerics.Pool

(* The former expansion of a markov model's edges: names joined from
   mapped strings, loop variables in one-entry tables, and states
   numbered by a second pass over the expanded name pairs. *)
module Reference = struct
  open Sharpe_lang.Ast
  open Eval

  let ev ctx e = eval_expr ctx e

  let tname_str ctx (tn : tname) =
    String.concat ""
      (List.map
         (function
           | Lit s -> s
           | Sub e ->
               let v = ev ctx e in
               if Float.is_integer v then string_of_int (int_of_float v)
               else Printf.sprintf "%g" v)
         tn)

  let rec expand_medges mctx edges =
    List.concat_map
      (fun e ->
        match e with
        | MEdge (a, b, rate) -> [ (tname_str mctx a, tname_str mctx b, ev mctx rate) ]
        | MEdgeLoop (v, lo, hi, step, body) ->
            expand_loop mctx v lo hi step (fun c -> expand_medges c body))
      edges

  and expand_loop : 'a. ctx -> string -> expr -> expr -> expr option ->
                    (ctx -> 'a list) -> 'a list =
    fun mctx v lo hi step f ->
    let lo = ev mctx lo and hi = ev mctx hi in
    let step = match step with Some s -> ev mctx s | None -> if hi >= lo then 1.0 else -1.0 in
    if step = 0.0 then err "loop step is zero";
    let tbl = Hashtbl.create 1 in
    let c = { mctx with locals = Tbl tbl :: mctx.locals } in
    let out = ref [] in
    let x = ref lo in
    let continues x = if step > 0.0 then x <= hi +. 1e-9 else x >= hi -. 1e-9 in
    while continues !x do
      Hashtbl.replace tbl v !x;
      out := List.rev_append (f c) !out;
      x := !x +. step
    done;
    List.rev !out

  let state_table (pairs : (string * string) list) extra =
    let idx = Hashtbl.create 32 in
    let names = ref [] in
    let count = ref 0 in
    let add n =
      if not (Hashtbl.mem idx n) then begin
        Hashtbl.add idx n !count;
        incr count;
        names := n :: !names
      end
    in
    List.iter (fun (a, b) -> add a; add b) pairs;
    List.iter add extra;
    (idx, Array.of_list (List.rev !names))

  let build_markov mctx edges =
    let es = expand_medges mctx edges in
    let idx, names = state_table (List.map (fun (a, b, _) -> (a, b)) es) [] in
    let n = Array.length names in
    let rates =
      List.map (fun (a, b, r) -> (Hashtbl.find idx a, Hashtbl.find idx b, r)) es
    in
    (idx, names, Ctmc.make ~n rates)

  let instantiate ctx mname args =
    match Hashtbl.find_opt ctx.env.table mname with
    | Some (Model (MMarkov { params; edges; _ })) ->
        let tbl = Hashtbl.create 8 in
        List.iter2 (fun p v -> Hashtbl.replace tbl p v) params args;
        build_markov { ctx with locals = [ Tbl tbl ] } edges
    | _ -> Alcotest.failf "no markov model %s" mname
end

let program_ctx src =
  let ctx = Eval.base_ctx (Eval.make_env ~print:ignore ()) in
  List.iter (fun st -> ignore (Eval.exec_stmt ctx st)) (Sharpe_lang.Parser.parse_string src);
  ctx

let bits_of x = Int64.bits_of_float x

(* The instance [Builtins.instantiate] builds has the former state
   order, index and generator, bit for bit. *)
let same_instance ctx mname args =
  let what = Printf.sprintf "%s(%s)" mname (String.concat "," (List.map string_of_float args)) in
  let idx, names, ctmc = Reference.instantiate ctx mname args in
  let mi =
    match Builtins.instantiate ctx mname args with
    | Eval.IMarkov mi -> mi
    | _ -> Alcotest.failf "%s is not a markov instance" what
  in
  Alcotest.(check (array string)) (what ^ ": names") names mi.Eval.mk_names;
  Alcotest.(check int) (what ^ ": index size") (Hashtbl.length idx) (Hashtbl.length mi.mk_index);
  Hashtbl.iter
    (fun n i -> Alcotest.(check (option int)) (what ^ ": index of " ^ n) (Some i)
        (Hashtbl.find_opt mi.mk_index n))
    idx;
  let entries c =
    let acc = ref [] in
    Sharpe_numerics.Sparse.iter (Ctmc.generator c) (fun i j v -> acc := (i, j, bits_of v) :: !acc);
    List.rev !acc
  in
  if entries ctmc <> entries mi.mk_ctmc then Alcotest.failf "%s: generator differs" what;
  for i = 0 to Array.length names - 1 do
    if bits_of (Ctmc.exit_rate ctmc i) <> bits_of (Ctmc.exit_rate mi.mk_ctmc i) then
      Alcotest.failf "%s: exit rate of %s differs" what names.(i)
  done;
  (idx, names, ctmc)

let expansion_program = {|
bind k 7
bind q 2
markov inner(c)
loop i, 0, c
$(i) $(i+1) 1+i
$(i+1) $(i) 2
end
end
markov steps
loop i, 3, -2, -1
loop j, 0, 1, 0.25
a$(i)_$(j) a$(i-1)_$(j) 1+i*i+j
a$(i-1)_$(j) b$(j/3) 2
end
end
b$(0) a$(3)_$(0) 1.5
b$(0) a$(3)_$(0) 0.5
a$(3)_$(0) b$(0) 0.25
end
markov subs
s$(-3) s$(1e15) 1
s$(1e15) s$(-0) 2
s$(-0) s$(0*-1)x 3
s$(0*-1)x s$(1e15-1) 4
s$(1e15-1) s$(-(1e15-1)) 5
s$(-(1e15-1)) s$(-1e15) 6
s$(-1e15) s$(2^60) 7
s$(2^60) s$(1/0) 8
s$(1/0) s$(-3) 9
end
markov shadow(p)
loop p, 1, 2
loop k, 0, 1
loop p, 5, 6
x$(p)_$(k) y$(p) p+k+1
end
y$(p+4) x$(p+4)_$(k) k+p
end
end
z$(k)_$(p)_$(q) y$(5) 1
y$(5) z$(k)_$(p)_$(q) q
loop q, 0.5, -0.5, -0.5
z$(k)_$(p)_$(2) w$(q) q+1
w$(q) z$(k)_$(p)_$(2) 1
end
end
markov nested(c)
loop i, 0, c
$(i)_$(prob(inner, $(0); i+1)) $(i+1)_$(prob(inner, $(0); i+2)) 1+prob(inner, $(1); i+1)
$(i+1)_$(prob(inner, $(0); i+2)) $(i)_$(prob(inner, $(0); i+1)) 3
end
end
|}

let test_expansion_bit_identical () =
  let ctx = program_ctx expansion_program in
  let cases =
    [ ("inner", [ 3.0 ]); ("steps", []); ("subs", []); ("shadow", [ 9.0 ]);
      ("shadow", [ -0.5 ]); ("nested", [ 4.0 ]); ("nested", [ 2.0 ]) ]
  in
  List.iter (fun (m, args) -> ignore (same_instance ctx m args)) cases;
  (* the names the fractional steps, the wide subscripts and the nested
     solves must have written *)
  let names m args =
    let _, names, _ = same_instance ctx m args in
    Array.to_list names
  in
  let has m args n =
    Alcotest.(check bool) (m ^ " has " ^ n) true (List.mem n (names m args))
  in
  has "steps" [] "a-2_0.75";
  has "steps" [] "b0.0833333";
  List.iter (has "subs" [])
    [ "s-3"; "s1000000000000000"; "s0"; "s0x"; "s999999999999999";
      "s-999999999999999"; "s-1000000000000000"; "s1152921504606846976"; "sinf" ];
  has "shadow" [ 9.0 ] "x6_1";
  has "shadow" [ 9.0 ] "z7_9_2";
  has "shadow" [ 9.0 ] "w-0.5";
  Alcotest.(check bool) "nested names carry %g subscripts" true
    (List.exists (fun n -> String.length n > 4 && String.contains n '.') (names "nested" [ 4.0 ]));
  (* a value and a name that both fail: the value is read first *)
  let bad = program_ctx "markov bad\n$(nosuch_a) y nosuch_rate\nend\n" in
  let message f = try ignore (f ()); "no error" with Eval.Error m -> m in
  Alcotest.(check string) "first error"
    (message (fun () -> Reference.instantiate bad "bad" []))
    (message (fun () -> Builtins.instantiate bad "bad" []))

(* The same models solved in a loop fanned out over two domains: every
   printed probability is the one the former instance gives. *)
let test_expansion_parallel_loop () =
  let src =
    expansion_program
    ^ "format 17\nloop c, 1, 6\nexpr prob(nested, $(c)_$(prob(inner, $(0); c+1)); c)\nend\n"
  in
  let buf = Buffer.create 1024 in
  Pool.set_jobs ~clamp:false 2;
  let outcome =
    Fun.protect ~finally:(fun () -> Pool.set_jobs 1) (fun () ->
        Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf) src)
  in
  Alcotest.(check int) "no failed statements" 0 outcome.Sharpe_lang.Interp.failed_statements;
  let out = Buffer.contents buf in
  let ctx = program_ctx expansion_program in
  let steady m c = Ctmc.steady_state (let _, _, chain = Reference.instantiate ctx m [ c ] in chain) in
  for c = 1 to 6 do
    let c' = float_of_int c in
    let idx, _, chain = Reference.instantiate ctx "nested" [ c' ] in
    let t0 = Sharpe_lang.Ast.Num (steady "inner" (c' +. 1.0)).(0) in
    let state = Printf.sprintf "%d_%s" c (Reference.tname_str ctx [ Sharpe_lang.Ast.Sub t0 ]) in
    let expected = (Ctmc.steady_state chain).(Hashtbl.find idx state) in
    let got = result_nth out "prob(nested" (c - 1) in
    if bits_of expected <> bits_of got then
      Alcotest.failf "c = %d: %h printed, %h expected" c got expected
  done

(* Integer subscripts are written digit by digit; the text is
   [string_of_int]'s. *)
let test_subscript_digits () =
  let buf = Buffer.create 32 in
  let text v =
    Buffer.clear buf;
    Builtins.add_subscript buf v;
    Buffer.contents buf
  in
  let check v =
    let n = int_of_float v in
    if text v <> string_of_int n then Alcotest.failf "%d written as %s" n (text v)
  in
  for n = 0 to 1_000_000 do
    check (float_of_int n)
  done;
  let rng = Random.State.make [| 22 |] in
  for _ = 1 to 100_000 do
    let v = Float.round (Random.State.float rng 1e15) in
    if v < 1e15 then begin
      check v;
      check (-.v)
    end
  done;
  List.iter check [ -0.0; -1.0; 999_999_999_999_999.0; -999_999_999_999_999.0 ];
  Alcotest.(check string) "-0" "0" (text (-0.0));
  Alcotest.(check string) "fraction" "0.25" (text 0.25)

(* [prob] on a chain with both absorbing and transient states is the
   absorption probability from the initial state, on any other chain the
   steady state: each branch pinned bit for bit against its Ctmc call. *)
let test_prob_branches () =
  let ctx =
    program_ctx
      "markov ab\na b 1\na c 2\na d 0.5\nd a 3\nend\nend\n\
       markov irr\na b 1\nb a 2\nend\nend\n"
  in
  let prob m s = Eval.eval_call ctx "prob" [ [ Sharpe_lang.Ast.Ident m; Sharpe_lang.Ast.Ident s ] ] in
  let chain m =
    match Builtins.instantiate ctx m [] with
    | Eval.IMarkov mi -> mi
    | _ -> Alcotest.failf "%s is not a markov instance" m
  in
  let ab = chain "ab" and irr = chain "irr" in
  Alcotest.(check bool) "ab is partly absorbing" true (Ctmc.partly_absorbing ab.mk_ctmc);
  Alcotest.(check bool) "irr is not" false (Ctmc.partly_absorbing irr.mk_ctmc);
  let absorbed = Ctmc.absorption_probs ab.mk_ctmc ~init:[| 1.0; 0.0; 0.0; 0.0 |] in
  List.iter
    (fun s ->
      Alcotest.(check int64) ("absorption into " ^ s)
        (bits_of absorbed.(Hashtbl.find ab.mk_index s))
        (bits_of (prob "ab" s)))
    [ "b"; "c" ];
  Alcotest.(check (float 1e-12)) "b takes a third of the mass" (1.0 /. 3.0) (prob "ab" "b");
  let pi = Ctmc.steady_state irr.mk_ctmc in
  List.iter
    (fun s ->
      Alcotest.(check int64) ("steady state of " ^ s)
        (bits_of pi.(Hashtbl.find irr.mk_index s))
        (bits_of (prob "irr" s)))
    [ "a"; "b" ];
  let chain n rates = Ctmc.make ~n rates in
  Alcotest.(check (list bool)) "one absorbing state, all absorbing, none, mixed"
    [ false; false; false; true ]
    (List.map Ctmc.partly_absorbing
       [ chain 1 []; chain 2 []; chain 2 [ (0, 1, 1.0); (1, 0, 1.0) ];
         chain 3 [ (0, 1, 1.0); (1, 0, 1.0); (1, 2, 1.0) ] ])

(* A top-level loop, or any statement, after a markov or semimark chain's
   closing [end] is a statement, not the chain's initial-probability
   section, even though the loop's own [end] and the program's would close
   one: the first line after the loop headers decides. *)
let test_loop_after_markov () =
  let chain = "markov m\n0 1 2\n1 0 3\nend\n" in
  List.iter
    (fun (src, expected) ->
      let buf = Buffer.create 256 in
      let outcome =
        Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf) src
      in
      Alcotest.(check int) ("no failed statements: " ^ src) 0
        outcome.Sharpe_lang.Interp.failed_statements;
      Alcotest.(check string) src expected (Buffer.contents buf))
    [ ( "bind lam 1\nmarkov m\n0 1 lam\n1 0 2\nend\n\
         loop i, 1, 6\nexpr prob(m, 0)\nend\nend\nexpr 1+1\n",
        String.concat "" (List.init 6 (fun _ -> "prob(m, 0): 6.666667e-001\n"))
        ^ "1+1: 2.000000\n" );
      ( "func f(y) y+1\n" ^ chain ^ "loop i, 1, 2\nf(i)\nend\nend\n",
        "f(i): 2.000000\nf(i): 3.000000\n" );
      ( chain ^ "loop i, 1, 2\nprob(m, 0)\nend\nend\nexpr 1+1\n",
        "prob(m, 0): 6.000000e-001\nprob(m, 0): 6.000000e-001\n1+1: 2.000000\n" );
      ("bind x 4\n" ^ chain ^ "x*2\nend\n", "x*2: 8.000000\n");
      ( "func f(y) y+1\nsemimark m\n0 1 exp(2)\n1 0 exp(3)\nend\n\
         loop i, 1, 2\nf(i)\nend\nend\n",
        "f(i): 2.000000\nf(i): 3.000000\n" ) ]

(* A guard reading ?(T1) of its own net asks, while the net's enabling is
   being decided, for that decision again: the statement fails at once
   and the run goes on. *)
let test_enabling_reentry () =
  let path = Filename.concat Test_golden.src_root "test/programs/enabling_reentry.sharpe" in
  let buf = Buffer.create 64 in
  let t0 = Unix.gettimeofday () in
  let o = Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf) (Test_golden.read_file path) in
  Alcotest.(check bool) "under a second" true (Unix.gettimeofday () -. t0 < 1.0);
  Alcotest.(check string) "the statement after it runs" "1+1: 2.000000\n" (Buffer.contents buf);
  Alcotest.(check int) "one failed statement" 1 o.failed_statements;
  Alcotest.(check (list string)) "its error"
    [ "Net n: deciding which transitions are enabled reads ?() or Rate() of the net itself" ]
    (List.map (fun (r : Sharpe_numerics.Diag.record) -> r.message) o.diagnostics)

(* --- the builtin contract ----------------------------------------------- *)

(* A small model of each kind: [mk], [sm] and [n] are irreducible, [ma],
   [sx] and [sa] absorb; [rsrv] reads Rate(srv) at each marking of [n]. *)
let contract_models =
  {|bind lam 0.5
block b
comp c1 exp(lam)
comp c2 prob(0.1)
series top c1 c2
end
ftree ft
basic e1 exp(lam)
basic e2 prob(0.1)
or top e1 e2
end
mstree ms
basic c:1 prob(0.9)
basic c:0 prob(0.1)
basic d:1 prob(0.8)
basic d:0 prob(0.2)
and top:1 c:1 d:1
end
ftree px
repeat a exp(0.1)
repeat b exp(0.1)
and top a b
end
ftree py
repeat a exp(0.1)
repeat b exp(0.1)
or top a b
end
pms pm
1 px 10
2 py 10
end
relgraph g
s m exp(1)
m t prob(0.1)
s t exp(3)
end
graph G
a b
a c
end
exit a prob
prob a b 0.25
dist a zero
dist b exp(1.0)
dist c exp(0.5)
end
pfqn q(n)
cpu term 1
term cpu 1
end
cpu fcfs 2.0
term is 1.0
end
cust n
end
mpfqn mq(ni, nb)
chain inter
cpu term 1
term cpu 1
end
chain batch
cpu cpu 1
end
end
cpu fcfs 3
batch 2
end
term is 1 end
end
inter ni
batch nb
end
markov mk
up down 0.5
down up 2
reward
up 1
down 0
end
end
markov ma readprobs
a b 2
a c 1
b c 3
end
a 1
end
fastmttf
a READA
b READF
end
semimark sm
a b exp(2)
b a exp(1)
reward
a 1
b 0
end
a 1
end
fastmttf
a READA
b READF
end
mrgp mg
1 - 0 exp(2.0)
0 @ 1 Erlang(1, 1.0)
1 @ 1 Erlang(1, 1.0)
reward
1 1
end
srn n (K)
src K
qq 0
end
arr ind 1.0
srv ind 2.0
end
end
src arr 1
qq srv 1
end
arr qq 1
srv src 1
end
end
srn sa ()
p 1
d 0
end
t ind 2
end
end
p t 1
end
t d 1
end
end
func nq() #(qq)
func rsrv() Rate(srv)
pepa pp
Fetch = (work, 2).Ready
Ready = (hand, 3).Fetch
Wait = (hand, infty).Crunch
Crunch = (crunch, 1.5).Wait
(Fetch <hand> Wait)
end
semimark sx
a b exp(2)
end
a 1
end
func np() #(p)
|}

(* Every builtin called on each model kind it accepts, its output pinned *)
let accepted =
  [ ( "expr acos(0.5), asin(0.5), atan(1), ceil(1.5), cos(1), fabs(0-2), floor(1.5)",
      "acos(0.5): 1.047198e+000\nasin(0.5): 5.235988e-001\natan(1): 7.853982e-001\nceil(1.5): 2.000000\ncos(1): 5.403023e-001\nfabs(0-2): 2.000000\nfloor(1.5): 1.000000\n" );
    ( "expr ln(2), log(100), exp(1), sin(1), sqrt(2), tan(1)",
      "ln(2): 6.931472e-001\nlog(100): 2.000000\nexp(1): 2.718282e+000\nsin(1): 8.414710e-001\nsqrt(2): 1.414214e+000\ntan(1): 1.557408e+000\n" );
    ( "expr min(1, 2), max(1, 2), weibull(0.5, 2, 1), sum(i, 1, 4, i*i)",
      "min(1, 2): 1.000000\nmax(1, 2): 2.000000\nweibull(0.5, 2, 1): 3.934693e-001\nsum(i, 1, 4, i*i): 30.000000\n" );
    ( "expr srn_exrss(n; rsrv; 3)",
      "srn_exrss(n; rsrv; 3): 9.333333e-001\n" );
    ( "expr tvalue(1; b), tvalue(1, b), tvalue(1; ft), tvalue(15; pm), tvalue(1; g), tvalue(1; G)",
      "tvalue(1; b): 4.541224e-001\ntvalue(1, b): 4.541224e-001\ntvalue(1; ft): 4.541224e-001\ntvalue(15; pm): 9.502129e-001\ntvalue(1; g): 6.356055e-001\ntvalue(1; G): 4.531321e-001\n" );
    ( "expr value(1; mk, down), value(1; sx, b), value(1; pp, Wait)",
      "value(1; mk, down): 1.835830e-001\nvalue(1; sx, b): 8.646647e-001\nvalue(1; pp, Wait): 5.556791e-001\n" );
    ( "expr mean(b), mean(ft), mean(g), mean(G), mean(ma), mean(sx)",
      "mean(b): 1.800000e+000\nmean(ft): 1.800000e+000\nmean(g): 1.008333e+000\nmean(G): 1.750000e+000\nmean(ma): 5.555556e-001\nmean(sx): 5.000000e-001\n" );
    ( "expr var(G)",
      "var(G): 3.437500e+000\n" );
    ( "expr sysprob(ft), sysprob(ft, top), sysprob(ms, top:1), sysprob(b), sysprob(g)",
      "sysprob(ft): 1.000000e-001\nsysprob(ft, top): 1.000000e-001\nsysprob(ms, top:1): 7.200000e-001\nsysprob(b): 1.000000e-001\nsysprob(g): 0.000000\n" );
    ( "expr pzero(ft), pzero(b), pzero(g)",
      "pzero(ft): 1.000000e-001\npzero(b): 1.000000e-001\npzero(g): 0.000000\n" );
    ( "expr prob(mk, down), prob(ma, c), prob(sm, b), prob(mg, 1), prob(pp, Wait)",
      "prob(mk, down): 2.000000e-001\nprob(ma, c): 1.000000\nprob(sm, b): 6.666667e-001\nprob(mg, 1): 3.333333e-001\nprob(pp, Wait): 4.509804e-001\n" );
    ( "expr exrss(mk), exrss(sm), exrss(mg)",
      "exrss(mk): 8.000000e-001\nexrss(sm): 3.333333e-001\nexrss(mg): 3.333333e-001\n" );
    ( "expr exrt(1, mk), cexrt(1, mk)",
      "exrt(1, mk): 8.164170e-001\ncexrt(1, mk): 8.734332e-001\n" );
    ( "expr fastmttf(ma), fastmttf(sm)",
      "fastmttf(ma): 3.333333e-001\nfastmttf(sm): 5.000000e-001\n" );
    ( "expr bimpt(1; ft, e1), cimpt(1; ft, e1), simpt(ft, e1)",
      "bimpt(1; ft, e1): 9.000000e-001\ncimpt(1; ft, e1): 7.797951e-001\nsimpt(ft, e1): 5.000000e-001\n" );
    ( "expr bimpt(1; g, s, m), cimpt(1; g, s, m), simpt(g, s, m)",
      "bimpt(1; g, s, m): 8.551916e-001\ncimpt(1; g, s, m): 8.505027e-001\nsimpt(g, s, m): 2.500000e-001\n" );
    ( "expr srn_exrss(n; nq; 3), srn_exrt(1, n; nq; 3), srn_cexrt(1, n; nq; 3), srn_ave_cexrt(1, n; nq; 3)",
      "srn_exrss(n; nq; 3): 7.333333e-001\nsrn_exrt(1, n; nq; 3): 4.990913e-001\nsrn_cexrt(1, n; nq; 3): 3.068969e-001\nsrn_ave_cexrt(1, n; nq; 3): 3.068969e-001\n" );
    ( "expr srn_cexrinf(sa; np)",
      "srn_cexrinf(sa; np): 5.000000e-001\n" );
    ( "expr mtta(sa), mtta(ma)",
      "mtta(sa): 5.000000e-001\nmtta(ma): 5.555556e-001\n" );
    ( "expr util(n, srv; 3), tput(n, srv; 3), etok(n, qq; 3), prempty(n, qq; 3)",
      "util(n, srv; 3): 4.666667e-001\ntput(n, srv; 3): 9.333333e-001\netok(n, qq; 3): 7.333333e-001\nprempty(n, qq; 3): 5.333333e-001\n" );
    ( "expr util(q, cpu; 3), tput(q, cpu; 3), qlength(q, cpu; 3), rtime(q, cpu; 3)",
      "util(q, cpu; 3): 7.894737e-001\ntput(q, cpu; 3): 1.578947e+000\nqlength(q, cpu; 3): 1.421053e+000\nrtime(q, cpu; 3): 9.000000e-001\n" );
    ( "expr mutil(q, cpu; 3), mtput(q, cpu; 3), mqlength(q, cpu; 3), mrtime(q, cpu; 3)",
      "mutil(q, cpu; 3): 7.894737e-001\nmtput(q, cpu; 3): 1.578947e+000\nmqlength(q, cpu; 3): 1.421053e+000\nmrtime(q, cpu; 3): 9.000000e-001\n" );
    ( "expr util(mq, cpu; 2, 1), tput(mq, cpu; 2, 1), qlength(mq, cpu; 2, 1)",
      "util(mq, cpu; 2, 1): 1.000000\ntput(mq, cpu; 2, 1): 2.370370e+000\nqlength(mq, cpu; 2, 1): 1.888889e+000\n" );
    ( "expr mutil(mq, cpu; 2, 1), mtput(mq, cpu; 2, 1), mqlength(mq, cpu; 2, 1)",
      "mutil(mq, cpu; 2, 1): 1.000000\nmtput(mq, cpu; 2, 1): 2.370370e+000\nmqlength(mq, cpu; 2, 1): 1.888889e+000\n" );
    ( "expr tput(pp, hand)",
      "tput(pp, hand): 8.235294e-001\n" );
    ( "cdf(b)",
      "cdf(b):\n  - 0.9 exp(-0.5 t) + 1\n  mean: 1.800000e+000\n" );
    ( "lcdf(b)",
      "lcdf(b):\n  - 0.9 exp(-0.5 t) + 1\n  mean: 1.800000e+000\n" );
    ( "cdf(ft)",
      "cdf(ft):\n  - 0.9 exp(-0.5 t) + 1\n  mean: 1.800000e+000\n" );
    ( "cdf(ft, top)",
      "cdf(ft, top):\n  - 0.9 exp(-0.5 t) + 1\n  mean: 1.800000e+000\n" );
    ( "cdf(g)",
      "cdf(g):\n  0.9 exp(-4 t) - 1 exp(-3 t) - 0.9 exp(-1 t) + 1\n  mean: 1.008333e+000\n" );
    ( "cdf(G)",
      "cdf(G):\n  - 0.25 exp(-1 t) - 0.75 exp(-0.5 t) + 1\n  mean: 1.750000e+000\n" );
    ( "cdf(ms, top:1)",
      "cdf(ms, top:1): 7.200000e-001\n" );
    ( "cdf(ma)",
      "cdf(ma):\n  - 1 exp(-3 t) - 2 t^1 exp(-3 t) + 1\n  mean: 5.555556e-001\n" );
    ( "cdf(ma, c)",
      "cdf(ma, c):\n  - 1 exp(-3 t) - 2 t^1 exp(-3 t) + 1\n  mean: 5.555556e-001\n" );
    ( "cdf(sx, b)",
      "cdf(sx, b):\n  - 1 exp(-2 t) + 1\n  mean: 5.000000e-001\n" );
    ( "pqcdf(g)",
      "pqcdf(g):\n  qsm*pmt*pst + psm*pst\n" );
    ( "mincuts(ft)",
      "mincuts(ft):\n  1: { e1 }\n  2: { e2 }\n" );
    ( "mincuts(g)",
      "mincuts(g):\n  1: { s->m, s->t }\n  2: { m->t, s->t }\n" );
    ( "minpaths(g)",
      "minpaths(g):\n  1: { s->t }\n  2: { s->m, m->t }\n" );
    ( "multpath(G)",
      "multpath(G):\n  path 1: prob 2.500000e-001, cdf - 1 exp(-1 t) + 1\n  path 2: prob 7.500000e-001, cdf - 1 exp(-0.5 t) + 1\n" ) ]

(* ... and on one kind it rejects (a math builtin on any model): the
   statement fails with this error *)
let rejected =
  [ ("expr acos(b)", "model b used as a value");
    ("expr asin(b)", "model b used as a value");
    ("expr atan(b)", "model b used as a value");
    ("expr ceil(b)", "model b used as a value");
    ("expr cos(b)", "model b used as a value");
    ("expr fabs(b)", "model b used as a value");
    ("expr floor(b)", "model b used as a value");
    ("expr ln(b)", "model b used as a value");
    ("expr log(b)", "model b used as a value");
    ("expr exp(b)", "model b used as a value");
    ("expr sin(b)", "model b used as a value");
    ("expr sqrt(b)", "model b used as a value");
    ("expr tan(b)", "model b used as a value");
    ("expr min(b, 1)", "model b used as a value");
    ("expr max(b, 1)", "model b used as a value");
    ("expr weibull(b, 1, 1)", "model b used as a value");
    ("expr sum(i, 1, 2, b)", "model b used as a value");
    ("expr Rate(srv)", "Rate(srv) outside a marking context");
    ("expr tvalue(1; mk)", "tvalue: unsupported model mk");
    ("expr value(1; b, c1)", "value: unsupported model b");
    ("expr mean(q; 3)", "mean: unsupported model q");
    ("expr var(b)", "var: unsupported model b");
    ("expr sysprob(mk)", "sysprob: unsupported model mk");
    ("expr pzero(G)", "pzero: unsupported model G");
    ("expr prob(b, c1)", "prob: unsupported model b");
    ("expr exrss(b)", "exrss: unsupported model b");
    ("expr exrt(1, sm)", "exrt: unsupported model sm");
    ("expr cexrt(1, sm)", "cexrt: unsupported model sm");
    ("expr fastmttf(b)", "fastmttf: unsupported model b");
    ("expr bimpt(1; b, c1)", "bimpt: unsupported model b");
    ("expr cimpt(1; b, c1)", "cimpt: unsupported model b");
    ("expr simpt(b, c1)", "simpt: unsupported model b");
    ("expr srn_exrss(mk; nq)", "srn_exrss: unsupported model mk");
    ("expr srn_exrt(1, mk; nq)", "srn_exrt: unsupported model mk");
    ("expr srn_cexrt(1, mk; nq)", "srn_cexrt: unsupported model mk");
    ("expr srn_ave_cexrt(1, mk; nq)", "srn_ave_cexrt: unsupported model mk");
    ("expr srn_cexrinf(mk; nq)", "srn_cexrinf: unsupported model mk");
    ("expr mtta(b)", "mtta: unsupported model b");
    ("expr util(pp, hand)", "util: unsupported model pp");
    ("expr tput(b, c1)", "tput: unsupported model b");
    ("expr qlength(n, qq; 3)", "qlength: unsupported model n");
    ("expr rtime(mq, cpu; 2, 1)", "rtime: unsupported model mq");
    ("expr mutil(n, srv; 3)", "mutil: unsupported model n");
    ("expr mtput(n, srv; 3)", "mtput: unsupported model n");
    ("expr mqlength(n, qq; 3)", "mqlength: unsupported model n");
    ("expr mrtime(mq, cpu; 2, 1)", "mrtime: unsupported model mq");
    ("expr etok(q, cpu; 3)", "etok: unsupported model q");
    ("expr prempty(q, cpu; 3)", "prempty: unsupported model q");
    ("cdf(q; 3)", "cdf: unsupported model q");
    ("lcdf(q; 3)", "lcdf: unsupported model q");
    ("pqcdf(ft)", "pqcdf: unsupported model ft");
    ("mincuts(b)", "mincuts: unsupported model b");
    ("minpaths(ft)", "minpaths: unsupported model ft");
    ("multpath(b)", "multpath: unsupported model b") ]

let run_row stmt =
  let buf = Buffer.create 256 in
  let outcome =
    Sharpe_lang.Interp.run_program ~print:(Buffer.add_string buf)
      (contract_models ^ stmt ^ "\n")
  in
  (Buffer.contents buf, outcome)

let test_builtin_contract () =
  List.iter
    (fun (stmt, expected) ->
      let out, o = run_row stmt in
      Alcotest.(check int) (stmt ^ ": no failed statement") 0 o.failed_statements;
      Alcotest.(check string) stmt expected out)
    accepted;
  List.iter
    (fun (stmt, message) ->
      let out, o = run_row stmt in
      Alcotest.(check int) (stmt ^ ": one failed statement") 1 o.failed_statements;
      Alcotest.(check string) (stmt ^ ": nothing printed") "" out;
      Alcotest.(check (list string)) (stmt ^ ": its error") [ message ]
        (List.filter_map
           (fun (r : Sharpe_numerics.Diag.record) ->
             if r.severity = Sharpe_numerics.Diag.Error then Some r.message else None)
           o.diagnostics))
    rejected

(* LANGUAGE.md's section on each model kind names, in backticks, exactly
   the measures and printers the builtin table accepts for that kind *)
let test_language_kinds () =
  let kinds (e : Builtins.entry) =
    match e.does with
    | Compute _ -> []
    | Value cases -> List.map (fun (c : float Builtins.case) -> c.kind) cases
    | Print cases -> List.map (fun (c : unit Builtins.case) -> c.kind) cases
  in
  let accepted kind =
    List.concat_map (fun (e : Builtins.entry) -> if List.mem kind (kinds e) then e.names else [])
      Builtins.table
  in
  let analysis n = List.exists (fun (e : Builtins.entry) -> kinds e <> [] && List.mem n e.names) Builtins.table in
  (* the builtins the backticked spans name or call: `f` or `f(...)` *)
  let named text =
    List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' text)
    |> List.filter_map (fun span ->
           let name = List.hd (String.split_on_char '(' span) in
           if analysis name then Some name else None)
  in
  let doc = Test_golden.read_file (Filename.concat Test_golden.src_root "LANGUAGE.md") in
  let lines = String.split_on_char '\n' doc in
  (* the "## Model types" chapter, without its code blocks, cut at its
     "### " headings *)
  let rec chapter in_it fenced acc = function
    | [] -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"## " l ->
        chapter (l = "## Model types") false acc rest
    | l :: rest when String.starts_with ~prefix:"```" l -> chapter in_it (not fenced) acc rest
    | l :: rest when in_it && not fenced -> chapter in_it fenced (l :: acc) rest
    | _ :: rest -> chapter in_it fenced acc rest
  in
  let sections =
    List.fold_left
      (fun acc l ->
        match (String.starts_with ~prefix:"### " l, acc) with
        | true, _ -> (String.sub l 4 (String.length l - 4), []) :: acc
        | false, (h, body) :: acc -> (h, l :: body) :: acc
        | false, [] -> acc)
      [] (chapter false false [] lines)
  in
  let documented =
    List.concat_map
      (fun (heading, body) ->
        let kinds = List.hd (String.split_on_char '(' heading) in
        List.map
          (fun k -> ((match String.trim k with "gspn" -> "srn" | k -> k), String.concat " " body))
          (String.split_on_char '/' kinds))
      sections
  in
  let all_kinds = List.sort_uniq compare (List.concat_map kinds Builtins.table) in
  Alcotest.(check (list string)) "a section for every kind" all_kinds
    (List.sort_uniq compare (List.map fst documented));
  List.iter
    (fun (kind, body) ->
      Alcotest.(check (list string)) ("### " ^ kind)
        (List.sort_uniq compare (accepted kind))
        (List.sort_uniq compare (named body)))
    documented

let suite =
  [ ("lexer scientific numbers", `Quick, test_lexer_scientific);
    ("lexer 29-char truncation", `Quick, test_lexer_name_truncation);
    ("comments", `Quick, test_comment_lines);
    ("arithmetic precedence", `Quick, test_arith_precedence);
    ("math builtins", `Quick, test_builtin_math);
    ("bind single and block", `Quick, test_bind_forms);
    ("var re-evaluates", `Quick, test_var_is_reevaluated);
    ("func old and new form", `Quick, test_func_old_and_new);
    ("func-local binds", `Quick, test_func_local_bind);
    ("while and loop", `Quick, test_while_and_loop);
    ("fractional loop steps", `Quick, test_loop_fractional_step);
    ("if/elseif chains", `Quick, test_nested_if_elseif);
    ("sum builtin", `Quick, test_sum_builtin);
    ("block model kofn", `Quick, test_block_model);
    ("ftree thesis TEST_KEY", `Quick, test_ftree_test_key);
    ("mstree boards", `Quick, test_mstree_boards);
    ("markov two-state", `Quick, test_markov_two_state);
    ("prob: absorption and steady-state branches", `Quick, test_prob_branches);
    ("markov loops + $() + rewards", `Quick, test_markov_reward_and_loops);
    ("markov transient value()", `Quick, test_markov_value_transient);
    ("markov symbolic cdf", `Quick, test_markov_cdf_symbolic);
    ("semimark", `Quick, test_semimark_race_vs_markov);
    ("pfqn measures", `Quick, test_pfqn);
    ("gspn measures vs closed form", `Quick, test_gspn_measures);
    ("srn guards and priorities", `Quick, test_srn_guard_and_priority);
    ("srn fixed point = paper output", `Slow, test_srn_fixed_point_paper_values);
    ("pms ltimep/rtimep switches", `Quick, test_pms_and_switches);
    ("relgraph + importance", `Quick, test_relgraph_and_importance);
    ("series-parallel graph model", `Quick, test_graph_model);
    ("mrgp language", `Quick, test_mrgp_language);
    ("hierarchy: ftree over markov", `Quick, test_hierarchy_ftree_over_markov);
    ("instance cache invalidation", `Quick, test_instance_cache_invalidation);
    ("parse errors", `Quick, test_parse_errors_reported);
    ("loop after a markov model is a statement", `Quick, test_loop_after_markov);
    ("runtime errors", `Quick, test_undefined_name);
    ("markov expansion bit-identical to the former one", `Quick, test_expansion_bit_identical);
    ("markov expansion in a loop at jobs=2", `Quick, test_expansion_parallel_loop);
    ("subscript digits equal string_of_int", `Quick, test_subscript_digits);
    ("every builtin on the kinds it accepts and one it rejects", `Quick, test_builtin_contract);
    ("a guard reading ?() of its own net fails its statement", `Quick, test_enabling_reentry);
    ("LANGUAGE.md lists each kind's builtins as the table does", `Quick, test_language_kinds) ]
