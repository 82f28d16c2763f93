(* Program round trip: for every example and test program whose models
   are all of kinds [Pretty] prints, parsing the printed program gives
   back the program parsed from the source.  An [expr] statement's display
   text is the source it was sliced from, so it is not compared; a PEPA
   model is compared without its source positions, which reprinting
   moves. *)

module P = Sharpe_lang.Parser
module Pretty = Sharpe_lang.Pretty
open Sharpe_lang.Ast

(* the programs the round trip covers, named so that losing one fails *)
let programs =
  [ "examples/pepa/pepa_pipeline.sharpe"; "examples/pepa/pepa_producer_consumer.sharpe";
    "examples/pepa/pepa_server_breakdown.sharpe"; "examples/sharpe/erlang_loss.sharpe";
    "examples/sharpe/fallback_demo.sharpe"; "examples/sharpe/fastmttf_m6.sharpe";
    "examples/sharpe/fastmttf_semi.sharpe"; "examples/sharpe/ft2p3m.sharpe";
    "examples/sharpe/ftree_extra.sharpe"; "examples/sharpe/rbd2p3m.sharpe";
    "examples/sharpe/rejuvenation.sharpe"; "examples/sharpe/semimark1.sharpe";
    "examples/sharpe/standby_availability.sharpe"; "examples/sharpe/whiletest.sharpe" ]

(* nested loops, one with a step, in every looped section of both chain
   kinds, rewards with a default, fastmttf sections, a gen distribution,
   and a bind block inside a function body *)
let fixture =
  {|bind
n 3
r 2
end
func twice(x)
bind
a x
b 2 * a
end
b
end
markov m(rate) readprobs
loop i, 0, n - 1
loop j, i + 1, n, 2
$(i) $(j) rate * j
end
$(i + 1) $(i) 2
end
end
reward default 1
loop i, n, 1, -1
$(i) 0
end
end
0 0.5
loop i, 1, 2
$(i) 0.25
end
end
fastmttf
0 READA
$(n) READF
end
semimark s(rate) uncond
loop i, 0, 1
loop j, 0, 2, 2
$(i)_$(j) $(i + 1)_$(j) exp(rate)
end
end
2_0 0_0 gen\
1,0,0\
-1,0,-rate
end
reward default 0
loop i, 0, 2, 2
$(i)_0 1
end
end
loop i, 0, 0
$(i)_0 1
end
end
fastmttf
0_0 READA
2_0 READF
end
expr twice(n), fastmttf(m; r)
|}

let rec same_stmt a b =
  match (a, b) with
  | SExpr xs, SExpr ys -> List.map snd xs = List.map snd ys
  | SIf (cs, els), SIf (ds, els') ->
      List.length cs = List.length ds
      && List.for_all2 (fun (c, body) (d, body') -> c = d && same_stmts body body') cs ds
      && same_stmts els els'
  | SWhile (c, body), SWhile (d, body') -> c = d && same_stmts body body'
  | SLoop (v, lo, hi, step, body), SLoop (v', lo', hi', step', body') ->
      (v, lo, hi, step) = (v', lo', hi', step') && same_stmts body body'
  | SFunc (f, ps, FStmts body), SFunc (f', ps', FStmts body') ->
      (f, ps) = (f', ps') && same_stmts body body'
  | SModel (MPepa p), SModel (MPepa q) ->
      (p.name, p.params) = (q.name, q.params) && Sharpe_pepa.Ast.equal_model p.past q.past
  | _ -> a = b

and same_stmts a b = List.length a = List.length b && List.for_all2 same_stmt a b

let round_trip what src =
  let stmts = P.parse_string src in
  let printed = Pretty.program_to_string stmts in
  match P.parse_string printed with
  | exception P.Parse_error msg -> Alcotest.failf "%s: printed program: %s\n%s" what msg printed
  | again ->
      if List.length again <> List.length stmts then
        Alcotest.failf "%s: %d statements, %d after printing\n%s" what (List.length stmts)
          (List.length again) printed;
      List.iter2
        (fun s s' ->
          if not (same_stmt s s') then
            Alcotest.failf "%s: statement changed by printing:\n%s\nreads back as\n%s" what
              (Format.asprintf "%a" Pretty.stmt s)
              (Format.asprintf "%a" Pretty.stmt s'))
        stmts again

(* every model kind Pretty prints in concrete syntax *)
let printable = function
  | MBlock _ | MFtree _ | MMarkov _ | MSemimark _ | MPepa _ -> true
  | MMstree _ | MPms _ | MRelgraph _ | MGraph _ | MPfqn _ | MMpfqn _ | MMrgp _ | MSrn _ ->
      false

let rec all_printable = function
  | SModel m -> printable m
  | SIf (cs, els) ->
      List.for_all (fun (_, b) -> List.for_all all_printable b) cs
      && List.for_all all_printable els
  | SWhile (_, b) | SLoop (_, _, _, _, b) | SFunc (_, _, FStmts b) -> List.for_all all_printable b
  | _ -> true

let src_path rel = Filename.concat Test_golden.src_root rel

let test_covered () =
  let sharpe dir =
    Sys.readdir (src_path dir) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sharpe")
    |> List.map (fun f -> dir ^ "/" ^ f)
  in
  let covered =
    List.concat_map sharpe [ "examples/pepa"; "examples/sharpe"; "test/programs" ]
    |> List.filter (fun rel ->
           List.for_all all_printable (P.parse_string (Test_golden.read_file (src_path rel))))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "programs with printable models only" programs covered

let suite =
  ("programs the round trip covers", `Quick, test_covered)
  :: ("fixture: chains, loops, bind", `Quick, fun () -> round_trip "fixture" fixture)
  :: ("literal of 13 significant digits", `Quick, fun () ->
       round_trip "literal" "bind x 0.1234567890123\n")
  :: List.map
       (fun rel ->
         let run () = round_trip rel (Test_golden.read_file (src_path rel)) in
         (Filename.basename rel, `Quick, run))
       programs
