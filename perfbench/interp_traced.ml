(* A SHARPE program run the way [Interp.run_program] runs it -- fresh
   environment, per-statement error recovery, diagnostics collected in a
   sink -- but through [Parser] and [Eval] directly, so parsing and each
   top-level statement get a span of their own. *)

module Ast = Sharpe_lang.Ast
module Eval = Sharpe_lang.Eval
module Parser = Sharpe_lang.Parser
module Diag = Sharpe_numerics.Diag

let model_kind : Ast.model -> string = function
  | MBlock _ -> "block"
  | MFtree _ -> "ftree"
  | MMstree _ -> "mstree"
  | MPms _ -> "pms"
  | MRelgraph _ -> "relgraph"
  | MGraph _ -> "graph"
  | MPfqn _ -> "pfqn"
  | MMpfqn _ -> "mpfqn"
  | MMarkov _ -> "markov"
  | MSemimark _ -> "semimark"
  | MMrgp _ -> "mrgp"
  | MPepa _ -> "pepa"
  | MSrn _ -> "srn"

let stmt_kind : Ast.stmt -> string = function
  | SBind _ -> "bind"
  | SVar _ -> "var"
  | SFunc _ -> "func"
  | SExpr _ -> "expr"
  | SEcho _ -> "echo"
  | SIf _ -> "if"
  | SWhile _ -> "while"
  | SLoop _ -> "loop"
  | SEpsilon _ -> "epsilon"
  | SFormat _ -> "format"
  | SSwitch _ -> "switch"
  | SModel m -> "model_" ^ model_kind m

type outcome = { output : string; failed : int; records : Diag.record list }

let run src =
  let buf = Buffer.create 4096 in
  let env = Eval.make_env ~print:(Buffer.add_string buf) () in
  let sink = Diag.create_sink () in
  let failed = ref 0 in
  Diag.with_sink sink (fun () ->
      let warn w =
        env.Eval.print (w ^ "\n");
        Diag.emit Diag.Warning ~solver:"lexer" w
      in
      match Trace.span "parse" (fun () -> Parser.parse_string ~warn src) with
      | exception Parser.Parse_error msg ->
          incr failed;
          Diag.emit Diag.Error ~solver:"parser" msg
      | stmts ->
          let ctx = Eval.base_ctx env in
          List.iteri
            (fun i s ->
              Diag.with_context
                (Printf.sprintf "statement %d" (i + 1))
                (fun () ->
                  Trace.span ("eval." ^ stmt_kind s) (fun () ->
                      try ignore (Eval.exec_stmt ctx s) with
                      | Eval.Error msg | Failure msg | Invalid_argument msg ->
                          incr failed;
                          Diag.emit Diag.Error ~solver:"eval" msg
                      | Sharpe_numerics.Linsolve.Singular ->
                          incr failed;
                          Diag.emit Diag.Error ~solver:"eval"
                            "singular linear system (model has no unique solution)")))
            stmts);
  { output = Buffer.contents buf; failed = !failed; records = Diag.records sink }
