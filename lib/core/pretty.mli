(** Pretty-printer for SHARPE expressions and statements.

    Prints in concrete SHARPE syntax, so [Parser.parse_expression] of the
    output re-parses to an equivalent AST — the round-trip property the test
    suite checks.  Statements and block, ftree, markov, semimark and pepa
    models print as input the parser reads back; the other model kinds
    print a [* <kind model name>] comment line.  The [roundtrip] test
    suite requires that parsing a printed program gives back the program
    (display texts of [expr] aside) for every example and test program
    whose models are all of the printed kinds. *)

val expr : Format.formatter -> Ast.expr -> unit
val expr_to_string : Ast.expr -> string
val stmt : Format.formatter -> Ast.stmt -> unit
val program : Format.formatter -> Ast.stmt list -> unit
val program_to_string : Ast.stmt list -> string
