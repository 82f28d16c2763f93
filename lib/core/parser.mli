(** Recursive-descent parser for the SHARPE language.

    The language is line-oriented: statements and model-body lines end at
    end-of-line; [end] closes sections, model definitions and the control
    constructs ([if], [while], [loop], block-form [func] and [bind]).
    Markov-chain bodies may contain nested [loop]s with [$(expr)]-templated
    state names.  See LANGUAGE.md for the full grammar as implemented and
    thesis chapters 2–3 for the original specification.

    Every statement, a bare expression or one led by a keyword, must
    fill its line.  One decision is made from one line, never by
    scanning ahead: after a markov or semimark chain's edges (and reward
    section), the first line that is not a [loop] header decides whether
    an initial-probability section follows.  [end] opens an empty one; a
    statement keyword, [reward], [fastmttf], or one expression filling
    the line is a statement (so is a line that reads both ways, such as
    [f (x)]); any other line opens the section. *)

exception Parse_error of string
(** Carries ["line N, col M: message"]; lexer errors (an illegal
    character, a lone [!], a [pepa] block with no closing [end]) are
    raised as [Parse_error] too. *)

val parse_string : ?warn:(string -> unit) -> string -> Ast.stmt list
(** Parse a complete SHARPE program.  [warn] receives lexer warnings
    (currently: names truncated to SHARPE's 29-character limit). *)

val parse_expression : ?warn:(string -> unit) -> string -> Ast.expr
(** Parse a single expression that fills its input, trailing newlines
    aside (a daemon [query], tests and tooling); anything after it is a
    [Parse_error]. *)
