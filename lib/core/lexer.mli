(** Lexer for the SHARPE language.

    Line-oriented: [Newline] tokens are significant (statements and model
    lines end at end of line); a backslash before the newline produces
    [Cont] instead, which most contexts skip but the [gen] distribution
    parser uses as a triple separator.  Comment lines start with [*].
    Names are runs of letters, digits, [_], [:] and [.]; a run that parses
    as a number is a number.  Names longer than 29 characters are truncated
    with a warning, as in SHARPE (emitted once per distinct name per
    [tokenize] call, not once per occurrence).

    A line starting with the [pepa] keyword arms raw capture: every line
    after the header up to (but excluding) a line consisting of [end] is
    collected verbatim into a single [Raw] token, followed by
    [Name "end"].  The PEPA front end lexes the body itself with its own
    grammar, which is not line-compatible with SHARPE's. *)

type token =
  | Name of string
  | Number of float
  | LParen
  | RParen
  | Comma
  | Semi
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Eq        (* == *)
  | Neq       (* <> or != *)
  | Le
  | Ge
  | Lt
  | Gt
  | Hash      (* # *)
  | Question  (* ? *)
  | Dollar    (* $ *)
  | At        (* @, MRGP regenerative edges *)
  | Newline
  | Cont      (* backslash-newline *)
  | Raw of string
      (* verbatim body of a [pepa ... end] block; [line] is its first
         source line *)
  | Eof

type t = {
  tok : token;
  line : int;       (** 1-based source line *)
  col : int;        (** 0-based starting column *)
  endcol : int;     (** column just past the token *)
}

exception Error of string
(** Carries ["line N, col M: message"]. *)

val tokenize : ?warn:(string -> unit) -> string -> t list
(** @raise Error on an illegal character, a [!] not followed by [=], and a
    [pepa] block with no closing [end]. *)
