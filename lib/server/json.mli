(** Minimal JSON: a value type, a strict parser and a printer.

    Stdlib-only on purpose — the daemon must not pull in a JSON
    dependency the container may lack.  The parser is hardened for
    untrusted network input: it enforces a nesting-depth cap (no stack
    overflow on ["[[[[..."]), rejects trailing garbage, and reports
    errors as [Error msg] instead of raising. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse exactly one JSON value (surrounding whitespace allowed). *)

val to_string : t -> string
(** Compact single-line rendering.  Non-finite numbers are rendered as
    the strings ["nan"], ["inf"], ["-inf"] (matching Diag's JSON). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an object ([None] for absent field or non-object). *)

val to_float : t -> float option
val to_str : t -> string option
