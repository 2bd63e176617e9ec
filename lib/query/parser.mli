(** Hand-written lexer and recursive-descent parser. Total: every entry
    point returns [Ok _ | Error located] and never raises, whatever the
    input bytes — a property the qcheck suite hammers with arbitrary
    strings. A nesting cap keeps adversarial inputs from overflowing
    the parser's stack. *)

type error = { line : int; col : int; msg : string }
(** Where parsing stopped (1-based line and column) and why. *)

val error_to_string : error -> string

val parse_program : string -> (Ast.program, error) result
(** A [;]-separated sequence of bindings [x = e] and expressions. *)

val parse_expr_string : string -> (Ast.expr, error) result
(** Exactly one expression, with nothing after it. *)
