(** Canonical printer. The parser/printer pair is a law the test suite
    pins: [parse_expr (expr e) = Ok e] for every well-formed AST the
    fuzzer generates. Minimal parentheses: sum ops (+ - &) are one
    left-associative level, composition (o) binds tighter, everything
    else is atomic. *)

val expr : Ast.expr -> string

val rows : string list list -> string
(** A result relation, printed as a re-parseable literal in sorted row
    order — what the REPL echoes and what discrepancy reports embed. *)
