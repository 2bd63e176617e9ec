(** Arity checking — the language's whole type system. A relation's
    type is its arity; [[]] is the empty unary relation. *)

type env = (string * int) list
(** Relation name → arity. *)

val arity_of : env -> Ast.expr -> (int, string) result
(** The arity of [e], or why [e] is ill-typed. *)
