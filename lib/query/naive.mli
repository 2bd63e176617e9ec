(** Reference evaluator: direct in-memory semantics over sorted
    deduplicated row lists. Deliberately shares no code with the
    compiler or relalg — it is the independent oracle the differential
    fuzzer trusts. *)

type value = string list list
(** Sorted, distinct rows, each as long as the relation's arity. *)

type env = (string * (int * value)) list
(** Relation name → arity and rows. *)

val eval : env -> Ast.expr -> int * value
(** Arity and rows of [e]. Callers typecheck first.
    @raise Invalid_argument on an ill-typed [e]. *)
