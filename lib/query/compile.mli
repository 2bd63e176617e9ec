(** Lowering: query AST → relalg plans, with the two document builtins
    (xfilter/xeq) split off as xmlq sub-plans whose boolean results
    re-enter the enclosing relalg expression as unary relations.

    Canonical schemas: every compiled (sub)expression produces columns
    c1..ck, so set operations line up by construction. Internal
    attribute names (l*/r* for composition, g<i>_<j> for comprehension
    generators, h<j> for constant head legs) can never collide with
    canonical names or each other. Fresh relation names start with '%',
    which the surface language cannot spell. *)

type plan = {
  rexpr : Relalg.expr;
  lits : (string * Relalg.relation) list;
      (** literal relations this segment needs *)
  subs : (string * sub) list;
      (** xmlq sub-plans feeding this segment, in order *)
  arity : int;
}

and sub = Sfilter of plan * plan | Sxeq of plan * plan

val swap_compose : bool ref
(** Fault-injection switch for the differential fuzzer's negative
    control: when set, composition compiles with its operands swapped
    — a classic silent planner bug the naive evaluator must catch.
    Never set outside tests and E21. *)

val cols : int -> string list
(** The canonical column names [c1 .. ck]. *)

val compile : Typecheck.env -> Ast.expr -> (plan, string) result
(** [Error] carries the type error. *)

val plan_nodes : plan -> int
(** Relalg operator nodes over the whole plan tree, plus one per
    builtin — what the REPL reports and E21 tabulates. *)
