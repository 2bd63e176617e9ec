(** Relational algebra over tuple streams (Theorem 11).

    Theorem 11(a): every relational algebra query can be evaluated over
    a stream of the input relations' tuples with [O(log N)] head
    reversals and constant internal memory — each operator is a
    constant number of scans and sorting steps. Theorem 11(b): the
    query [Q' = (R1 − R2) ∪ (R2 − R1)] cannot be evaluated with
    [o(log N)] reversals (its result is empty iff [R1 = R2], i.e. it
    decides SET-EQUALITY).

    This module provides the algebra (set semantics), a reference
    in-memory evaluator, and a {e streaming} evaluator whose primitive
    operations — selection/projection scans, sort-based
    union/difference/intersection, doubling-based products — run on the
    instrumented {!Tape} substrate, so the measured scan count of any
    fixed query is [O(log N)]. *)

type tuple = string array

type relation = { schema : string list; tuples : tuple list }

val relation : schema:string list -> tuple list -> relation
(** Validates arity and deduplicates (set semantics).
    @raise Invalid_argument on arity mismatch or duplicate attributes. *)

type operand = Attr of string | Const of string

type pred =
  | Eq of operand * operand
  | Neq of operand * operand
  | Lt of operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type expr =
  | Rel of string
  | Select of pred * expr
  | Project of string list * expr
  | Rename of (string * string) list * expr  (** [(old, new)] pairs *)
  | Union of expr * expr
  | Diff of expr * expr
  | Inter of expr * expr
  | Product of expr * expr
  | Join of string list * expr * expr
      (** [Join (keys, a, b)]: natural join on [keys], which must occur
          in both schemas; the non-key attributes must be disjoint.
          Desugared at evaluation time (once schemas are known) into
          rename–product–select–project, so the streaming evaluator
          keeps its O(log N) scan envelope. *)

val symmetric_difference : string -> string -> expr
(** The Theorem 11(b) query [Q' = (R1 − R2) ∪ (R2 − R1)]. *)

type db = (string * relation) list

val eval : db -> expr -> relation
(** Reference in-memory evaluator.
    @raise Invalid_argument on unknown relations/attributes, schema
    mismatches in set operations, or overlapping product schemas. *)

type report = { n : int; scans : int; registers : int; tapes : int }

val eval_streaming :
  ?device:Tape.Device.spec ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?profile:(string -> int -> unit) ->
  db -> expr -> relation * report
(** Evaluate with every tuple movement going through metered tapes:
    inputs are loaded as streams; each operator materializes its output
    on a fresh tape of the same group. The report's [n] is the total
    number of input tuples.

    [device] selects the backend for every tape of the run (default
    mem); under a byte-backed spec all intermediate tapes use a
    fixed-width tuple codec sized by a static pass over [db] and
    [expr]. [obs] observes the run's tape group, so its ledger covers
    every tape of the run. [profile] receives, for each plan
    node in post-order, its operator label ([input], [select],
    [project], [rename], [union], [diff], [inter], [product], [join])
    and the scans that node spent exclusive of its children — the query
    layer audits each delta against the Theorem 11 per-operator budget.
    All tapes are closed (backing files deleted) before returning. *)

val db_size : db -> int
(** Total number of tuples. *)

val instance_db : Problems.Instance.t -> db
(** The Theorem 11(b) reduction: a SET-EQUALITY instance as two unary
    relations [R1 = {v_i}], [R2 = {v'_i}] over schema [\["v"\]]. *)

val pp_relation : Format.formatter -> relation -> unit
