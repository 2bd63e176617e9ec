(** Plan execution on the tape substrate, with per-node budget audits.

    A compiled plan is a tree of segments: one relalg expression plus
    xmlq sub-plans (xfilter/xeq) whose boolean verdicts feed it as
    unary relations. Each segment runs on its own [Tape.Group]
    (relalg and the stream filters create their own); [obs] observes
    every group, so one [Obs.Ledger.Recorder] folds the whole run.
    Every relalg operator's exclusive scan delta is audited against
    [Obs.Audit.relalg_node_spec]; every document builtin against
    [Obs.Audit.xpath_filter_spec]. *)

type node_audit = { label : string; scans : int; allowed : int; ok : bool }

type outcome = {
  arity : int;
  rows : string list list;  (** sorted, distinct *)
  n : int;  (** total input tuples / stream bytes charged across segments *)
  scans : int;  (** total over all segments *)
  nodes : node_audit list;  (** audit per plan node, execution order *)
  audit_ok : bool;
  segments : int;  (** tape runs: one per relalg segment + one per builtin *)
  plan_nodes : int;
}

val run :
  ?device:Tape.Device.spec ->
  ?obs:Obs.Ledger.Recorder.t ->
  env:Naive.env ->
  Ast.expr ->
  (outcome, string) result
(** Typecheck, compile and run [e] over [env]'s relations; [Error]
    carries the type error, or an [Invalid_argument] message from
    execution. [device] (default {!Tape.Device.Mem})
    backs the tapes. *)
