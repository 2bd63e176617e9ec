(** Differential query fuzzer: seeded splitmix64 generation of
    well-typed random queries, executed both by the naive in-memory
    oracle ({!Naive}) and the compiled tape pipeline ({!Exec}), with
    deterministic shrinking of any disagreement.

    Determinism contract (pinned by the test suite): case [index] of
    stream [seed] depends only on [(seed, index)] — generation draws
    from [Parallel.Rng.state ~seed ~index] and the campaign folds case
    fingerprints in index order, so a campaign's FNV-1a fingerprint is
    bit-identical for any pool size and for mem/file/shard devices
    (backend-blind cost accounting is the E18 property this leans
    on). *)

val gen_case : seed:int -> index:int -> Naive.env * Ast.expr
(** Case [index] of stream [seed]: random base relations r1–r4 and a
    well-typed query over them, sized to stay inside
    [Obs.Audit.relalg_node_spec]. {!run_case} runs it; the test suite
    also draws from it for the parser/printer round-trip law. *)

type discrepancy = {
  d_index : int;
  d_program : string;  (** shrunk, self-contained *)
  d_expected : string;
  d_got : string;
}

type case_result = {
  c_index : int;
  c_ok : bool;
  c_audit_ok : bool;
  c_scans : int;
  c_plan_nodes : int;
  c_fingerprint : int64;
  c_discrepancy : discrepancy option;
}

val run_case :
  ?device:Tape.Device.spec -> seed:int -> index:int -> unit -> case_result
(** Generate case [index] of stream [seed], run it both ways, and
    shrink it if they disagree. *)

type campaign = {
  seed : int;
  iters : int;
  matches : int;
  mismatches : int;
  audit_failures : int;
  total_scans : int;
  total_plan_nodes : int;
  fingerprint : int64;
  discrepancies : discrepancy list;  (** index order *)
}

val run_campaign :
  ?pool:Parallel.Pool.t ->
  ?device:Tape.Device.spec ->
  seed:int ->
  iters:int ->
  unit ->
  campaign
(** Cases [0 .. iters - 1] of stream [seed], fanned out over [pool]. *)

val report : campaign -> string
(** The campaign summary line, then each discrepancy. *)
