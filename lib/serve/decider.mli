(** The decider table: which algorithm decides which problem, under
    which theorem budget.

    Corollary 7's merge sort decides the three core problems, Theorem
    8(a)'s fingerprint decides MULTISET-EQUALITY, and Theorem 8(b)'s NST
    verifier decides the core problems on its accepting branch. The
    query problems go through their reductions: Theorem 11(b)'s
    streaming relational algebra for [Relalg_symdiff], Theorem 13's
    Figure 1 XPath filter for [Xpath_filter]. The reference algorithm
    decides every problem in memory. [stlb serve], [stlb decide] and the
    E17–E19 tables all run their decides through {!run}. *)

exception Unsupported of string
(** The pair has no decider; the message names what the algorithm
    does solve. *)

type cost = {
  scans : int;
  internal : int;  (** meter peak: bits (fingerprint) or registers *)
  tapes : int;
}

type t = {
  verdict : bool;
  cost : cost option;
      (** [None] for a reference run, and for an NST run with no
          witness (every branch rejects, so the verifier never ran) *)
  spec : Obs.Audit.spec option;
      (** the budget the run is audited against; [None] exactly for
          reference runs *)
  drawn : Fingerprint.params option;
      (** what the fingerprint drew (primes, point); [None] otherwise *)
}

val run :
  ?budget:Tape.Group.budget ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Random.State.t -> Frame.problem -> Frame.algorithm -> Problems.Instance.t -> t
(** Decide [inst]. Only the fingerprint draws from the state. [budget]
    applies to the core sort decider only; [device] to the core sort
    decider, the fingerprint and the relational-algebra evaluator;
    [retry] to the core sort decider and the fingerprint. [obs]
    observes every tape the run creates. Tape, device and retry
    exceptions propagate.
    @raise Unsupported for the fingerprint off MULTISET-EQUALITY and
    the fingerprint or NST on a query problem. *)

val audit :
  Obs.Ledger.Recorder.t -> Problems.Instance.t -> Obs.Audit.spec ->
  Obs.Ledger.t * Obs.Audit.outcome
(** The recorder's ledger, charged at [Problems.Instance.size inst], and
    its check against [spec]. *)
