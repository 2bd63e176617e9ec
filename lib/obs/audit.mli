(** Machine-checking a finished run's {!Ledger} against the complexity
    class a theorem claims for it — the paper's budgets turned into
    executable assertions.

    A {!spec} declares, per resource, an allowance as a function of the
    input size [N]: a constant ([At_most]) or [a·⌈log2 N⌉ + b]
    ({!Log2}), which covers every class the reproduction exercises —
    [ST(O(log N), O(1), O(1))] for the Corollary 7 merge-sort deciders,
    [co-RST(2, O(log N), 1)] for the Theorem 8(a) fingerprint,
    [NST(3, O(log N), 2)] for the Theorem 8(b) verifier. {!check}
    compares a ledger against a spec and reports every resource, pass
    or fail; {!enforce} raises {!Budget_violated} so an over-budget
    machine fails loudly. *)

type bound =
  | At_most of int  (** measured [≤ k], independent of [N] *)
  | Log2 of { per_log2 : float; offset : float }
      (** measured [≤ per_log2 · ⌈log2 (max N 2)⌉ + offset] *)

type spec = {
  name : string;
  scans : bound option;  (** on [ledger.scans] — the [r(N)] budget *)
  internal : bound option;
      (** on [ledger.internal_peak] — the [s(N)] budget, in the
          algorithm's own meter units (bits or registers) *)
  tapes : bound option;  (** on the number of external tapes — [t] *)
}

type check = {
  resource : string;  (** ["scans"], ["internal"] or ["tapes"] *)
  measured : int;
  allowed : int;
  ok : bool;
}

type outcome = {
  spec_name : string;
  n : int;
  ok : bool;  (** all checks passed *)
  checks : check list;
}

exception Budget_violated of outcome

val allowance : bound -> n:int -> int
(** The numeric budget a bound grants at input size [n]. *)

val check : spec -> Ledger.t -> outcome
(** Audit the ledger (at its recorded [n]) against the spec. A spec
    field of [None] skips that resource. *)

val enforce : spec -> Ledger.t -> unit
(** {!check}, raising {!Budget_violated} unless every resource is
    within budget. *)

(** {2 The paper's envelopes}

    Constants are derived from the implementations (see the .ml for
    the arithmetic); they are {e falsifiable} claims the E17 experiment
    and the test suite check on N spanning [2^8 .. 2^14]. *)

val fingerprint_spec : spec
(** Theorem 8(a): 2 scans (1 reversal), [O(log N)] internal bits
    ([44·⌈log2 N⌉ + 88] — eleven [O(log N)]-bit registers with
    [log2 k ≤ 4·log2 N + O(log log N)]), exactly 1 external tape. *)

val mergesort_spec : spec
(** Corollary 7 deciders: [24·⌈log2 N⌉ + 48] scans — exactly three
    times [Extsort.theoretical_scan_bound]'s single-sort envelope,
    covering the second half-sort and the comparison scan (the test
    suite asserts the 3x relationship) — [O(1)] item registers, at
    most 8 tapes (two halves plus two auxiliaries each). *)

val nst_spec : spec
(** Theorem 8(b) verifier: at most 3 scans, [O(1)] registers, 2
    external tapes. *)

val relalg_node_spec : spec
(** Theorem 11(a), per plan node: each relational-algebra operator of
    a fixed query costs [O(log N)] scans exclusive of its subtrees —
    [64·⌈log2 N⌉ + 96], the constant sized for plans of product depth
    at most 4 (the query layer's bound) whose intermediates reach
    [N^4] cells. Scans only; the whole-plan specs own meter and tape
    counts. The query executor audits every [Relalg.eval_streaming]
    profile delta against this envelope. *)

val relalg_symdiff_spec : spec
(** Theorem 11(b): the full symmetric-difference plan
    [(R1 − R2) ∪ (R2 − R1)] — [80·⌈log2 N⌉ + 200] scans (three
    sort-based set operators at two [8·log2+16] half-sorts plus a
    merge each), at most 24 meter units and 40 tapes. *)

val xpath_filter_spec : spec
(** Theorem 13's upper-bound side: the streaming Figure 1 filter —
    [16·⌈log2 N⌉ + 40] scans (extraction scan, two half-sorts, subset
    test) at stream length [N], 16 meter units, 8 tapes. *)
