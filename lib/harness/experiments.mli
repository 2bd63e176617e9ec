(** The reproduction experiments, one per paper target.

    Each function prints one measured table (see EXPERIMENTS.md for the
    index and the recorded expectations):

    - E1: Theorem 8(a) fingerprinting — completeness / error / envelope
    - E2: Claim 1 residue collisions
    - E3: Corollary 7 merge-sort deciders, scans vs N
    - E4: Theorem 6 via the Lemma 21 adversary
    - E5: Remark 20 sortedness of [ϕ_m]
    - E6: Lemmas 30/31 structural bounds on list machine runs
    - E7: Lemma 16 TM → list machine simulation
    - E8: Theorem 11 streaming relational algebra
    - E9: Theorems 12/13 and Figure 1, XML queries
    - E10: Theorem 8(b) certificate verification
    - E11: Corollary 9 separations + the paper's classification table
    - E12: Corollary 10 sorting curve and the Lemma 22 frontier
    - E13: Section 9 open problem — why composition fails for
      DISJOINT-SETS
    - E14: ablation — k-way merge arity vs scans
    - E15: ablation — Claim 1's prime-range size vs collision rate
    - E16: robustness — fault-injection detection rates and transient
      survival under retry (see [lib/faults])
    - E17: audit — measured cost ledgers ([lib/obs]) checked against
      the theorem budgets, plus a deliberately over-budget negative
      control
    - E18: scale — the spill-device backends at N = 10^7
    - E19: recovery — deciders under a seeded below-seam storage-fault
      campaign, plus crash points and scrub
    - E20: serve — the deciders as a long-running service ([stlb
      serve] + [stlb loadgen]): requests/s and p50/p99 latency across
      worker counts and devices, with verdict parity pinned
    - E21: the differential query fuzzer across worker counts and
      devices, plus a planted planner bug it must catch
    - E22: the sharded Lemma 21 census across shard counts

    E18 and E20–E22 end in verdict lines that compare fingerprints or
    model costs across a configuration axis (workers, device, frame
    batching, shard count). Those lines are the repository's
    determinism gate: a table whose verdict disagrees raises
    {!Table_failed} after printing in full, so [stlb experiment] exits
    4 and {!Checkpoint.run} journals nothing. *)

exception Table_failed of string list
(** The verdict lines of a table that disagreed (e.g. ["parity: ...
    MISMATCH"]), trimmed. *)

val agree : 'a list -> bool
(** Every element equal (structurally); [true] on [[]]. *)

val footer : (bool * string) list -> string -> unit
(** [footer verdicts note] prints each verdict's line, then [note], and
    then raises {!Table_failed} with the lines whose flag is [false]. *)

val all : (string * (unit -> unit)) list
(** Every table by name, [("exp1", …)] to [("exp22", …)], in order. *)

val run_all : ?checkpoint:Checkpoint.t -> unit -> unit
(** Print every table, separated by blank lines. With [?checkpoint],
    each table runs under {!Checkpoint.run}: already-journaled tables
    are replayed verbatim and newly computed ones are journaled, so an
    interrupted invocation resumes where it was killed with
    byte-identical output. A {!Table_failed} stops the sweep at the
    failing table, which is not journaled. *)
