(** External-memory merge sort and the Corollary 7 upper bounds.

    Chen and Yap (Lemma 7 of "Reversal complexity") show sorting is
    possible with [O(log N)] head reversals, [O(1)] internal memory and
    two extra external tapes; Corollary 7 uses this to place
    SET-EQUALITY, MULTISET-EQUALITY and CHECK-SORT in
    [ST(O(log N), O(1), 2)]. This module implements one balanced
    merge sort, two-way by default and [ways]-way on request, on the
    instrumented {!Tape} substrate —
    every reversal is counted by the tapes themselves, and the
    experiment harness verifies the [a·log2 N + b] growth.

    Internal-memory convention: the meter charges one unit per {e item
    register} the algorithm holds (current run heads, counters). Whole
    items are compared under the heads at unit cost, as in the paper's
    model where the machine state compares streams symbol by symbol; no
    unbounded buffering ever happens, so every algorithm here reports
    an O(1) register peak. *)

(** All deciders accept an optional [budget]: running inside a
    [Tape.Group] budget turns every claimed resource bound into an
    {e enforced} one — exceeding it raises [Tape.Budget_exceeded]
    mid-run, which the tests use to demonstrate that O(log N) scans are
    genuinely needed by this implementation.

    All deciders also accept an optional fault plan ([?faults]) and
    retry policy ([?retry]). A plan is attached to the data tapes
    after their preload ({!Faults.attach_string}); {!sort_tape} hands
    it on to the auxiliary tapes it creates, so every tape draws
    injected faults from the plan's deterministic stream for its own
    name. The two options become one policy ({!Faults.policy}): each
    restartable phase (a distribution pass, a merge pass, a comparison
    scan) then runs under [Faults.Retry.run], and a transient I/O fault
    re-runs the phase from scratch, re-seeking the tapes through
    ordinary [move] calls so recovery pays honest reversal costs. A
    [?retry] policy alone (no plan) engages the same combinator for
    faults that originate {e below} the device seam — a storage fault
    plan ({!Faults.Storage}) surfaces checksum failures and I/O errors
    from ordinary reads and writes, and the phases recover
    identically. Without both the retry machinery is skipped entirely
    and behaviour is bit-identical to the pre-fault code.

    Every decider further accepts an optional device spec
    ([?device]): with [Tape.Device.File _] or [Shard _] the data and
    auxiliary tapes spill to backing storage behind a bounded cache —
    the ST model at external N — while all counters, budgets, fault
    hooks and ledgers behave identically to the in-RAM backend (the
    backend-parity property the tests pin down). Spill files are
    scratch: they are deleted when the decider returns. [?codec] on the
    in-place sorts is the cell byte-format the group's device needs,
    and its [max_bytes] must cover every cell the tape holds (the
    auxiliary tapes hold the same cells); the wrappers derive it from
    the items, sizing slots to the largest item's encoding.

    Finally, every decider accepts an optional ledger recorder
    ([?obs]). The recorder observes the decider's private tape group —
    including every auxiliary tape the sort creates — so that after
    the run [Obs.Ledger.Recorder.ledger] yields per-tape head
    movements, reversals, reads and writes for theorem-budget auditing
    ({!Obs.Audit}). The tapes count their own operations either way;
    [?obs] only decides whether a ledger is folded from them. *)

type report = {
  n : int;  (** input size [N] of the instance (or item count for raw sorts) *)
  scans : int;  (** [1 + Σ reversals] over all external tapes *)
  reversals : int;
  register_peak : int;  (** internal-memory meter peak *)
  tapes : int;  (** number of external tapes used *)
  faults : int;  (** injected faults over all tapes (0 without a plan) *)
}

val sort_tape :
  ?retry:Faults.Retry.policy ->
  ?codec:string Tape.Device.Codec.t ->
  ?ways:int ->
  Tape.Group.t -> string Tape.t -> len:int -> unit
(** [sort_tape g t ~len] sorts the first [len] cells of [t]
    (lexicographically ascending, the CHECK-SORT order) in place with a
    balanced [ways]-way merge sort (default [2]): [ways] auxiliary
    tapes [<name>-aux1 .. <name>-aux<ways>] registered in [g],
    [⌈log_ways len⌉] distribute-and-merge passes, [2 + 2·ways] item
    registers. Each merge step takes a lone live stream unread;
    otherwise it reads every live head once, last stream first, and
    the smallest wins (ties to the lower stream), then re-reads the
    winner to write it. Cells move through {!Tape.register}s, one per
    stream: on unhooked file tapes they stay in their stored bytes and
    compare bytewise, so the passes decode and encode nothing, and a
    winner's re-read is charged without touching the device. The head
    is left at position 0. Each auxiliary tape gets [t]'s injection
    maker ({!Tape.injection}), applied to its own name, so a fault plan
    or a recording hook installed on [t] reaches every tape of the
    sort. With [?retry] each pass runs under that retry policy
    ({!Faults.phase}).

    The ablation experiment (E14) measures the [ways] trade-off: more
    tapes per pass but logarithmically fewer passes, the classic
    tape-sorting design choice. The model charges nothing extra for
    tapes (t is a constant parameter), so larger [ways] strictly
    reduces scans until the per-pass constant dominates.
    @raise Invalid_argument if [ways < 2]. *)

val sort :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  ?ways:int ->
  string list -> string list * report
(** Convenience wrapper: sort a list of items through {!sort_tape}
    (with the given [?ways]) and report the measured resources. *)

val check_sort :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Instance.t -> bool * report
(** Corollary 7 algorithm for CHECK-SORT: sort the first half, then a
    single parallel scan against the second half. *)

val multiset_equality :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Instance.t -> bool * report
(** Sort both halves, compare pointwise. *)

val set_equality :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Instance.t -> bool * report
(** Sort both halves, then {!same_set}. *)

val same_set : string Tape.t -> nx:int -> string Tape.t -> ny:int -> bool
(** [same_set tx ~nx ty ~ny]: do the sorted cells [0 .. nx-1] of [tx]
    and [0 .. ny-1] of [ty] hold the same set of items? One comparison
    scan with on-the-fly duplicate elimination (one carried item per
    stream, held in a {!Tape.register}, so on an unhooked byte-device
    tape no cell is decoded). Each step reads [ty] before [tx]. The
    scan behind {!set_equality} and the Theorem 12 XQuery of
    [Xmlq.Stream_filter]. *)

val decide :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Decide.problem -> Problems.Instance.t ->
  bool * report
(** Dispatch on the problem. *)

val disjoint :
  ?budget:Tape.Group.budget ->
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Instance.t -> bool * report
(** The DISJOINT-SETS problem (the paper's Section 9 open case): sort
    both halves, one merge scan looking for a common element. The same
    [O(log N)] scans / O(1) registers envelope as the Corollary 7
    deciders — the open question is only whether [o(log N)] is
    impossible, not whether [O(log N)] suffices. *)

val theoretical_scan_bound : n:int -> int
(** A closed-form bound [8·⌈log2 max(n,2)⌉ + 16] on the scans a
    {e single} tape sort (and the one-sort decider {!check_sort}) uses
    on instances of size [n]; the test suite asserts the measured
    scans never exceed it. The two-sort deciders ({!multiset_equality},
    {!set_equality}, {!disjoint}) stay within three times this bound —
    the allowance [Obs.Audit.mergesort_spec] grants. *)
