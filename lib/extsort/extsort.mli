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

(** {!decide} is the one configured entry for the Corollary 7
    deciders: it takes the whole machine, [?budget], [?faults],
    [?retry], [?obs] and [?device], because in the model the resources
    belong to the machine, not to the algorithm.
    - [?budget] runs the decider's private {!Tape.Group} under that
      budget, so a claimed resource bound is {e enforced}: exceeding it
      raises [Tape.Budget_exceeded] mid-run.
    - [?faults] attaches a fault plan to the data tapes after their
      preload ({!Faults.attach_string}); the auxiliary tapes of
      {!sort_tape} inherit it, each drawing from the plan's stream for
      its own name. With a plan or a [?retry] policy
      ({!Faults.policy}), each restartable phase (distribution pass,
      merge pass, comparison scan) runs under [Faults.Retry.run]: a
      transient fault, injected or surfacing from below the device
      seam ({!Faults.Storage}), re-runs the phase, re-seeking through
      ordinary [move] calls so recovery pays honest reversal costs.
      Without both the retry machinery is skipped entirely.
    - [?device] puts the data and auxiliary tapes on a byte backend
      ([Tape.Device.File _] or [Shard _]) behind a bounded cache, with
      every count identical to the in-RAM backend; the spill is
      deleted when the decider returns.
    - [?obs] registers the group, auxiliary tapes included, with a
      ledger recorder for theorem-budget auditing ({!Obs.Audit}).

    {!check_sort}, {!set_equality} and {!disjoint} are unconfigured
    conveniences. {!multiset_equality} keeps [?obs] and [?device]
    because the repository benchmark's driver calls it with them. *)

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
  ?ways:int ->
  Tape.Group.t -> string Tape.t -> len:int -> unit
(** [sort_tape g t ~len] sorts the first [len] cells of [t]
    (lexicographically ascending, the CHECK-SORT order) in place with a
    balanced [ways]-way merge sort (default [2]): [ways] auxiliary
    tapes [<name>-aux1 .. <name>-aux<ways>] created in [g] by
    {!Tape.Group.sibling}, [⌈log_ways len⌉] distribute-and-merge
    passes, [2 + 2·ways] item registers. Each merge step takes a lone live stream unread;
    otherwise it reads every live head once, last stream first, and
    the smallest wins (ties to the lower stream), then re-reads the
    winner to write it. Cells move through {!Tape.register}s, one per
    stream: on unhooked file tapes they stay in their stored bytes and
    compare bytewise, so the passes decode and encode nothing, and a
    winner's re-read is charged without touching the device. The head
    is left at position 0. The auxiliary tapes take [t]'s blank, its
    slot codec (so they are on [g]'s device when [t] is on a byte
    device, with the same slot width) and its injection maker applied
    to their own names, so a fault plan or a recording hook installed
    on [t] reaches every tape of the sort. With [?retry] each pass runs
    under that retry policy ({!Faults.phase}).

    The ablation experiment (E14) measures the [ways] trade-off: more
    tapes per pass but logarithmically fewer passes, the classic
    tape-sorting design choice. The model charges nothing extra for
    tapes (t is a constant parameter), so larger [ways] strictly
    reduces scans until the per-pass constant dominates.
    @raise Invalid_argument if [ways < 2]. *)

val sort :
  ?faults:Faults.Plan.t ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  ?ways:int ->
  string list -> string list * report
(** Convenience wrapper: sort a list of items through {!sort_tape}
    (with the given [?ways]) and report the measured resources.
    [?faults], [?obs] and [?device] act as in {!decide}; the data
    tape's slots are sized to the largest item's encoding. *)

val check_sort : Problems.Instance.t -> bool * report
(** Corollary 7 algorithm for CHECK-SORT: sort the first half, then a
    single parallel scan against the second half. {!decide}
    [Check_sort] unconfigured. *)

val multiset_equality :
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Problems.Instance.t -> bool * report
(** Sort both halves, compare pointwise: {!decide}
    [Multiset_equality] with only [?obs] and [?device]. *)

val set_equality : Problems.Instance.t -> bool * report
(** Sort both halves, then {!same_set}. {!decide} [Set_equality]
    unconfigured. *)

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
(** The configured entry (see above): run the problem's Corollary 7
    decider on the machine the options describe. Every problem loads
    both halves, sorts the first (and the second, except for
    CHECK-SORT) with {!sort_tape} and makes one comparison scan. *)

val disjoint : Problems.Instance.t -> bool * report
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
