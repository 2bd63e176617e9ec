(** Skeletons of list-machine runs (Definitions 27, 28, 33).

    The skeleton of a run replaces every input value by its input
    {e position} and every nondeterministic choice by a wildcard; between
    head movements, local views are collapsed to ["?"]. Skeletons are the
    counting device of the lower bound: Lemma 32 bounds how many exist,
    Definition 33 reads off which input positions were ever {e compared}
    (co-occurred in the cells under the heads at some step), and the
    composition lemma swaps values at uncompared positions.

    Views keep the machine's DAG cells; the choice-wildcarding of
    Definition 28 lives in the comparison functions ({!equal} and the
    cell sk-hashes are choice-blind) rather than in a rewritten copy of
    every cell, so {!equal}, {!hash} and {!digest} never pay the flat
    cell expansion. The census keys on {!hash} / {!Intern} ids. *)

type entry =
  | View of { state : int; dirs : int array; cells : Nlm.cell array }
      (** [skel(lv(γ))] = state, head directions, the cells under the
          heads (choices wildcarded at comparison time) *)
  | Collapsed  (** the ["?"] entries for movement-free steps *)

type t = { entries : entry array; moves : int array array; hash : int }
(** [hash] is the deterministic choice-blind content hash (equal
    skeletons hash equal; stable across runs, processes and domains). *)

val of_trace : Nlm.trace -> t
(** [skel(ρ)] per Definition 28: entry 0 is always a [View]; entry
    [i+1] is a [View] iff step [i+1] moved some head to another cell. *)

val of_views : Nlm.view_trace -> t
(** [skel(ρ)] from an allocation-light {!Nlm.run_view} run. Equal (per
    {!equal}, and in {!hash}) to [of_trace] of the corresponding full
    run. Takes ownership of the view/move arrays — do not mutate them
    after this call. *)

val equal : t -> t -> bool
(** Structural choice-blind equality. Hash mismatch rejects in O(1);
    the structural descent memoizes cell pairs, so it is linear in the
    DAG size, never in the flattened expansion. *)

val hash : t -> int

val digest : t -> int64
(** A 64-bit structural content digest: FNV-1a over the same
    choice-blind stream {!hash} folds (states, head directions, cell
    hashes, moves), costing O(entries × heads). Equal skeletons digest
    equal; distinct classes collide only if the rolling cell hashes
    collide under two independent mixers. This is the cross-process
    class identity of the sharded census. *)

(** Skeleton interning: the census device of the adversary (proof step
    5). Structurally equal skeletons map to the same small id, so class
    counting keys on ints and each new skeleton is compared only against
    the representatives in its hash bucket. The table holds every
    representative in RAM; a census interns at most
    [yes_samples × choice_trials] skeletons. *)
module Intern : sig
  type table

  val create : unit -> table

  val intern : table -> t -> int * t
  (** [(id, rep)] — ids are dense, assigned in first-intern order, and
      [rep] is the first structurally equal skeleton interned (so
      repeated interning returns a physically shared representative). *)
end

val positions_of_entry : entry -> int list
(** Sorted, deduplicated input positions occurring in a [View];
    [] for [Collapsed]. O(positions) via the cells' memoized sets. *)

val compared : t -> int -> int -> bool
(** Definition 33: positions [i] and [i'] are compared iff they occur
    together in some [View] entry. *)

val compared_pairs : t -> (int * int) list
(** All unordered compared pairs [(i, i')], [i < i']. *)

val phi_compared_count : t -> m:int -> phi:Util.Permutation.t -> int
(** For a machine with [2m] input positions: the number of
    [i ∈ {1..m}] such that positions [i] and [m + ϕ(i)] are compared —
    the quantity Lemma 38 bounds by [t^{2r} · sortedness(ϕ)]. *)

val uncompared_phi_indices : t -> m:int -> phi:Util.Permutation.t -> int list
(** The [i ∈ {1..m}] with [(i, m+ϕ(i))] {e not} compared, ascending —
    the indices available to the adversary (Claim 3 of the Lemma 21
    proof). Like {!phi_compared_count}, one pass over the entries. *)

val monotone_partition_upper : int list -> int
(** A greedy upper bound on the minimal number of monotone (ascending
    or descending) subsequences covering the given sequence — an
    empirical check of the merge lemma (Lemma 37), which promises a
    cover by [t^r] monotone subsequences for any position sequence
    occurring in a configuration. *)

val monotone_partition_exact : ?max_n:int -> int list -> int
(** The exact minimum, by branch-and-bound over chain assignments —
    exponential, guarded by [max_n] (default 16). Used by the test
    suite to validate the greedy bound and to check Lemma 37 tightly on
    small traces.
    @raise Invalid_argument if the sequence is longer than [max_n]. *)

val replays_to :
  machine:'v Nlm.t -> values:'v array -> choices:(int -> int) -> t -> bool
(** Remark 29: a run is fully determined by its skeleton together with
    the input values and the choice sequence. This is the checkable
    direction — re-run the machine and compare the resulting skeleton
    (the adversary relies on it when it replays the witness run on
    resampled inputs). *)

val list_position_sequence : Nlm.config -> int -> int list
(** The input positions occurring on list [τ] (1-based), cell by cell,
    left to right, in order of occurrence inside each cell — the
    sequence the merge lemma speaks about. Flattens each cell. *)
