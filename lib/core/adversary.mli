(** The executable Lemma 21 adversary.

    Lemma 21 proves that {e no} small list machine solves CHECK-ϕ with
    one-sided error. The proof is constructive: given any machine that
    accepts at least half the yes-instances, it manufactures a
    {e fooling input} — a no-instance the machine accepts. This module
    runs exactly that pipeline (the numbered steps of Section 7)
    against a concrete machine:

    + fix a choice sequence [c] accepting many yes-instances
      (Lemma 26);
    + census the skeletons of the accepting runs; keep the most popular
      class [ζ] (proof step 5);
    + find an [i0] whose pair [(i0, m+ϕ(i0))] is never compared in [ζ]
      (Claim 3, via Lemma 38);
    + find two class members [v ≠ w] that differ only in the value at
      [i0] (proof steps 7–8; we both look within the sample and
      actively resample the [i0] value);
    + compose the halves (composition lemma, Lemma 34) into
      [u = (x-half of v, y-half of w)] and run the machine on it.

    The pipeline succeeds — exhibits a wrong accept — whenever the
    machine's comparison coverage leaves some ϕ-pair unobserved, which
    Lemma 38 forces in the sublogarithmic-reversal regime. On machines
    with full coverage (e.g. the complete staircase verifier) it
    reports soundness evidence instead.

    {2 Scaling levers}

    Two independent levers push the census to m=64/128, both keeping
    the verdict bit-identical to the naive pipeline:

    - {e canonical-form reduction} ({!canonicalize}): machine runs are
      memoized modulo the value-renaming symmetry the machines cannot
      observe, so each equivalence class of inputs is run once;
    - {e process-level sharding} ({!Shard}): the sample space splits by
      index residue into [k] shards whose evidence files fold back into
      the exact single-process verdict, with a mergeable fingerprint. *)

type outcome =
  | Fooled of {
      input : Problems.Instance.t;  (** a CHECK-ϕ {e no}-instance *)
      i0 : int;  (** the uncompared index used *)
      skeleton_classes : int;  (** census size under the fixed [c] *)
      yes_acceptance : float;  (** fraction of sampled yes accepted under [c] *)
      choice_seed : int;  (** seed regenerating the fixed choice sequence [c] *)
    }
  | Not_fooled of {
      reason : string;
      yes_acceptance : float;
      skeleton_classes : int;
    }
  | Contract_violated of {
      yes_acceptance : float;
          (** the machine is not a (1/2,0)-solver to begin with: it
              accepted fewer than half the sampled yes-instances under
              every tried choice sequence *)
    }

val canonical_key : Problems.Instance.t -> string
(** The dense rank pattern of the instance's [2m] values (ties
    included), rendered as a string — equal keys iff some value
    renaming consistent with [Bitstring.compare] maps one instance onto
    the other. The machines this module targets observe values only
    through equality tests and skeleton cells store positions, so runs
    on same-key instances have identical acceptance and skeletons. *)

val canonicalize : Problems.Instance.t -> Problems.Instance.t
(** The orbit representative: each value replaced by its dense rank,
    encoded in the minimal common width. Idempotent, and
    [canonical_key (canonicalize x) = canonical_key x]. The result
    generally leaves the CHECK-ϕ space — it is a {e run} surrogate, fed
    to the machine in place of the original, never a sample. *)

type census = {
  outcome : outcome;
  fingerprint : int64;
      (** FNV-1a 64 over a canonical rendering of the verdict + census
          summary; bit-identical across worker counts, [~canon] on/off
          and shard partitionings *)
  chosen_seed : int;  (** the winning choice seed (Lemma 26) *)
  hits : int;  (** accepted yes-samples under [chosen_seed] *)
  samples : int;  (** total yes-samples drawn *)
  classes : int;  (** census size under [chosen_seed] *)
  canonical_hits : int;  (** machine runs saved by canonical memoization *)
  machine_runs : int;  (** machine runs actually executed *)
  shards_merged : int;  (** 1 for a direct {!attack_census} *)
}

(** Sharded censusing: [collect] runs the sample sweeps for one residue
    class of the sample indices and packages what the merge needs —
    per-trial accept verdicts with interned class ids, plus one
    structural digest per class ({!Listmachine.Skeleton.digest} is
    equal on equal skeletons and O(skeleton), so digests are the
    cross-process class identity). [merge] folds [k] such evidences
    into the exact verdict the unsharded pipeline computes: it replays
    the Lemma 26 seed selection and the census in global sample order,
    regenerates the sample instances from the root seed, and performs
    the resample/compose machine runs itself. *)
module Shard : sig
  type cls = {
    digest : int64;  (** [Skeleton.digest] of the class representative *)
    uncompared : int list;  (** its uncompared ϕ-indices (Claim 3) *)
  }

  type evidence = {
    root : int;
    m : int;
    n : int;
    machine_name : string;
    yes_samples : int;
    choice_trials : int;
    resample_tries : int;
    fuel : int;
    canon : bool;
    shard : int;  (** 1-based shard index *)
    shards : int;  (** total shard count [k] *)
    trial_seeds : int array;  (** the candidate choice seeds, in trial order *)
    accepted : (int * int) array array;
        (** per trial: [(sample index, class id)] for each accepted
            owned sample, in sample-index order *)
    classes : cls array;  (** indexed by the shard-local class id *)
    canonical_hits : int;
    machine_runs : int;
  }

  val to_string : evidence -> string
  (** A printable, versioned, line-oriented rendering (class digests
      as 16-digit hex); [of_string] inverts it exactly. *)

  val of_string : string -> evidence
  (** @raise Failure on malformed input. *)

  val fingerprint : evidence -> int64
  (** FNV-1a 64 of {!to_string} — the per-shard summary fingerprint. *)

  val collect :
    ?pool:Parallel.Pool.t ->
    ?canon:bool ->
    root:int ->
    space:Problems.Generators.Checkphi.space ->
    machine:Util.Bitstring.t Listmachine.Nlm.t ->
    shard:int ->
    of_:int ->
    unit ->
    evidence
  (** Sweep the sample indices [i] with [i mod k = shard-1] (shards are
      1-based, [of_] is [k]) under every candidate choice seed. Each
      sample's draws are keyed on its global index, so sharding
      repartitions work without re-randomizing anything.
      @raise Invalid_argument unless [1 <= shard <= of_]. *)

  val merge :
    space:Problems.Generators.Checkphi.space ->
    machine:Util.Bitstring.t Listmachine.Nlm.t ->
    evidence list ->
    census
  (** Fold a complete shard set (any order) into the single-process
      verdict. [space]/[machine] must be the ones the shards ran
      against (checked against the evidence headers), and every header
      must carry the census sizes {!Shard.collect} writes (48 samples,
      8 trials, 32 resample tries, the machine's fuel).
      @raise Failure on an incomplete, duplicated or inconsistent set.
      @raise Invalid_argument if [space]/[machine] mismatch the set. *)
end

val attack_census :
  ?pool:Parallel.Pool.t ->
  ?seed:int ->
  ?canon:bool ->
  Random.State.t ->
  space:Problems.Generators.Checkphi.space ->
  machine:Util.Bitstring.t Listmachine.Nlm.t ->
  unit ->
  census
(** The full pipeline with its census summary:
    [Shard.merge] of a single [Shard.collect ~shard:1 ~of_:1] — the
    sharded and unsharded paths are literally the same code. *)

val attack :
  ?pool:Parallel.Pool.t ->
  ?seed:int ->
  ?canon:bool ->
  Random.State.t ->
  space:Problems.Generators.Checkphi.space ->
  machine:Util.Bitstring.t Listmachine.Nlm.t ->
  unit ->
  outcome
(** Run the pipeline. 48 yes-instances are drawn from the space; 8
    candidate choice sequences are tried (1 for a deterministic
    machine); at most 32 resamples are tried in the active search of
    step 4.

    Determinism: every random draw (samples, candidate choice seeds,
    resampling) comes from a splitmix64 stream keyed on a root seed and
    a fixed stream index, so the outcome is a function of the root seed
    alone. The root is [seed] when given; otherwise one [full_int] is
    pulled from [st] — the only use of [st]. Machine replays (the merged
    Lemma 26 scoring / census sweep) are pure and fan out over [pool]
    (default {!Parallel.Pool.default}); results are folded in sample
    order, so the outcome is bit-identical for every worker count.

    [canon] (default [true]) memoizes machine runs modulo the
    value-renaming symmetry — sound for machines that observe input
    values only through equality tests (every machine in this tree;
    skeleton cells store positions, not values). Pass [~canon:false]
    for a machine that inspects value content; it changes no outcome
    bit.

    Each machine run gets [max 200_000 (2 * state_count)] steps — a
    scripted machine visits one state per step, so the budget always
    covers the script (the m = 128 staircase alone plans past 200k
    steps). *)

val verify_fooled : space:Problems.Generators.Checkphi.space ->
  machine:Util.Bitstring.t Listmachine.Nlm.t -> outcome -> bool
(** Independent re-validation of a [Fooled] outcome: the input really
    is a no-instance of CHECK-ϕ in the space, and some run of the
    machine accepts it (so [Pr(accept) > 0], contradicting the
    one-sided-error contract). [false] for other outcomes. *)
