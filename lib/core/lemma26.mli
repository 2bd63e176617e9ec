(** Lemma 26, executable: fixing a single choice sequence.

    The lemma: if [Pr(M accepts v) ≥ 1/2] for every [v] in a set [J],
    then some single choice sequence [c] makes the deterministic runs
    [ρ_M(·, c)] accept at least half of [J]. The proof is an averaging
    argument; this module realizes both sides:

    - {!exact_best} enumerates all of [C^ℓ] (for tiny machines) and
      returns the genuinely best sequence with its acceptance count —
      the test suite checks it meets the [|J|/2] floor whenever the
      hypothesis holds;
    - {!sampled_best} (what the adversary uses at scale) draws random
      seeds for a [Util.Hash.choice_mix] sequence and keeps the best.

    Both treat a choice sequence as a function [step → choice] so
    unbounded run lengths need no materialized array. *)

type 'v fixed = {
  choices : int -> int;  (** the fixed sequence [c] *)
  accepted : 'v array list;  (** inputs of [J] whose run [ρ_M(·,c)] accepts *)
  seed : int option;  (** regeneration seed for sampled sequences *)
}

val exact_best :
  ?fuel:int -> ?max_length:int -> 'v Listmachine.Nlm.t -> inputs:'v array list ->
  'v fixed
(** Enumerate every [c ∈ C^ℓ] where [ℓ] is the longest run observed on
    the inputs (capped by [max_length], default 12 — the enumeration is
    [|C|^ℓ]). @raise Invalid_argument if [|C|^ℓ] exceeds 2^20. *)

val sampled_best :
  ?pool:Parallel.Pool.t ->
  Random.State.t -> ?trials:int -> ?fuel:int -> 'v Listmachine.Nlm.t ->
  inputs:'v array list -> 'v fixed
(** Try [trials] (default 16) random sequences, keep the best. For a
    deterministic machine a single trial is exact. When [pool] is given,
    each trial's input sweep fans out over it (runs are pure; the result
    is independent of the worker count). *)

val meets_lemma_floor : 'v fixed -> inputs:'v array list -> bool
(** Whether the fixed sequence accepts at least half of [inputs]. *)
