(** Instance generators for the three decision problems.

    Yes-instances are built directly from the problem's definition;
    no-instances are built by perturbing a yes-instance and {e verified}
    against the reference decider (resampling on the rare collision), so
    every generated instance carries a guaranteed label. *)

val yes_instance :
  Random.State.t -> Decide.problem -> m:int -> n:int -> Instance.t
(** A random positive instance with [m] strings of length [n] per half. *)

val no_instance :
  Random.State.t -> Decide.problem -> m:int -> n:int -> Instance.t
(** A random negative instance with the same shape. Requires [m ≥ 1] and
    [n ≥ 1].
    @raise Invalid_argument otherwise. *)

val labelled :
  Random.State.t -> Decide.problem -> m:int -> n:int -> Instance.t * bool
(** A fair coin flip between {!yes_instance} and {!no_instance}, with
    its label. Requires [m ≥ 1] and [n ≥ 1]. *)

val set_yes_multiset_no :
  Random.State.t -> m:int -> n:int -> Instance.t
(** An instance whose two halves are equal as sets but not as multisets
    (some element duplicated on one side only) — separates SET-EQUALITY
    from MULTISET-EQUALITY in tests. Requires [m ≥ 3] (no such instance
    exists for [m ≤ 2]) and [2^n > m]. *)

(** Generators over the CHECK-ϕ hard-instance space of Lemmas 21/22:
    [I = I_ϕ(1) × .. × I_ϕ(m) × I_1 × .. × I_m]. *)
module Checkphi : sig
  type space
  (** The product space determined by [(m, n, ϕ)]. *)

  val default_space : m:int -> n:int -> space
  (** The space with [ϕ = reverse_binary m] (Remark 20).
      @raise Invalid_argument unless [m] is a power of two,
      [n ≥ log2 m], and each interval has at least two elements
      ([n > log2 m]). *)

  val phi : space -> Util.Permutation.t
  val intervals : space -> Intervals.t

  val inv_phi : space -> Util.Permutation.t
  (** [ϕ⁻¹], computed once at space construction — sample generation
      and the adversary's resampling step need it per draw. *)

  val member : space -> Instance.t -> bool
  (** Whether the instance lies in the product space [I]. *)

  val yes : Random.State.t -> space -> Instance.t
  (** Uniform over the yes-instances
      [(v_1,..,v_m) = (v'_ϕ(1),..,v'_ϕ(m))] of the space. *)

  val no : Random.State.t -> space -> Instance.t
  (** A member of [I] violating the CHECK-ϕ condition (one [v'_j]
      resampled within its interval to a different value). *)

  val is_yes : space -> Instance.t -> bool
  (** Reference CHECK-ϕ decision. *)
end
