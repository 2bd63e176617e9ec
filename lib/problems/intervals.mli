(** The interval partition of [{0,1}^n] used by the hard instances.

    Lemma 21 identifies [I = {0,1}^n] with [{0,..,2^n − 1}] and divides
    it into [m] consecutive intervals [I_1,..,I_m], each of length
    [2^n / m]. For [m] a power of two this is equivalent to: [v ∈ I_j]
    iff the top [log2 m] bits of [v] encode [j − 1]. That formulation
    works for any [n ≥ log2 m], including the [n = m³] regime of
    Lemma 22 where values far exceed native integers. *)

type t
(** The partition determined by [(m, n)]. *)

val make : m:int -> n:int -> t
(** @raise Invalid_argument unless [m] is a positive power of two and
    [n ≥ log2 m]. *)

val n : t -> int
val log2m : t -> int

val index_of : t -> Util.Bitstring.t -> int
(** [index_of p v] is the [j ∈ {1,..,m}] with [v ∈ I_j].
    @raise Invalid_argument if [length v ≠ n]. *)

val mem : t -> int -> Util.Bitstring.t -> bool
(** [mem p j v] iff [v ∈ I_j]. *)

val random_element : Random.State.t -> t -> int -> Util.Bitstring.t
(** [random_element st p j] is uniform over [I_j]: top bits fixed to
    [j − 1], remaining [n − log2 m] bits uniform.
    @raise Invalid_argument if [j ∉ {1,..,m}]. *)

val min_element : t -> int -> Util.Bitstring.t
(** The smallest string of [I_j]. *)
