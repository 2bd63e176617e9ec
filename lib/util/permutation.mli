(** Permutations of [{1,..,m}] and the sortedness measure of Definition 19.

    The hard instances of the paper (Lemma 21, Lemma 22) are built from a
    permutation [ϕ_m] with small {e sortedness}: the length of the longest
    subsequence of [(ϕ(1),..,ϕ(m))] sorted in either ascending or
    descending order. Remark 20 observes that sorting [1..m]
    lexicographically by reverse binary representation yields
    [sortedness(ϕ_m) ≤ 2·√m − 1] (for [m] a power of two), while every
    permutation has sortedness [Ω(√m)] (Erdős–Szekeres). *)

type t
(** A permutation of [{1,..,m}]; immutable. *)

val of_array : int array -> t
(** [of_array a] interprets [a.(i-1)] as [ϕ(i)], 1-based values.
    @raise Invalid_argument if [a] is not a permutation of [1..m]. *)

val to_array : t -> int array
(** A fresh copy of the underlying 1-based image array. *)

val size : t -> int

val apply : t -> int -> int
(** [apply phi i] is [ϕ(i)] for [1 ≤ i ≤ size phi].
    @raise Invalid_argument if [i] is out of range. *)

val identity : int -> t

val inverse : t -> t

val compose : t -> t -> t
(** [compose f g] is the permutation [i ↦ f (g i)]. *)

val equal : t -> t -> bool

val random : Random.State.t -> int -> t
(** Uniform random permutation (Fisher–Yates). *)

val reverse_binary : int -> t
(** [reverse_binary m] is the permutation [ϕ_m] of Remark 20 for [m] a
    power of two: [(ϕ(1),..,ϕ(m))] lists [1..m] sorted lexicographically
    by the reverse binary representation of the {e 0-based} index.
    @raise Invalid_argument if [m] is not a positive power of two. *)

val sortedness : t -> int
(** [sortedness phi] per Definition 19: the maximum of the longest
    ascending and longest descending subsequence lengths of
    [(ϕ(1),..,ϕ(m))]. Runs in O(m log m). *)

val longest_increasing : int array -> int
(** Length of the longest strictly increasing subsequence. *)

val longest_decreasing : int array -> int
