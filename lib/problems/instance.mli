(** Input instances of the paper's decision problems (Section 3).

    All three problems — SET-EQUALITY, MULTISET-EQUALITY, CHECK-SORT —
    share the instance format

    {v v1# v2# ... vm# v'1# v'2# ... v'm# v}

    over the alphabet [{0,1,#}], where [m ≥ 0] and each [v_i], [v'_i] is
    a bit string. The input size is [N = 2m + Σ (|v_i| + |v'_i|)]; when
    all strings have the same length [n], [N = 2m(n+1)]. *)

type t
(** An instance: the two lists [(v_1..v_m)] and [(v'_1..v'_m)]. *)

val make : Util.Bitstring.t array -> Util.Bitstring.t array -> t
(** [make xs ys].
    @raise Invalid_argument if the arrays have different lengths. *)

val xs : t -> Util.Bitstring.t array
(** The first list [(v_1..v_m)]; fresh copy. *)

val ys : t -> Util.Bitstring.t array
(** The second list [(v'_1..v'_m)]; fresh copy. *)

val x : t -> int -> Util.Bitstring.t
(** [x inst i] is [v_i], 1-based. @raise Invalid_argument out of range. *)

val y : t -> int -> Util.Bitstring.t
(** [y inst i] is [v'_i], 1-based. *)

val m : t -> int
(** Number of strings per half. *)

val size : t -> int
(** The paper's [N = 2m + Σ(|v_i| + |v'_i|)]. *)

val uniform_length : t -> int option
(** [Some n] when all [2m] strings have length [n] (vacuously the common
    length [0] when [m = 0]); [None] otherwise. *)

val encode : t -> string
(** The [{0,1,#}] word [v1#...vm#v'1#...v'm#]. [String.length] of the
    result equals {!size}. *)

val decode : string -> t
(** Inverse of {!encode}.
    @raise Invalid_argument if the word is not well-formed (characters
    outside [{0,1,#}], missing trailing [#], or an odd number of
    strings). *)

val equal : t -> t -> bool
