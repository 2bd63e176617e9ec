(** Fixed-alphabet bit strings over [{0,1}].

    The paper's decision problems take inputs [v1#...#vm#v'1#...#v'm#]
    where each [v_i] is a string over [{0,1}]. This module provides a
    dedicated representation with the operations the reproduction needs:
    lexicographic order (CHECK-SORT sorts lexicographically in ascending
    order), conversion to/from integer values (the hard instances of
    Lemma 21 identify [{0,1}^n] with [{0,..,2^n - 1}]), and streaming
    access to bits most-significant first (the fingerprint algorithm of
    Theorem 8(a) reads [v_i] bit by bit). *)

type t
(** A bit string; immutable. The empty string is allowed. *)

val of_string : string -> t
(** [of_string s] validates that [s] consists only of ['0'] and ['1'].
    @raise Invalid_argument otherwise. *)

val to_string : t -> string

val length : t -> int

val get : t -> int -> bool
(** [get v i] is bit [i] counted from the most significant (leftmost)
    bit, [true] for ['1'].
    @raise Invalid_argument if [i] is out of bounds. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic order on the raw strings; this is the order
    CHECK-SORT uses. Note that for equal-length strings it coincides
    with numeric order of the binary values. *)

val of_int : width:int -> int -> t
(** [of_int ~width x] is the [width]-bit binary representation of [x],
    most significant bit first, zero padded.
    @raise Invalid_argument if [x < 0] or [x >= 2^width] or [width < 0]
    or [width > 62]. *)

val to_int : t -> int
(** Numeric value of the string read as binary, MSB first.
    @raise Invalid_argument if longer than 62 bits. *)

val zero : width:int -> t
(** The all-zeroes string. *)

val concat : t list -> t

val sub : t -> pos:int -> len:int -> t

val random : Random.State.t -> width:int -> t
(** Uniformly random string in [{0,1}^width]. *)

val random_in_range : Random.State.t -> width:int -> lo:int -> hi:int -> t
(** Uniformly random string whose numeric value lies in [\[lo, hi)].
    Requires [width <= 62].
    @raise Invalid_argument if the range is empty or out of bounds. *)

val fold_bits : (int -> bool -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_bits f v init] folds [f] over the bits MSB-first, passing the
    bit index and value. Used by streaming [mod] computations. *)
