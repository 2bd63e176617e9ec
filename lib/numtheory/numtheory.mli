(** Number theory for the fingerprinting upper bound (Theorem 8(a)).

    The algorithm of Theorem 8(a) needs: a uniformly random prime
    [p1 ≤ k] for [k = m³·n·log(m³·n)]; an arbitrary prime
    [p2 ∈ (3k, 6k]] (Bertrand's postulate); arithmetic modulo [p2]; and
    the residue of a long bit string modulo [p1], computed in one
    streaming pass. All arithmetic stays within OCaml's 63-bit native
    integers: multiplication modulo large moduli uses binary
    (double-and-add) reduction, so moduli up to [2^61] are safe without
    an external bignum dependency. *)

val add_mod : int -> int -> int -> int
(** [add_mod a b m] is [(a + b) mod m] without overflow for
    [0 ≤ a, b < m < 2^61]. *)

val mul_mod : int -> int -> int -> int
(** [mul_mod a b m] is [(a · b) mod m], overflow-safe for [m < 2^61];
    uses direct multiplication when [m < 2^31]. Arguments are reduced
    first. @raise Invalid_argument if [m <= 0]. *)

val pow_mod : int -> int -> int -> int
(** [pow_mod b e m] is [b^e mod m] for [e ≥ 0], overflow-safe.
    @raise Invalid_argument if [e < 0] or [m <= 0]. *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin, correct for all [n < 2^62] (uses the
    standard 12-witness base set valid below 3.3·10^24). *)

val next_prime : int -> int
(** Smallest prime strictly greater than the argument. *)

val primes_upto : int -> int list
(** Sieve of Eratosthenes; intended for tests and small experiments. *)

val random_prime_le : Random.State.t -> int -> int
(** [random_prime_le st k] is a uniformly random prime [p ≤ k]. Up to a
    fixed cache threshold it is an index into a sieve of the primes
    [≤ k], computed once per distinct [k] and memoized (domain-safe):
    one random draw, no Miller–Rabin. Beyond the threshold it is
    rejection sampling over [\[2, k\]].
    @raise Invalid_argument if [k < 2]. *)

val bertrand_prime : int -> int
(** [bertrand_prime k] is the smallest prime in [(3k, 6k]]; its
    existence for [k ≥ 1] is Bertrand's postulate (step (3) of the
    Theorem 8(a) algorithm).
    @raise Invalid_argument if [k < 1]. *)

val random_unit : Random.State.t -> int -> int
(** [random_unit st p] is uniform in [{1,..,p−1}] (step (4)).
    @raise Invalid_argument if [p < 2]. *)

val mod_of_bits : Util.Bitstring.t -> modulus:int -> int
(** [mod_of_bits v ~modulus:p] is the value of [v] (read MSB-first as a
    binary integer) modulo [p], computed by the streaming recurrence
    [e ← (2e + bit) mod p] — one left-to-right scan, O(log p) state, as
    required for step (5) of the Theorem 8(a) algorithm.
    @raise Invalid_argument if [p <= 0]. *)

val fingerprint_k : m:int -> n:int -> int
(** The paper's [k := m³ · n · ⌈log2 (m³ · n)⌉] parameter.
    @raise Invalid_argument if the value would overflow 62 bits. *)
