(** The repo's non-cryptographic hashes, one copy each.

    Every pinned fingerprint (census, query fuzz, serve loadgen), every
    storage frame checksum and every derived RNG stream goes through
    this module, so the published test vectors in the util tests pin
    them all. *)

(** {1 FNV-1a 64} *)

val fnv_offset : int64
(** The FNV-1a 64 offset basis, [0xcbf29ce484222325]. *)

val fnv_mix : int64 -> int64 -> int64
(** [fnv_mix h w] is one FNV-1a step on a whole word: [(h xor w) * prime]. *)

val fnv_byte : int64 -> int -> int64
(** One FNV-1a step on the low 8 bits of an int. *)

val fnv_int : int64 -> int -> int64
(** Feed the 8 little-endian bytes of an int. *)

val fnv_string : int64 -> string -> int64
(** Feed the bytes of a string, starting from the given hash
    ([fnv_string fnv_offset s] is the standard FNV-1a 64 of [s]). *)

(** {1 CRC-32} *)

val crc32_sub : Bytes.t -> int -> int -> int
(** [crc32_sub buf pos len]: IEEE 802.3 CRC-32 (reflected polynomial
    0xEDB88320, slicing-by-16 over sixteen 256-entry tables) of [len]
    bytes of [buf] from [pos]. Raises [Invalid_argument] unless
    [0 <= pos], [0 <= len] and [pos + len <= Bytes.length buf]. *)

val crc32 : string -> int

(** {1 splitmix64} *)

val golden_gamma : int64
(** The splitmix64 increment, [0x9E3779B97F4A7C15]. *)

val splitmix_at : int64 -> int -> int64
(** [splitmix_at base i]: output [i] of the splitmix64 stream started
    at [base], i.e. the splitmix64 finaliser of
    [base + (i + 1) * golden_gamma]. *)

val seed_words : int64 -> int array
(** The first four outputs of the stream at [base], cut to 62 bits —
    the words a [Random.State.make] seed takes. *)

(** {1 The choice mixer} *)

val choice_mix : seed:int -> int -> int
(** A nonnegative 32-bit-multiplier mix of [(seed, step)]: the
    deterministic choice sequence of a seeded list-machine run (take it
    [mod num_choices]). *)
