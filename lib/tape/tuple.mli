(** Order-preserving, self-delimiting tuple encoding (FoundationDB
    tuple-layer style) — the cell format of the byte-backed tape
    devices.

    - {b order preservation}: [String.compare (pack a) (pack b)] agrees
      with the value order on tuples (strings below ints, each in its
      natural order, shorter tuples below their extensions) — a tested
      property, so stored cells compare bytewise like their values;
    - {b self-delimitation}: each element carries its own end (strings
      are 0x00-terminated with 0x00 inside escaped as 0x00 0xFF; ints
      carry their byte count in the type code), so {!unpack} cuts a
      packed tuple back into its elements without an index.

    Elements are written and read {e in place}: [write_* buf pos v]
    writes at [pos] and returns the offset just past the encoding;
    [*_value buf pos limit] returns the value, never looking at bytes
    at or past [limit]. *)

type elt =
  | Int of int  (** code byte [0x14 ± k], [k] big-endian payload bytes *)
  | Str of string  (** code byte [0x02], terminator-escaped, 0x00-ended *)

exception Malformed of string
(** Raised by the readers on bytes that are not a valid encoding
    (wrong or unknown type code, truncated or unterminated element). *)

val str_size : string -> int
(** Bytes {!write_str} writes: 2 plus the length plus one per 0x00. *)

val write_str : Bytes.t -> int -> string -> int
(** A string with no 0x00 byte is one [Bytes.blit_string]. *)

val str_value : Bytes.t -> int -> int -> string
(** A string with no escaped 0x00 is one [Bytes.sub_string].
    @raise Malformed *)

val int_size : int -> int
(** Bytes {!write_int} writes: 1 for zero, else 1 plus the big-endian
    byte count of the magnitude (at most 9). *)

val write_int : Bytes.t -> int -> int -> int

val int_value : Bytes.t -> int -> int -> int
(** Allocates nothing. @raise Malformed *)

val pack : elt list -> string

val unpack : string -> elt list
(** Inverse of {!pack}. @raise Malformed on invalid input. *)
