(** JSON output, shared by the trace, the checkpoint journal, serve
    STATS/HEALTH and the bench trajectory. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes: the
    double quote and the backslash are backslash-escaped, newline is
    [\n], every other byte below 0x20 is [\u00XX], and all other bytes
    are copied. *)

type value =
  | Bool of bool
  | Int of int
  | String of string  (** escaped and quoted *)
  | Raw of string  (** copied as is: a nested object, say *)

val obj : (string * value) list -> string
(** One single-line object, [{"k":v,...}], with the fields in the
    given order and no whitespace. *)
