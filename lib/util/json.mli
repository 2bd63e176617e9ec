(** JSON string escaping, shared by the trace, the checkpoint journal,
    serve STATS/HEALTH and the bench trajectory. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes: the
    double quote and the backslash are backslash-escaped, newline is
    [\n], every other byte below 0x20 is [\u00XX], and all other bytes
    are copied. *)
