(** ASCII table rendering for the experiment harness.

    Every experiment in [bench/main.ml] prints one table; this module
    keeps the formatting uniform (column alignment, header rule, caption
    line referencing the paper's theorem / claim). *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row arity differs from the header. *)

val render : t -> string
(** The full table: title, header, rule, rows; right-pads cells. *)

val print : t -> unit
(** [render] followed by [print_string] and a trailing newline. *)

val fmt_float : ?digits:int -> float -> string
(** Fixed-point rendering, default 3 digits. *)

val fmt_ratio : int -> int -> string
(** [fmt_ratio a b] renders [a/b] as ["a/b (p%)"] ; [b = 0] renders as
    ["0/0 (-)"]. *)
