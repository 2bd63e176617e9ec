(** A small DSL for constructing Turing machines.

    Transition tables written by hand are dominated by boilerplate: most
    steps read "any symbol" on most tapes and write back what they read.
    The builder expands two wildcard conventions against a declared
    alphabet:

    - in [reads], the character ['?'] matches every alphabet symbol
      (one concrete transition is emitted per match);
    - in [writes], the character ['?'] writes back the symbol that was
      read on that tape in the same step.

    Declared states receive indices in declaration order; the first
    declared state is the start state. *)

type b

val make : name:string -> ext:int -> int_:int -> ?blank:char -> alphabet:string -> unit -> b
(** [alphabet] lists the non-blank symbols; the blank (default ['_'])
    is always part of the wildcard expansion. *)

val state : b -> ?final:bool -> ?accepting:bool -> string -> int
(** Declare a state and return its index.
    @raise Invalid_argument on duplicate names or [accepting] without
    [final]. *)

val on' :
  b -> from:int -> reads:string -> to_:int -> writes:string ->
  moves:Machine.move list -> unit
(** Add transitions for every wildcard expansion of [reads]. Several
    [on'] entries from the same [(state, reads)] make the machine
    nondeterministic there, numbered in declaration order. *)

val build : b -> Machine.t
(** Finalize. @raise Invalid_argument if no state was declared or the
    underlying machine fails validation. *)
