(** Statement processor behind both [stlb query] (one-shot) and
    [stlb repl] (interactive / batch). Every evaluation runs the
    compiled plan on the tape substrate, audits each node, and
    cross-checks the naive oracle; output is deterministic (no wall
    clocks, no device paths) so batch transcripts can be golden-tested
    byte-for-byte. *)

type t = {
  mutable env : Naive.env;
  mutable device : Tape.Device.spec;
  mutable budget : bool;
      (** enforce audits: violations flip the exit status *)
  mutable trace : Obs.Trace.t option;
  mutable failed : bool;
      (** any error or (under [:budget on]) audit failure *)
  out : Buffer.t -> unit;  (** line sink *)
}

val create : ?device:Tape.Device.spec -> out:(Buffer.t -> unit) -> unit -> t
(** An empty environment with audits enforced and no trace. *)

val close : t -> unit
(** Close the trace sink, if any. *)

val do_program : t -> string -> unit
(** Parse and run a whole program. *)

val drive : t -> echo:bool -> prompt:bool -> In_channel.t -> unit
(** Run every line of a channel, then {!close}. [echo] reproduces the
    input lines in the output (prefixed with the prompt) so a batch
    transcript reads like an interactive session; [prompt] writes the
    prompt eagerly for a human on a tty. *)
