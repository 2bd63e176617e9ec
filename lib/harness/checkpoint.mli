(** Checkpoint/resume for the experiment harness.

    One journal file per experiment table, holding the table's entire
    stdout plus a CRC-32 of it. {!run} replays a journaled table
    verbatim — a resumed run is byte-identical to an uninterrupted one
    by construction — and computes, prints and stores a missing one.
    Entries are written atomically (tmp + rename) only after a table
    completes, so a run killed mid-table recomputes exactly that table;
    an entry that fails to parse or whose checksum disagrees with its
    payload is discarded with a warning on stderr and recomputed.
    Every store, replay and discard is counted in [Obs.Counters]
    ([checkpoint_stored], [checkpoint_replayed],
    [checkpoint_discarded]), so a resumed run whose journal rotted
    shows a nonzero discard count rather than quietly recomputing. *)

type t

val open_dir : string -> t
(** Open (creating as needed, like [mkdir -p]) a checkpoint directory.
    @raise Invalid_argument if the path exists and is not a directory. *)

val run : t option -> name:string -> (unit -> unit) -> unit
(** [run (Some t) ~name f]: if [name] has a valid journal entry, print
    its stored output and skip [f]; otherwise run [f] with stdout
    captured (at the fd level, so the text is exactly what a terminal
    would have seen), re-emit the capture, and journal it. If [f]
    raises, its partial output is re-emitted, nothing is stored, and
    the exception propagates. [run None ~name f] is just [f ()].

    Either way, [run] emits ["table"] events ([status] one of
    ["start"], ["done"], ["replayed"]) on the current {!Obs.Trace}
    sink, if one is installed. *)

val store : t -> name:string -> output:string -> unit
(** Journal [output] under [name] (atomic tmp + rename). *)

val lookup : t -> name:string -> string option
(** The stored output for [name], or [None] (with a stderr warning and
    the file removed) if the entry is missing, unparsable or fails its
    checksum. *)
