(** JSONL trace sink — a structured, machine-readable event stream for
    a run of the drivers ([stlb decide|experiment|serve --trace
    FILE]).

    Design constraints, both load-bearing for the test suite:

    - {e Deterministic}: events carry no timestamps, no wall clocks and
      no worker-count-dependent data; field order is fixed by the
      emitter. Two identically seeded runs produce byte-identical
      trace files, for every [-j].
    - {e Main-domain only}: the drivers emit events from the
      sequential experiment loop (per-trial work fans out, but ledgers
      are folded and emitted in trial order on the calling domain), so
      the sink needs no locking.

    Schema: one JSON object per line, always with an ["event"] field.
    The emitters in this tree produce:

    - [{"event":"table","name":"exp1","status":"start"|"done"|"replayed"}]
      — experiment-table lifecycle (from [Harness.Checkpoint.run]);
    - [{"event":"ledger","label":..,"n":..,"scans":..,"reversals":..,
       "internal_peak":..,"tapes":..,"head_moves":..,"reads":..,
       "writes":..,"faults":..,"budget_overruns":..,"retry_attempts":..,
       "pool_chunks":..,"checkpoint_discarded":..}] — one captured
      {!Ledger};
    - [{"event":"audit","spec":..,"n":..,"ok":..,
       "<resource>_measured":..,"<resource>_allowed":..}] — one
      {!Audit} outcome;
    - [{"event":"device","label":..,"kind":..,"resident_bytes":..,
       "io_read_bytes":..,"io_write_bytes":..,"backing_files":..}] —
      one tape group's summed {!Tape.Device.stats} (E18 emits these
      for its external-memory rows; cache geometry and access pattern
      fix the byte counts, so the event is as deterministic as the
      rest of the stream). *)

type t

type value = Util.Json.value =
  | Bool of bool
  | Int of int
  | String of string
  | Raw of string  (** copied as is *)

val open_file : string -> t
(** Open (truncating) a trace file. *)

val of_channel : out_channel -> t
(** Wrap an existing channel; {!close} flushes but does not close it. *)

val emit : t -> event:string -> (string * value) list -> unit
(** Write one line: [{"event":<event>, <fields in order>}]. *)

val close : t -> unit

val emit_ledger : t -> Ledger.t -> unit
val emit_audit : t -> Audit.outcome -> unit

val emit_device : t -> label:string -> kind:string -> Tape.Device.stats -> unit

(** {2 Current-sink plumbing}

    The experiment harness is a call tree, not a value pipeline;
    threading a sink through every table function would churn every
    signature. Instead the drivers install the sink here and the
    harness emits through {!emit_current}, a no-op when no sink is
    installed. Main-domain only, like the sink itself. *)

val set_current : t option -> unit
val current : unit -> t option

val emit_current : event:string -> (string * value) list -> unit
val ledger_current : Ledger.t -> unit
val audit_current : Audit.outcome -> unit
val device_current : label:string -> kind:string -> Tape.Device.stats -> unit

val with_sink : t -> (unit -> 'a) -> 'a
(** Install the sink, run, restore the previous sink, close this one. *)
