(** The cost ledger: everything one run of a tape algorithm consumed,
    in the currencies the paper's theorems are priced in.

    A {!Recorder} is attached to the [Tape.Group]s an algorithm runs on
    (the deciders take an optional [?obs] recorder and attach it
    themselves) and snapshots the process-wide {!Counters} at creation.
    Every tape counts its own reversals, cells, head moves, reads,
    writes and faults, and a group reports all its member tapes —
    current and future, so internally created auxiliary tapes are
    covered. {!Recorder.ledger} folds those group reports and the
    counter deltas into one immutable {!t}. Nothing is installed on the
    tapes: the ledger reads their counters, not their operations.

    Determinism: a ledger captured around a single-domain run depends
    only on the run itself. Ledgers captured around pool fan-outs see
    chunk counts, which are a function of the trial count, never the
    worker count — so ledgers are bit-identical for [-j 1/2/4], a
    property the test suite pins. A recorder is not itself thread-safe:
    attach it to groups running on one domain (give each parallel trial
    its own recorder). *)

type tape_stats = Tape.Group.tape_stats = {
  tape : string;  (** tape name *)
  reversals : int;
  cells : int;  (** cells used (high-water position + 1) *)
  head_moves : int;
  reads : int;
  writes : int;
  faults : int;  (** injected faults *)
}

type t = {
  label : string;
  n : int;  (** input size [N] the run was charged for (0 if unknown) *)
  scans : int;  (** [1 + Σ reversals] — the paper's [r(N)] usage *)
  reversals : int;
  internal_peak : int;  (** meter high-water mark — the [s(N)] usage *)
  faults_injected : int;
  tapes : tape_stats list;  (** registration order *)
  counters : Counters.snapshot;
      (** pool/retry/checkpoint activity since the recorder was made *)
}

val tape_count : t -> int
val head_moves : t -> int
(** Total over all tapes. *)

val reads : t -> int
val writes : t -> int

val pp : Format.formatter -> t -> unit

module Recorder : sig
  type ledger := t
  type t

  val create : ?label:string -> unit -> t
  (** A fresh recorder; snapshots {!Counters} now. *)

  val observe : t -> Tape.Group.t -> unit
  (** Record the group: every member tape, current and future, appears
      in the ledger with its own counters (since the tape's creation).
      Groups are folded into the ledger in [observe] order. *)

  val ledger : ?n:int -> t -> ledger
  (** Capture the ledger now. [n] records the input size for budget
      auditing (default 0). Can be called repeatedly; each call
      re-reads the live groups and counters. *)

  val device_stats : t -> Tape.Device.stats
  (** Summed {!Tape.Group.device_stats} over every observed group —
      backing I/O bytes and cache residency. I/O counters survive the
      tapes' [close], so this can be read after a decider returns.
      Deliberately not part of {!ledger}: the trace schema (and its
      pinned goldens) is unchanged; E18 emits these separately through
      [Trace.device_current]. *)
end
