(** Instrumented external-memory tapes — the cost model of the paper.

    The ST(r,s,t) model (Definitions 1 and 2) charges two resources:

    - [r(N)]: one plus the total number of head-direction changes
      ({e reversals}) over all [t] external-memory tapes, i.e. the number
      of sequential scans;
    - [s(N)]: the total space used on the internal-memory tapes.

    This module provides one-sided-infinite tapes whose heads track their
    direction and count reversals, an internal-memory {!Meter}, and a
    {!Group} that aggregates both against an optional budget so that an
    algorithm implemented on this substrate is {e resource-sound by
    construction}: its reported scan count and internal-memory peak are
    measured, not claimed.

    Cell storage is pluggable: a tape's cells live on a {!Device} —
    RAM (the default), a block-cached flat file, or a sharded run
    directory — while all accounting stays up here, so the measured
    numbers are backend-independent by construction. *)

module Tuple = Tuple
(** Order-preserving, self-delimiting cell encoding — see {!Tuple}. *)

module Device = Device
(** Pluggable cell-storage backends — see {!Device}. *)

type direction = Left | Right

type 'a t
(** A one-sided-infinite tape with cells holding values of type ['a]
    (blank-initialized), a read/write head, and reversal accounting.
    Cell positions are 0-based; the head starts at position 0 moving
    {!Right}. *)

exception Budget_exceeded of string
(** Raised by any movement or allocation that would exceed the enclosing
    {!Group}'s budget. The payload describes the violated resource. *)

val create : ?name:string -> ?device:'a Device.t -> blank:'a -> unit -> 'a t
(** An empty tape. [name] appears in reports and error messages.
    [device] selects the cell store (default: in-RAM array). *)

val of_list : ?name:string -> ?device:'a Device.t -> blank:'a -> 'a list -> 'a t
(** A tape pre-loaded with the given cells starting at position 0. *)

val preload : 'a t -> 'a list -> unit
(** Fill cells [0 .. length - 1] at the device level: no head movement,
    no reversal, no injection or observer traffic — the cost-free "the
    input is already on the tape" premise of the model, available on
    every backend. *)

val preload_seq : 'a t -> 'a Seq.t -> unit
(** {!preload} from a sequence — fills huge external tapes without
    materializing an intermediate list. *)

val sync : 'a t -> unit
(** Flush the device's dirty cached state to backing storage. *)

val close : 'a t -> unit
(** Flush and release the device (deleting any backing files). *)

val device_kind : 'a t -> string
(** ["mem"], ["file"] or ["shard"]. *)

val device_stats : 'a t -> Device.stats

val name : 'a t -> string

val blank : 'a t -> 'a
(** The blank symbol this tape was created with. *)

val read : 'a t -> 'a
(** The cell under the head (blank if never written). Passes through the
    tape's {!Injection} hook, if any. *)

val write : 'a t -> 'a -> unit
(** Overwrite the cell under the head. Passes through the tape's
    {!Injection} hook, if any. *)

val move : 'a t -> direction -> unit
(** Move the head one cell. A change of direction relative to the
    previous movement increments the reversal counter.
    @raise Invalid_argument when moving [Left] at position 0. *)

val position : 'a t -> int
val head_direction : 'a t -> direction
(** Direction of the most recent movement ([Right] initially). *)

val at_left_end : 'a t -> bool

val reversals : 'a t -> int
(** Head-direction changes so far on this tape. *)

val cells_used : 'a t -> int
(** Highest position ever visited or written, plus one. *)

val rewind : 'a t -> unit
(** Move the head back to position 0 by repeated [move Left]
    (costing one reversal if the head was last moving right and is not
    already at position 0).

    {b Invariant}: a head already at position 0 — in particular a fresh
    head still moving {!Right} — issues no movement at all, so the call
    charges no reversal and the head direction is unchanged. Restart
    code (the fault layer's retried scans) relies on this: prefixing a
    forward scan with [rewind] is free when nothing needs rewinding.

    {b Fast path}: when the tape has neither an injection hook nor an
    observer, the rewind is a constant-time seek with identical
    accounting (one reversal if the head was moving right, budget
    checked before the position changes — so a {!Budget_exceeded} run
    observes the same tape state the per-cell loop would leave). With a
    hook installed the per-cell loop runs, so fault plans and move
    counters see every step. *)

val seek : 'a t -> int -> unit
(** [seek tp target] walks the head to [target] one {!move} at a time:
    [|target - position|] moves, plus one reversal when the walk turns
    the head around. Seeking to the current position issues no move.
    Unlike {!rewind} there is no fast path, so injection hooks and
    observers see every step. *)

val read_at : 'a t -> int -> 'a
(** {!seek}, then {!read}. *)

val write_at : 'a t -> int -> 'a -> unit
(** {!seek}, then {!write}. *)

val to_list : 'a t -> 'a list
(** Cells [0 .. cells_used - 1] as a list (includes blanks). *)

val iter_right : 'a t -> ('a -> unit) -> unit
(** Scan from the current position to the last used cell, applying the
    function to each cell and moving the head right past the end of the
    used region. *)

(** Fault-injection hooks — the seam the [lib/faults] layer plugs into.

    A hook sees every [read], [write] and [move] on the tape and decides
    its outcome. Any outcome other than [*_ok] increments the tape's
    {!faults} counter (surfaced per tape in {!Group.report}); [*_fail]
    outcomes additionally raise the carried exception at the call site
    (the fault layer uses a transient-I/O exception that its retry
    combinators classify). The substrate itself stays policy-free:
    which faults fire, at what rate and how values are corrupted is
    entirely the hook's business. *)
module Injection : sig
  type 'a read_outcome =
    | Read_ok  (** faithful read *)
    | Read_value of 'a
        (** silent read corruption (bit-flip, stuck or blank cell): the
            caller sees this value, the cell content is untouched *)
    | Read_fail of exn  (** transient I/O failure; raised to the caller *)

  type 'a write_outcome =
    | Write_ok  (** faithful write *)
    | Write_value of 'a  (** corrupted value written instead *)
    | Write_drop  (** torn write: nothing is written at all *)
    | Write_fail of exn  (** transient I/O failure; raised to the caller *)

  type move_outcome = Move_ok | Move_fail of exn

  type 'a t = {
    on_read : pos:int -> 'a -> 'a read_outcome;
    on_write : pos:int -> 'a -> 'a write_outcome;
    on_move : pos:int -> direction -> move_outcome;
  }
end

val set_injection : 'a t -> 'a Injection.t option -> unit
(** Install (or with [None] remove) the tape's fault-injection hook.
    Fault-free tapes pay a single [match] per operation. *)

val faults : 'a t -> int
(** Number of injected faults (corrupted/dropped/failed operations) so
    far on this tape. *)

(** Observation hooks — the seam the [lib/obs] metrics layer plugs
    into, symmetric with {!Injection}.

    An observer sees every completed [read], [write] and [move] on the
    tape (operations aborted by an injected fault are {e not} reported
    — a retried scan recounts its operations honestly, exactly as it
    re-pays its reversals). Observers are value-blind: they receive
    positions only, so one observer type serves tapes of every cell
    type and an unobserved tape pays a single [match] per operation —
    instrumentation is zero-cost when disabled. *)
module Observer : sig
  type t = {
    on_read : pos:int -> unit;
    on_write : pos:int -> unit;
    on_move : pos:int -> direction -> unit;
  }
end

val set_observer : 'a t -> Observer.t option -> unit
(** Install (or with [None] remove) the tape's observer. *)

(** Internal-memory meter (the [s(N)] resource). *)
module Meter : sig
  type t

  val create : unit -> t

  val alloc : t -> int -> unit
  (** Charge [n ≥ 0] units (bytes/cells — the unit is the caller's
      convention, kept consistent per algorithm). *)

  val free : t -> int -> unit
  (** Release [n] units. @raise Invalid_argument on underflow. *)

  val with_units : ?fail_fast:bool -> t -> int -> (unit -> 'b) -> 'b
  (** [with_units m n f] allocates [n], runs [f], frees [n] (also on
      exceptions). [~fail_fast:false] suspends {!Budget_exceeded} for
      the extent of the call: allocations past the budget are counted
      in {!overruns} instead of raising — the escape hatch the fault
      layer uses so a retried scan that re-charges its registers
      degrades a report rather than aborting a recovery. The previous
      fail-fast setting is restored on exit. *)

  val current : t -> int
  val peak : t -> int

  val overruns : t -> int
  (** Allocations that exceeded the budget while fail-fast was off. *)
end

(** Aggregation of tapes + meter against an [(r, s, t)] budget. *)
module Group : sig
  type 'a tape := 'a t
  type t

  type budget = {
    max_scans : int option;  (** bound on [1 + Σ reversals] *)
    max_internal : int option;  (** bound on the meter's peak *)
  }

  val unlimited : budget

  val create :
    ?fail_fast:bool -> ?budget:budget -> ?device:Device.spec -> unit -> t
  (** [~fail_fast:false] (default [true]) makes budget violations —
      both the scan bound and the meter's internal-memory bound —
      accumulate in [report.budget_overruns] instead of raising
      {!Budget_exceeded}: the fault layer's escape hatch for runs that
      must survive to the end of a recovery.

      [device] (default {!Device.Mem}) is the backend recipe for member
      tapes created through {!tape}/{!tape_of_list} {e with a codec}:
      the group owns the policy, each call site owns the byte format. *)

  val device : t -> Device.spec

  val add_tape : t -> 'a tape -> unit
  (** Register a tape; all its subsequent reversals count toward the
      group's scan budget. If the group carries an observer factory
      ({!set_observer}), the tape is instrumented on registration.
      @raise Invalid_argument if the tape already belongs to a group. *)

  val set_observer : t -> (string -> Observer.t) option -> unit
  (** Install an observer factory on the group: every member tape —
      current and future, keyed by its {!name} — gets the factory's
      observer installed. This is how the metrics layer reaches the
      auxiliary tapes an algorithm creates internally. [None] removes
      the observers from all members. *)

  val tape :
    t -> ?name:string -> ?codec:'a Device.Codec.t -> blank:'a -> unit -> 'a tape
  (** Create and register in one step. A [codec] opts the tape into the
      group's {!device} spec; without one (or under {!Device.Mem}) the
      tape's cells stay in RAM. *)

  val tape_of_list :
    t -> ?name:string -> ?codec:'a Device.Codec.t -> blank:'a -> 'a list ->
    'a tape
  (** {!tape} followed by a device-level {!preload} — no head motion. *)

  val sync_all : t -> unit
  (** {!Tape.sync} every member tape. *)

  val close_all : t -> unit
  (** {!Tape.close} every member tape (deleting backing files). *)

  val device_stats : t -> Device.stats
  (** Member devices' stats, summed. *)

  val meter : t -> Meter.t

  val total_reversals : t -> int
  val scans : t -> int
  (** [1 + total_reversals] — the paper's [r(N)] usage. *)

  val internal_peak : t -> int

  type report = {
    scans_used : int;
    reversals_by_tape : (string * int) list;
    internal_peak_units : int;
    cells_by_tape : (string * int) list;
    faults_by_tape : (string * int) list;
        (** injected faults per registered tape (all zero without a
            fault-injection hook) *)
    budget_overruns : int;
        (** budget violations tolerated while fail-fast was off *)
  }

  val report : t -> report

  val faults_injected : t -> int
  (** Total injected faults over all registered tapes. *)

  val budget_overruns : t -> int

  val pp_report : Format.formatter -> report -> unit
end
