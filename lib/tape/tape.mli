(** Instrumented external-memory tapes — the cost model of the paper.

    The ST(r,s,t) model (Definitions 1 and 2) charges two resources:

    - [r(N)]: one plus the total number of head-direction changes
      ({e reversals}) over all [t] external-memory tapes, i.e. the number
      of sequential scans;
    - [s(N)]: the total space used on the internal-memory tapes.

    This module provides one-sided-infinite tapes whose heads track their
    direction and count reversals, head moves, reads and writes, an
    internal-memory {!Meter}, and a
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
    no reversal, no counted write, no injection traffic —
    the cost-free "the input is already on the tape" premise of the
    model, available on every backend. *)

val preload_init : 'a t -> int -> (int -> 'a) -> unit
(** [preload_init t n f] is {!preload} of [[f 0; ...; f (n-1)]] without
    building the list — fills huge external tapes cell by cell. *)

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

val head_moves : 'a t -> int
(** Completed {!move}s so far, including every cell a {!seek} crosses.
    An operation aborted by an injected fault is not counted, so a
    retried scan recounts its operations honestly, exactly as it
    re-pays its reversals. *)

val reads : 'a t -> int
(** Completed {!read}s so far (see {!head_moves}). *)

val writes : 'a t -> int
(** Completed {!write}s so far, dropped torn writes included (see
    {!head_moves}). *)

val rewind : 'a t -> unit
(** [seek tp 0]: move the head back to position 0, costing one
    reversal if the head was last moving right and is not already at
    position 0.

    {b Invariant}: a head already at position 0 — in particular a fresh
    head still moving {!Right} — issues no movement at all, so the call
    charges no reversal and the head direction is unchanged. Restart
    code (the fault layer's retried scans) relies on this: prefixing a
    forward scan with [rewind] is free when nothing needs rewinding. *)

(** {2 Cell registers}

    A register is a piece of internal memory holding one cell. Loading
    and storing one is charged exactly as {!read} and {!write}: the
    same counters, budget checks and injection-hook outcomes, in the
    same order. Registers change only what the host does per cell.

    {b Form.} When the tape has no injection hook (the condition of
    {!seek}'s fast path) and its device exposes slots ({!Device.slots}:
    both byte backends, file and shard), a load copies the cell's
    stored bytes out of the cache line, decoding nothing, and a store
    into such a tape copies them into its slot. Otherwise (mem, or a
    hooked tape) the register holds the decoded value, as {!read}
    returns it.

    {b Reloads.} Loading, from a tape with no injection hook, the cell
    a register already holds, while that tape has not been written
    since ({!write}, {!store} or {!preload}), charges the read and leaves
    the device alone. A hooked tape is always read through its hook,
    which may answer differently each time.

    {b Blank cells.} A register loaded from a never-written cell acts
    as the blank value, and storing it stores exactly what writing the
    blank stores. *)

type 'a register

val register : 'a t -> 'a register
(** A fresh register for cells of the tape's type, holding its blank. *)

val load : 'a t -> 'a register -> unit
(** Load the cell under the head into the register; charged as
    {!read}. *)

val store : 'a t -> 'a register -> unit
(** Overwrite the cell under the head with the register's cell;
    charged as {!write}. *)

val compare_registers :
  ('a -> 'a -> int) -> 'a register -> 'a register -> int
(** [compare_registers cmp a b]: two registers holding bytes stored by
    the same codec compare bytewise (unsigned, shorter prefix first),
    with no call to [cmp]; any other pair is compared by [cmp] on the
    decoded values. Sound when [cmp] orders values as the codec's
    encodings order bytewise — the {!Device.Codec} contract, which the
    {!Tuple} codecs keep for [String.compare]. *)

val seek : 'a t -> int -> unit
(** [seek tp target] moves the head to [target] as [|target - position|]
    {!move}s would: that many head moves, plus one reversal when the
    walk turns the head around. Seeking to the current position issues
    no move.

    {b Fast path}: when the tape has no injection hook and
    [target >= 0], the seek is constant-time with identical accounting:
    one reversal if the head turns, the scan budget checked before the
    position changes, then one head move per cell crossed — so a
    {!Budget_exceeded} run leaves the same tape state and counts the
    per-cell loop would. With a hook installed, or a negative [target]
    (which fails at position 0 with [Invalid_argument], as {!move}
    does), the per-cell loop runs, so the hook sees every step. *)

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
    fault counter (reported per tape by {!Group.report}); [*_fail]
    outcomes additionally raise the carried exception at the call site
    (the fault layer uses a transient-I/O exception that its retry
    combinators classify). The substrate itself stays policy-free:
    which faults fire, at what rate and how values are corrupted is
    entirely the hook's business. Every callback gets the head position
    as the operation starts, so [on_move] sees the cell the head
    leaves. *)
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

val set_injection : 'a t -> (string -> 'a Injection.t) option -> unit
(** [set_injection t (Some make)] installs [make (name t)] as the
    tape's hook; [None] removes it. The tape keeps [make] itself too,
    and {!Group.sibling} hooks each tape it derives from [t] —
    [Extsort.sort_tape]'s auxiliary tapes — with [make] applied to that
    tape's own name: a fault plan's streams stay keyed by tape name,
    and a recording hook sees every tape of the sort. An unhooked tape
    pays one [match] per operation. *)

(** Internal-memory meter (the [s(N)] resource). *)
module Meter : sig
  type t

  val alloc : t -> int -> unit
  (** Charge [n ≥ 0] units (bytes/cells — the unit is the caller's
      convention, kept consistent per algorithm). *)

  val free : t -> int -> unit
  (** Release [n] units. @raise Invalid_argument on underflow. *)

  val with_units : t -> int -> (unit -> 'b) -> 'b
  (** [with_units m n f] allocates [n], runs [f], frees [n] (also on
      exceptions). *)

  val current : t -> int
  val peak : t -> int
end

(** Aggregation of tapes + meter against an [(r, s, t)] budget. *)
module Group : sig
  type 'a tape := 'a t
  type t

  type budget = {
    max_scans : int option;  (** bound on [1 + Σ reversals] *)
    max_internal : int option;  (** bound on the meter's peak *)
  }

  val create : ?budget:budget -> ?device:Device.spec -> unit -> t
  (** [budget] (default: no bound) is enforced as it is crossed: the
      reversal or allocation that exceeds it raises {!Budget_exceeded}.

      [device] (default {!Device.Mem}) is the backend recipe for member
      tapes created through {!tape}/{!tape_of_list} {e with a codec}:
      the group owns the policy, each call site owns the byte format. *)

  val add_tape : t -> 'a tape -> unit
  (** Register a tape; all its subsequent reversals count toward the
      group's scan budget, and its counters appear in {!report}.
      @raise Invalid_argument if the tape already belongs to a group. *)

  val tape :
    t -> ?name:string -> ?codec:'a Device.Codec.t -> blank:'a -> unit -> 'a tape
  (** Create and register in one step. A [codec] opts the tape into the
      group's {!device} spec; without one (or under {!Device.Mem}) the
      tape's cells stay in RAM. *)

  val sibling : t -> 'a tape -> name:string -> 'a tape
  (** [sibling g t ~name]: a working tape derived from [t], created
      and registered in [g] with [t]'s blank, [t]'s hook maker applied
      to [name] ({!set_injection}) and, when [t] is on a byte device,
      [t]'s slot codec, which opts the sibling into [g]'s device spec
      (as {!tape}'s [codec] does); a sibling of a RAM tape is in RAM. *)

  val tape_of_list :
    t -> ?name:string -> ?codec:'a Device.Codec.t -> blank:'a -> 'a list ->
    'a tape
  (** {!tape} followed by a device-level {!preload} — no head motion. *)

  val close_all : t -> unit
  (** Flush and release every member tape's device (deleting backing
      files). *)

  val device_stats : t -> Device.stats
  (** Member devices' stats, summed. *)

  val meter : t -> Meter.t

  val scans : t -> int
  (** One plus the member tapes' reversals — the paper's [r(N)]
      usage. *)

  type tape_stats = {
    tape : string;  (** tape name *)
    reversals : int;
    cells : int;  (** cells used (high-water position + 1) *)
    head_moves : int;
    reads : int;
    writes : int;
    faults : int;
        (** injected faults (zero without a fault-injection hook) *)
  }
  (** One member tape's own counters: {!Tape.reversals},
      {!Tape.cells_used}, {!Tape.head_moves}, {!Tape.reads},
      {!Tape.writes}, and the injected-fault count. *)

  type report = {
    scans_used : int;
    tapes : tape_stats list;  (** registration order *)
    internal_peak_units : int;
  }

  val report : t -> report
  (** The group's counters now. Each tape is reported under its own
      counters, so two member tapes sharing a name stay apart. *)

  val faults_injected : t -> int
  (** Total injected faults over all registered tapes. *)
end
