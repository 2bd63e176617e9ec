(** Deterministic, seeded fault injection for the tape substrate.

    The paper's model is a model of real external-memory I/O
    (Grohe–Koch–Schweikardt, arXiv:cs/0505002), where silent corruption
    and partial failure are the norm — this module makes the substrate
    hostile on purpose. A {!Plan} fixes a root seed and per-operation
    fault rates; attaching it to a tape installs a {!Tape.Injection}
    hook that flips cell values on read/write, sticks reads at the
    blank symbol, drops (tears) writes, and raises {!Transient_io} from
    any operation. Everything is derived from [(plan seed, tape name)]
    by the same splitmix64 scheme [lib/parallel] uses for chunk
    seeding, so a faulty run is bit-identical for every worker count —
    the E16 experiment and [test/test_faults.ml] pin this down.

    {!Retry} provides the recovery side: a bounded number of immediate
    re-attempts on exceptions {!Retry.classify} calls transient. The
    extsort merge passes and fingerprint scans wrap their restartable
    phases in {!Retry.run}; a retried scan re-walks its tape through
    the ordinary [move] calls, so recovery is charged honest reversal
    costs. *)

exception Transient_io of string
(** A fault that a retry may clear (the injected model of a failed
    disk/network operation). {!Retry.classify} calls it
    [Transient]. *)

(** Per-operation fault probabilities, each in [[0, 1]]. *)
type rates = {
  bit_flip : float;  (** corrupt the value seen by a read / written by a write *)
  stuck_read : float;  (** a read returns the blank symbol instead *)
  torn_write : float;  (** a write is silently dropped *)
  transient : float;  (** read/write/move raises {!Transient_io} *)
}

val zero : rates
(** All rates 0 — attaching this plan never injects anything (and
    draws no randomness, so it is observationally identical to not
    attaching a plan at all). *)

(** A seeded fault plan: the pure data determining every fault of a
    run. *)
module Plan : sig
  type t

  val create : seed:int -> rates:rates -> t
  (** @raise Invalid_argument if any rate is outside [[0, 1]]. *)

  val derive : t -> name:string -> int array
  (** The four seed words for tape [name]'s private fault stream:
      FNV-1a of the name folded into the plan seed, finalized by
      splitmix64. Depends on nothing but [(seed t, name)] — exposed for
      the determinism tests. *)
end

val attach_char : Plan.t -> char Tape.t -> unit
(** Install the plan's injection hook on a tape of [{0,1}] cells. A
    corrupted read or write sees ['0' ↔ '1'] flipped; ['#'] separators
    and blanks are never damaged. The hook draws from the tape's
    private fault stream and keys on {!Tape.name}, so give tapes stable
    explicit names — auto-generated [tapeN] names depend on allocation
    order and would break cross-worker determinism. It is installed as
    a maker ({!Tape.set_injection}), so tapes derived from this one get
    their own streams keyed by their own names; a stuck read on any of
    them shows this tape's blank. *)

val attach_string : Plan.t -> string Tape.t -> unit
(** {!attach_char} for string cells: a corruption flips the low bit of
    one uniformly chosen byte (the empty string is left unchanged). On
    the {0,1}-string items of an instance this is exactly a one-bit
    value corruption. *)

(** Storage-level fault injection {e below} the {!Tape.Device.Raw}
    syscall seam — distinct from the above-seam {!Tape.Injection} plan
    ({!attach_char}, {!attach_string}): these faults hit the bytes and
    syscalls of the backing files themselves, so they exercise the
    device layer's CRC framing, full-transfer loops and atomic-rename
    protocol rather than the tape head. Streams are keyed on [("storage:" ^ tape name)], so a
    storage plan and an injection plan may share a seed without
    correlating, and the whole campaign is bit-identical under
    -j 1/2/4. *)
module Storage : sig
  (** Per-syscall fault probabilities, each in [[0, 1]]. *)
  type rates = {
    bit_rot : float;  (** flip one random bit of a successful pread *)
    short_read : float;  (** return a strict prefix of the bytes read *)
    short_write : float;  (** transfer a strict prefix (no error) *)
    io_error : float;  (** raise [EIO] from pread/pwrite *)
    torn_write : float;
        (** write a strict prefix to disk, then raise [EIO] — the torn
            frame is what the CRC framing must catch on readback *)
  }

  val zero : rates

  exception Crashed of { op : int }
  (** The default crash action: raised by the [op]-th raw syscall when
      the plan's [crash_at] fires. Classified [Fatal]. *)

  module Plan : sig
    type t

    val create :
      ?enospc_after:int ->
      ?crash_at:int ->
      ?crash:(int -> unit) ->
      seed:int ->
      rates:rates ->
      unit ->
      t
    (** [enospc_after:k] makes the [k]-th and every later raw write
        raise [ENOSPC] (a full disk stays full). [crash_at:k] invokes
        [crash] (default: raise {!Crashed}) at the [k]-th raw syscall,
        counted plan-globally in syscall order — [stlb decide
        --crash-at] passes an abrupt [_exit] so no cleanup runs, which
        is what the crash-matrix test recovers from.
        @raise Invalid_argument if any rate is outside [[0, 1]]. *)

    val ops : t -> int
    (** Raw syscalls performed so far under this plan. *)
  end

  val raw_for : Plan.t -> Tape.Device.raw_factory
  (** The injecting wrapper of {!Tape.Device.Raw.real} to pass as
      [?raw] to {!Tape.Device.file_spec}/{!Tape.Device.shard_spec}. *)
end

(** Bounded retry — the recovery combinator used by the extsort and
    fingerprint scan phases. *)
module Retry : sig
  type classification = Transient | Fatal

  type policy = {
    attempts : int;  (** total attempts, including the first ([≥ 1]) *)
  }

  exception Gave_up of { label : string; attempts : int; last : exn }
  (** Raised — and classified fatal — once all attempts failed on
      transient errors. [last] is the final transient exception. *)

  val classify : exn -> classification
  (** {!Transient_io} is [Transient], as are the retryable device I/O
      errors a byte-backed tape can surface
      ([Unix.EINTR]/[EAGAIN]/[EWOULDBLOCK]/[EIO]) and
      {!Tape.Device.Corrupt} (the bad block is quarantined before the
      raise, so a retry re-reads it from disk). [ENOSPC] and [EROFS]
      are explicitly [Fatal] — a full or read-only disk never heals by
      retrying — as is everything else, including {!Gave_up},
      {!Storage.Crashed} and {!Tape.Budget_exceeded}. *)

  val default : policy
  (** 3 attempts. *)

  val run : ?policy:policy -> label:string -> (unit -> 'a) -> 'a
  (** Run [f], re-running it at once on [Transient]-classified
      exceptions up to [policy.attempts] total attempts. Fatal
      exceptions propagate immediately; exhausting the attempts raises
      {!Gave_up} naming [label]. [f] must be restartable: each attempt
      must redo any state the previous one half-built (the tape-walking
      callers restart by rewinding, which charges honest reversals). *)
end

val policy : Plan.t option -> Retry.policy option -> Retry.policy option
(** The policy a decider's phases retry under: the given one, else
    {!Retry.default} when a plan is attached, else none. A policy alone
    still matters: storage faults injected below the device seam
    surface as [Corrupt] or I/O errors from ordinary reads and writes,
    and a phase recovers from those exactly as from injected tape
    faults. *)

val phase : ?retry:Retry.policy -> label:string -> (unit -> 'a) -> 'a
(** Run one restartable decider phase (a distribution or merge pass, a
    comparison scan). Without a policy, [f ()] runs bare: no
    combinator, bit-identical to fault-free code. With one, it runs
    under {!Retry.run}. *)
