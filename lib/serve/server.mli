(** [stlb serve] — the deciders as a long-running service.

    A single-process server on a stdlib Unix-domain socket speaking the
    stlb/1 frame protocol ({!Frame}, PROTOCOL.md). Connections are
    multiplexed with [Unix.select] on the main domain; decide work is
    fanned out over a {!Parallel.Pool}, and every verdict depends only
    on the pair (server seed, request id) — never on the worker count,
    the batching, the arrival order or the device backend — so a run is
    replayable by restarting the server with the same [--seed] and
    re-sending the same ids.

    Per-request determinism: request [id] draws its randomness from
    [Parallel.Rng.request_state ~server_seed ~request_id:id], the same
    splitmix64 derivation the Monte Carlo pool uses for chunk seeds
    (PROTOCOL.md §5 spells out the exact arithmetic). Batch item [i] of
    a BATCH frame with id [R] behaves exactly like a singleton DECIDE
    with id [R + i], which is what makes server-side coalescing and
    client-side batching invisible to the results.

    Backpressure: parsed requests go through a bounded queue; when the
    queue is full the server {e sheds} the frame with an [OVERLOADED]
    error response instead of stalling the read loop, and oversized or
    malformed frames are answered with loud errors (the connection is
    closed only when framing itself is unrecoverable). Every response
    to a decide runs under its theorem-budget audit ({!Obs.Audit}); a
    run that exceeds its budget is reported as an [AUDIT_FAILED] error,
    never as a silent verdict.

    Memory: each server owns one 64 KiB receive buffer, shared by all
    its connections and reused by every read, so a read allocates only
    the bytes that arrived. [run] leaves the GC settings alone: [stlb
    serve] sets its own (OPERATIONS.md §1), and an in-process server
    keeps its host's. *)

type config = {
  socket : string;  (** Unix-domain socket path (stale paths are taken over) *)
  seed : int;  (** root of the per-request seed derivation *)
  domains : int;  (** pool workers for decide fan-out ([>= 1]) *)
  device : Tape.Device.spec option;
      (** tape backend for the runs {!Decider.run} puts on a device:
          sort on a core problem, the fingerprint, and sort on
          [relalg-symdiff]; [None] = in-RAM. Reference, NST and
          [xpath-filter] runs stay in memory. *)
  max_scans : int option;
      (** optional hard scan budget on sort for the core problems (as
          [stlb decide --max-scans]); a trip reports a [BUDGET] error.
          The query problems' sort runs are not budgeted. *)
  max_frame : int;  (** payload byte bound; above it the frame is shed *)
  max_batch : int;  (** decide items accepted per BATCH frame *)
  queue_bound : int;  (** pending-request bound before shedding *)
  max_requests : int option;
      (** stop serving after this many frames — the smoke-test and
          load-test safety net; [None] runs until SHUTDOWN *)
}

val default : socket:string -> config
(** seed 42, 1 domain, mem device, no scan budget, 1 MiB frames,
    batches of up to 64, a queue bound of 128, no request limit. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Bind, listen and serve until a SHUTDOWN frame (or [max_requests]).
    [on_ready] fires once the socket is listening — in-process harnesses
    use it to know when to connect. Blocks the calling domain. With an
    {!Obs.Trace} sink installed, every audited decide emits its ledger
    and audit events (main domain, request-id order — deterministic for
    any worker count). *)
