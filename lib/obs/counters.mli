(** Process-wide activity counters for the layers a single
    [Tape.Group] cannot see: the parallel pool, the retry combinators
    and the checkpoint journal.

    The instrumented layers ([lib/parallel], [lib/faults],
    [lib/harness]) bump these atomics as they work; a
    {!Ledger.Recorder} snapshots them at creation and again at capture
    time, so every ledger carries the {e delta} of pool/retry/checkpoint
    activity attributable to its run. All counters are atomics — safe
    to bump from any domain — and all of them are deterministic for a
    fixed workload: chunk counts depend on trial counts (never on the
    worker count), and retry/checkpoint events are seeded or
    journal-driven. *)

type snapshot = {
  retry_attempts : int;
      (** re-attempts performed by [Faults.Retry.run] after a
          transient failure *)
  retry_gave_up : int;  (** [Faults.Retry.Gave_up] raises *)
  pool_chunks : int;  (** pool jobs executed (chunk granularity) *)
  pool_degraded_spawns : int;  (** [Domain.spawn] failures absorbed *)
  checkpoint_stored : int;  (** journal entries written *)
  checkpoint_replayed : int;  (** tables replayed from the journal *)
  checkpoint_discarded : int;
      (** corrupt/unparsable journal entries discarded — surfaced here
          so silent discards show up in every ledger *)
  device_corrupt_detected : int;
      (** CRC-framed device reads that failed verification
          ({!Tape.Device.Corrupt} raises) *)
  device_quarantine_rereads : int;
      (** quarantined blocks re-read cleanly — the recovery path *)
  device_cleanup_failures : int;
      (** close/remove failures during device close; each one is a
          potentially leaked spill file, surfaced so it is never
          invisible *)
  census_classes : int;
      (** distinct skeleton classes interned by the Lemma 21 census
          ([Skeleton.Intern], any backend) *)
  census_canonical_hits : int;
      (** machine runs the adversary's canonical-form memo answered
          without replaying the machine *)
  census_shard_merges : int;
      (** shard evidence files folded by [Adversary.Shard.merge] *)
}

val snapshot : unit -> snapshot
(** Current totals since process start. *)

val diff : snapshot -> since:snapshot -> snapshot
(** Field-wise subtraction: the activity between two snapshots. *)

val to_fields : snapshot -> (string * int) list
(** Every field as a [(name, value)] pair, in declaration order — the
    serialization the serve STATS endpoint and other JSON emitters
    share, so counter names stay consistent across surfaces. *)

(** {2 Incrementors — called by the instrumented layers} *)

val add_retry_attempts : int -> unit
val add_retry_gave_up : int -> unit
val add_pool_chunks : int -> unit
val add_pool_degraded_spawns : int -> unit
val add_checkpoint_stored : int -> unit
val add_checkpoint_replayed : int -> unit
val add_checkpoint_discarded : int -> unit
val add_census_classes : int -> unit
val add_census_canonical_hits : int -> unit
val add_census_shard_merges : int -> unit
