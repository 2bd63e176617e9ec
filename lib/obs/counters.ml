type snapshot = {
  retry_attempts : int;
  retry_gave_up : int;
  pool_chunks : int;
  pool_degraded_spawns : int;
  checkpoint_stored : int;
  checkpoint_replayed : int;
  checkpoint_discarded : int;
  device_corrupt_detected : int;
  device_quarantine_rereads : int;
  device_cleanup_failures : int;
  census_classes : int;
  census_canonical_hits : int;
  census_shard_merges : int;
}

let retry_attempts = Atomic.make 0
let retry_gave_up = Atomic.make 0
let pool_chunks = Atomic.make 0
let pool_degraded_spawns = Atomic.make 0
let checkpoint_stored = Atomic.make 0
let checkpoint_replayed = Atomic.make 0
let checkpoint_discarded = Atomic.make 0
let census_classes = Atomic.make 0
let census_canonical_hits = Atomic.make 0
let census_shard_merges = Atomic.make 0

(* the device_* fields are owned by [Tape.Device] (the tape library
   cannot depend on this one); snapshotting reads its atomics *)
let snapshot () =
  {
    retry_attempts = Atomic.get retry_attempts;
    retry_gave_up = Atomic.get retry_gave_up;
    pool_chunks = Atomic.get pool_chunks;
    pool_degraded_spawns = Atomic.get pool_degraded_spawns;
    checkpoint_stored = Atomic.get checkpoint_stored;
    checkpoint_replayed = Atomic.get checkpoint_replayed;
    checkpoint_discarded = Atomic.get checkpoint_discarded;
    device_corrupt_detected = Tape.Device.corrupt_detected ();
    device_quarantine_rereads = Tape.Device.quarantine_rereads ();
    device_cleanup_failures = Tape.Device.cleanup_failures ();
    census_classes = Atomic.get census_classes;
    census_canonical_hits = Atomic.get census_canonical_hits;
    census_shard_merges = Atomic.get census_shard_merges;
  }

let diff now ~since =
  {
    retry_attempts = now.retry_attempts - since.retry_attempts;
    retry_gave_up = now.retry_gave_up - since.retry_gave_up;
    pool_chunks = now.pool_chunks - since.pool_chunks;
    pool_degraded_spawns = now.pool_degraded_spawns - since.pool_degraded_spawns;
    checkpoint_stored = now.checkpoint_stored - since.checkpoint_stored;
    checkpoint_replayed = now.checkpoint_replayed - since.checkpoint_replayed;
    checkpoint_discarded = now.checkpoint_discarded - since.checkpoint_discarded;
    device_corrupt_detected =
      now.device_corrupt_detected - since.device_corrupt_detected;
    device_quarantine_rereads =
      now.device_quarantine_rereads - since.device_quarantine_rereads;
    device_cleanup_failures =
      now.device_cleanup_failures - since.device_cleanup_failures;
    census_classes = now.census_classes - since.census_classes;
    census_canonical_hits = now.census_canonical_hits - since.census_canonical_hits;
    census_shard_merges = now.census_shard_merges - since.census_shard_merges;
  }

let to_fields s =
  [
    ("retry_attempts", s.retry_attempts);
    ("retry_gave_up", s.retry_gave_up);
    ("pool_chunks", s.pool_chunks);
    ("pool_degraded_spawns", s.pool_degraded_spawns);
    ("checkpoint_stored", s.checkpoint_stored);
    ("checkpoint_replayed", s.checkpoint_replayed);
    ("checkpoint_discarded", s.checkpoint_discarded);
    ("device_corrupt_detected", s.device_corrupt_detected);
    ("device_quarantine_rereads", s.device_quarantine_rereads);
    ("device_cleanup_failures", s.device_cleanup_failures);
    ("census_classes", s.census_classes);
    ("census_canonical_hits", s.census_canonical_hits);
    ("census_shard_merges", s.census_shard_merges);
  ]

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)

let add_retry_attempts n = add retry_attempts n
let add_retry_gave_up n = add retry_gave_up n
let add_pool_chunks n = add pool_chunks n
let add_pool_degraded_spawns n = add pool_degraded_spawns n
let add_checkpoint_stored n = add checkpoint_stored n
let add_checkpoint_replayed n = add checkpoint_replayed n
let add_checkpoint_discarded n = add checkpoint_discarded n
let add_census_classes n = add census_classes n
let add_census_canonical_hits n = add census_canonical_hits n
let add_census_shard_merges n = add census_shard_merges n
