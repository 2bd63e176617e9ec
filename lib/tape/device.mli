(** Pluggable storage backends for tapes — the seam that lets the same
    instrumented head run over RAM, a flat file, or a directory of run
    files, with identical cost accounting.

    A device is a dumb cell store: get/set by position, extent, sync,
    close. Head position, direction, reversal counting, budgets, fault
    injection and observers all live {e above} this seam in [Tape], so
    swapping the backend cannot change any measured number — the
    backend-parity property the test suite pins down.

    The byte-backed backends are additionally {e crash- and
    corruption-hardened}: every block/shard is CRC-32 framed and
    verified on read ({!Corrupt}, {!verify}), whole files are written
    via atomic tmp+rename, shard directories carry a MANIFEST, and all
    syscalls go through the {!Raw} seam so [lib/faults] can inject
    storage-level failures deterministically. *)

type stats = {
  resident_bytes : int;  (** bytes currently cached in RAM *)
  io_read_bytes : int;  (** payload bytes read from backing storage *)
  io_write_bytes : int;  (** payload bytes written to backing storage *)
  backing_files : int;
      (** backing files the device has created: 1 for a file tape, one
          per shard written for a shard tape, 0 for the mem backend.
          A count of creations, not of files on disk: closing the
          device removes its files but does not decrement it. *)
}

val zero_stats : stats

exception Corrupt of { device : string; path : string; offset : int }
(** A CRC-framed block or shard failed verification on read. [device]
    is the tape name, [path] the backing file, [offset] the first tape
    cell position the bad block covers. The offending cache line is
    quarantined before the raise, so a retry that re-reads the region
    goes back to disk — {!Faults.Retry.classify_default} treats
    [Corrupt] as transient for exactly this reason. *)

(** {2 Integrity health — process-wide counters and events}

    The device layer cannot depend on [lib/obs], so it keeps its own
    atomics; [Obs.Counters] snapshots them and [Obs.Trace] installs the
    event listener at link time. *)

type event =
  | Corrupt_detected of { device : string; offset : int }
      (** a framed read failed its checksum (the read raised {!Corrupt}) *)
  | Quarantine_reread of { device : string; offset : int }
      (** a quarantined block was re-read cleanly — the recovery path *)
  | Cleanup_failed of { device : string; path : string; error : string }
      (** a close/remove during [close] failed; the spill file may be
          leaked.  Never raised: close paths run in finalizers. *)

val on_event : (event -> unit) -> unit
(** Install the process-wide event listener (latest wins; [Obs.Trace]
    installs one that forwards to the current trace sink). *)

val corrupt_detected : unit -> int
val quarantine_rereads : unit -> int
val cleanup_failures : unit -> int

val reset_health : unit -> unit
(** Zero the three health counters (tests only). *)

(** {2 The raw syscall seam} *)

(** Single-syscall closures under the byte-backed backends. [pread] and
    [pwrite] may transfer fewer than [len] bytes (the full-transfer
    loops live above the seam), [pread] returns 0 at EOF. [lib/faults]
    builds wrappers of {!Raw.real} that inject short transfers, EIO,
    ENOSPC, torn writes, bit rot and crash points deterministically. *)
module Raw : sig
  type t = {
    pread : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> off:int -> int;
    pwrite : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> off:int -> int;
    fsync : Unix.file_descr -> unit;
    rename : string -> string -> unit;
    remove : string -> unit;
  }

  val real : t
  (** The actual syscalls (lseek+read/write, fsync, rename, remove). *)
end

type raw_factory = name:string -> Raw.t
(** Builds the raw seam for one device, keyed by the {e tape name} (the
    only stable per-device identity — backing paths contain allocation
    counters), so fault streams are independent of creation order. *)

type 'a t
(** A cell store for values of type ['a]. Positions are 0-based;
    reading a never-written position yields the blank. *)

val kind : 'a t -> string
(** ["mem"], ["file"] or ["shard"]. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val extent : 'a t -> int
(** One past the highest position ever written (0 if none). *)

val sync : 'a t -> unit
(** Flush dirty cached state to backing storage and make it durable:
    the file backend fsyncs its fd, the shard backend rewrites and
    fsyncs its MANIFEST. No-op for [mem]. *)

val close : 'a t -> unit
(** Release the backing storage ({e deleting} backing files — a tape's
    spill is scratch space, not a persistent artifact). Never raises:
    failures are counted in {!cleanup_failures} and announced via
    {!on_event}. *)

val stats : 'a t -> stats

type verify_report = { blocks_checked : int; corrupt_at : int list }
(** [corrupt_at] lists the first cell position of each bad block. *)

val verify : 'a t -> verify_report
(** Flush, then re-read and CRC-check every block/shard of a live
    device without disturbing its cache. Diagnostic: reports rather
    than raises. Trivially clean for [mem]. *)

(** How cells become bytes. Byte-backed devices need one; the mem
    backend does not. *)
module Codec : sig
  type 'a codec = {
    encode : 'a -> string;
        (** at most [max_bytes] long; order-preserving encoders (the
            {!Tuple} ones) make sorted runs bytewise-comparable *)
    decode : string -> int -> 'a * int;
        (** [decode buf pos] returns the value whose encoding starts at
            [pos] together with the offset just past it — encodings
            must be self-delimiting *)
    max_bytes : int;
  }

  type 'a t = 'a codec

  val tuple_string : max_len:int -> string t
  (** Cells are strings of length [<= max_len], framed as
      {!Tuple.pack_str} — bytewise comparison of stored cells agrees
      with [String.compare] on the values. *)

  val tuple_int : int t
  val tuple_char : char t
end

(** A backend recipe: what to build when a tape is created. *)
type spec =
  | Mem
  | File of {
      dir : string;
      block_bytes : int;
      cache_blocks : int;
      raw : raw_factory option;
    }
      (** one flat file of CRC-framed blocks of fixed-size slots
          (2-byte length prefix + payload, slot size from the codec's
          [max_bytes]) behind a direct-mapped block cache with
          sequential read-ahead *)
  | Shard of { dir : string; shard_bytes : int; raw : raw_factory option }
      (** a directory of CRC-framed run files, each the concatenation
          of presence-flagged self-delimiting cell encodings, indexed
          by an atomically-renamed MANIFEST; whole shards load and
          rewrite on cache eviction, so sequential run writes touch
          each file once per pass *)

val mem_spec : spec

val file_spec :
  ?block_bytes:int -> ?cache_blocks:int -> ?raw:raw_factory -> string -> spec
(** Defaults: 64 KiB blocks, 16 cached blocks, real syscalls. *)

val shard_spec : ?shard_bytes:int -> ?raw:raw_factory -> string -> spec
(** Defaults: 1 MiB shards, real syscalls. A shard device always keeps
    2 shards in RAM. *)

val mem : blank:'a -> 'a t
(** The original growable in-RAM array. *)

val instantiate : ?codec:'a Codec.t -> spec -> blank:'a -> name:string -> 'a t
(** Build the backend a spec describes. [File]/[Shard] require a
    [codec]; without one the result falls back to {!mem} (the tape
    still works, just not externally). Backing files are created under
    the spec's directory, uniquely named per tape, and removed on
    {!close}; a shard device clears stale leftovers from its directory
    at creation, so a crashed run's torn tails are never read back as
    data. *)

(** Offline integrity walk over a spill directory — the reopen
    protocol: a ".tape" file must carry its magic header and every
    complete frame must pass its CRC (a trailing partial frame is a
    torn tail); a shard directory's MANIFEST vouches for run files by
    checksum, and unlisted, mismatched or ".tmp" files are torn tails
    or orphans. [stlb scrub] is a thin wrapper over {!Scrub.dir}. *)
module Scrub : sig
  type finding = {
    path : string;
    offset : int;  (** byte offset of the bad frame, or -1 for whole-file *)
    what : string;
        (** ["crc-mismatch"], ["torn"], ["orphan"], ["missing"] or
            ["bad-header"] *)
  }

  type report = {
    files_checked : int;
    blocks_checked : int;
    findings : finding list;
    removed : int;  (** files deleted (only with [~fix:true]) *)
  }

  val dir : ?fix:bool -> string -> report
  (** Walk one spill directory. With [~fix:true], flagged files are
      removed and emptied shard directories pruned. A missing [root]
      yields the empty report. *)
end
