(** Pluggable storage backends for tapes — the seam that lets the same
    instrumented head run over RAM, a flat file, or a directory of run
    files, with identical cost accounting.

    A device is a dumb cell store: get/set by position, sync, close.
    Head position, direction, reversal counting, budgets and fault
    injection all live {e above} this seam in [Tape], so
    swapping the backend cannot change any measured number — the
    backend-parity property the test suite pins down.

    The byte-backed backends are additionally {e crash- and
    corruption-hardened}: every block/shard is CRC-32 framed and
    verified on read ({!Corrupt}; {!Scrub} re-checks a spill directory
    offline), whole files are written via atomic tmp+rename, shard
    directories carry a MANIFEST, and all syscalls go through the
    {!Raw} seam so [lib/faults] can inject storage-level failures
    deterministically. *)

type stats = {
  resident_bytes : int;
      (** RAM the cells take: the mem backend's array, or a byte
          device's cache capacity (its lines times their block size;
          a line is allocated when it first takes a block) *)
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
    goes back to disk — [Faults.Retry.classify] calls [Corrupt]
    transient for exactly this reason. *)

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

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

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

(** How cells become bytes. Byte-backed devices need one; the mem
    backend does not. Cells are written and read in place in the
    device's cache slots. *)
module Codec : sig
  type 'a codec = {
    size : 'a -> int;
        (** bytes [write] takes for a value; at most [max_bytes] *)
    write : Bytes.t -> int -> 'a -> int;
        (** [write buf pos v] writes [size v] bytes at [pos] and returns
            the end offset. *)
    skip : Bytes.t -> int -> int -> int;
        (** [skip buf pos limit] returns the end offset of the encoding
            that starts at [pos] — encodings must be self-delimiting. It
            never looks at [limit] or past it: the bytes there belong to
            the next cell. The shard backend cuts its run files into
            cells with it. *)
    value : Bytes.t -> int -> int -> 'a;
        (** [value buf pos limit] decodes the encoding that fills
            [[pos, limit)]: the int and char codecs allocate nothing. *)
    max_bytes : int;
  }
  (** {b Contract: stored bytes order like the values.} For any two
      values [a] and [b], the unsigned lexicographic order of their
      encodings ([String.compare], shorter prefix first) has the sign
      of the order the cell type's users compare values by, and equal
      encodings are equal values. [Tape]'s cell registers compare two
      cells stored by the same codec by their bytes alone, so a codec
      that breaks this makes a register-based sort (Extsort's) sort
      differently on a byte device than in RAM. The {!Tuple} codecs
      keep it for [String.compare] and integer order (a tested
      property). *)

  type 'a t = 'a codec

  val tuple_string : max_bytes:int -> string t
  (** Cells are strings encoded as {!Tuple.write_str}, each at most
      [max_bytes] bytes once encoded ({!Tuple.str_size}: the length,
      plus one per 0x00 byte, plus 2). A byte device sizes its slots
      from [max_bytes], so a caller that knows its cells up front
      passes the largest [Tuple.str_size] among them (and the blank's),
      and one that does not passes the worst case for strings of up to
      [n] bytes, [2 * n + 2]. Storing a longer cell on a byte device
      raises [Invalid_argument]; so does creating one whose blank does
      not fit. *)

  val tuple_int : int t
  val tuple_char : char t
end

(** A byte device's cells as their stored bytes, without decoding:
    what [Tape]'s cell registers use. Both byte backends have them. *)
type 'a slots = {
  codec : 'a Codec.t;  (** the codec that wrote the bytes *)
  load : int -> Bytes.t -> int;
      (** [load i dst] copies cell [i]'s stored bytes to the front of
          [dst] (at least [codec.max_bytes] long) and returns their
          length. A never-written cell gives the blank's encoding, the
          bytes a write of the blank stores. *)
  store : int -> Bytes.t -> int -> unit;
      (** [store i src len] makes the first [len] bytes of [src] cell
          [i]'s stored bytes, exactly as writing the value they encode
          would. *)
}

val slots : 'a t -> 'a slots option
(** The device's slot accessor: [Some] on the file and shard backends,
    [None] on mem. *)

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
          sequential read-ahead; an encoded cell is at most 65535
          bytes *)
  | Shard of { dir : string; shard_bytes : int; raw : raw_factory option }
      (** a directory of CRC-framed run files, each the concatenation
          of presence-flagged self-delimiting cell encodings, indexed
          by an atomically-renamed MANIFEST; whole shards load and
          rewrite on cache eviction, so sequential run writes touch
          each file once per pass. In RAM a shard is a block of the
          file backend's slot cache, so the same 65535-byte cell limit
          holds. *)

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
