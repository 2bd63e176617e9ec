(* Pluggable storage backends for tapes.

   A device is the dumb cell store underneath a tape: get/set by
   position, sync, close.  Everything the cost model cares
   about — head position, direction, reversal counting, budgets, fault
   injection — lives above this seam in [Tape], so swapping
   the backend cannot change any measured number.

   Three backends:
   - [Mem]: the original growable in-RAM array (the default, and the
     fallback when no byte codec is available for the cell type);
   - [File]: one flat file of CRC-framed fixed-size-slot blocks, with
     sequential read-ahead;
   - [Shard]: a directory of run files, each a CRC-framed
     concatenation of self-delimiting tuple-framed cells (Extsort's
     spill format; the encodings are order-preserving, so stored cells
     compare bytewise like their values), indexed by an
     atomically-renamed MANIFEST.

   Both byte backends keep their cells in one slot cache ([slot_cache]
   below): lines of fixed-size slots of stored bytes, which [Codec]
   encodes and decodes in place and [slots] hands to [Tape]'s
   registers as they are. A backend brings only its block I/O and its
   replacement policy.

   The byte-backed backends do all their syscalls through a [Raw]
   record of closures (pread/pwrite/fsync/rename/remove), so
   [lib/faults] can inject storage-level failures — short reads and
   writes, EIO, ENOSPC, torn writes, bit rot — underneath the cost
   model.  Every framed read is checksum-verified; a mismatch
   quarantines the cache line and raises [Corrupt], which the
   phase-level retry combinator treats as transient: the re-scan pays
   honest reversals and the reread of the quarantined block is counted
   in the health counters below. *)

type stats = {
  resident_bytes : int;  (** RAM the cells take (a byte device: its cache capacity) *)
  io_read_bytes : int;
  io_write_bytes : int;
  backing_files : int;  (** files created; close does not decrement it *)
}

let zero_stats =
  { resident_bytes = 0; io_read_bytes = 0; io_write_bytes = 0; backing_files = 0 }

(* ------------------------------------------------------------------ *)
(* Health: process-wide integrity counters and the event hook.

   These are the device-side halves of [Obs.Counters] fields: [lib/obs]
   snapshots them (it depends on this library; this library cannot
   depend on it) and installs the trace listener at link time. *)

type event =
  | Corrupt_detected of { device : string; offset : int }
  | Quarantine_reread of { device : string; offset : int }
  | Cleanup_failed of { device : string; path : string; error : string }

let listener : (event -> unit) ref = ref (fun _ -> ())
let on_event f = listener := f
let emit_event e = !listener e

let corrupt_counter = Atomic.make 0
let reread_counter = Atomic.make 0
let cleanup_counter = Atomic.make 0
let corrupt_detected () = Atomic.get corrupt_counter
let quarantine_rereads () = Atomic.get reread_counter
let cleanup_failures () = Atomic.get cleanup_counter

exception Corrupt of { device : string; path : string; offset : int }

let () =
  Printexc.register_printer (function
    | Corrupt { device; path; offset } ->
        Some
          (Printf.sprintf "Tape.Device.Corrupt(device %s, cell %d, %s)" device
             offset path)
    | _ -> None)

(* A cleanup failure (close/remove in a [dev_close]) must never raise:
   close paths run inside [Fun.protect] finalizers, where an exception
   would mask the real error and leave sibling tapes unclosed.  It is
   counted and announced instead, so leaked spill files are never
   invisible. *)
let cleanup_failed ~device ~path e =
  Atomic.incr cleanup_counter;
  emit_event (Cleanup_failed { device; path; error = Printexc.to_string e })

let raise_corrupt ~device ~path ~offset =
  Atomic.incr corrupt_counter;
  emit_event (Corrupt_detected { device; offset });
  raise (Corrupt { device; path; offset })

(* ------------------------------------------------------------------ *)
(* Raw: the syscall seam under the byte-backed backends.

   One closure per primitive, each performing (at most) a single
   syscall — [pread]/[pwrite] may return short counts, and the
   full-transfer loops live {e above} the seam, so injected short
   transfers exercise the same loops real ones do. *)

module Raw = struct
  type t = {
    pread : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> off:int -> int;
    pwrite : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> off:int -> int;
    fsync : Unix.file_descr -> unit;
    rename : string -> string -> unit;
    remove : string -> unit;
  }

  let real =
    {
      (* [Unix.lseek]'s native-int offsets: the [LargeFile] variant
         boxes an [Int64] each way *)
      pread =
        (fun fd buf ~pos ~len ~off ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          Unix.read fd buf pos len);
      pwrite =
        (fun fd buf ~pos ~len ~off ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          Unix.write fd buf pos len);
      fsync = Unix.fsync;
      rename = Sys.rename;
      remove = Sys.remove;
    }
end

type raw_factory = name:string -> Raw.t

(* Full-transfer loops over the single-syscall seam, for the first
   [len] bytes of [buf] (all of it by default).  A zero-byte read means
   EOF: the rest is blank (the backing file is sparse at never-written
   offsets). *)
let full_pread ?len (raw : Raw.t) fd buf ~off =
  let len = Option.value len ~default:(Bytes.length buf) in
  let rec go done_ =
    if done_ < len then begin
      let n = raw.pread fd buf ~pos:done_ ~len:(len - done_) ~off:(off + done_) in
      if n = 0 then Bytes.fill buf done_ (len - done_) '\x00' else go (done_ + n)
    end
  in
  go 0

let full_pwrite ?len (raw : Raw.t) fd buf ~off =
  let len = Option.value len ~default:(Bytes.length buf) in
  let rec go done_ =
    if done_ < len then
      go (done_ + raw.pwrite fd buf ~pos:done_ ~len:(len - done_) ~off:(off + done_))
  in
  go 0

(* Whole small files (shards, manifests) are written to a ".tmp"
   sibling ([tmp], formatted once per file by the caller) and renamed
   into place, so a crash at any raw-op boundary leaves either the old
   file, the new file, or a detectable ".tmp" torn tail — never a
   silently half-new file under the final name. *)
let tmp_path path = path ^ ".tmp"

let write_file_atomic ?len (raw : Raw.t) ~tmp path content ~fsync =
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     full_pwrite ?len raw fd content ~off:0;
     if fsync then raw.Raw.fsync fd;
     Unix.close fd
   with e ->
     (* the half-written tmp must not outlive the failure (ENOSPC
        aborts leave no orphans); removal best-effort on a sick disk *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try raw.Raw.remove tmp with _ -> ());
     raise e);
  raw.Raw.rename tmp path

module Codec = struct
  (* How cells of type ['a] become bytes, in place: [write buf pos v]
     writes exactly [size v] bytes at [pos] and returns the end offset;
     [skip buf pos limit] returns the end offset of the encoding at
     [pos] without looking at [limit] or past it, so shard files need no
     cell index.  [size v] must not exceed [max_bytes]: the slot cache
     sizes its slots with it, so a string codec takes the largest
     encoding its tape will hold rather than assuming every byte
     escaped. *)
  type 'a codec = {
    size : 'a -> int;
    write : Bytes.t -> int -> 'a -> int;
    skip : Bytes.t -> int -> int -> int;
    value : Bytes.t -> int -> int -> 'a;
    max_bytes : int;
  }

  type 'a t = 'a codec

  let tuple_string ~max_bytes =
    {
      size = Tuple.str_size;
      write = Tuple.write_str;
      skip = Tuple.str_end;
      value = Tuple.str_value;
      max_bytes;
    }

  let tuple_int =
    {
      size = Tuple.int_size;
      write = Tuple.write_int;
      skip = Tuple.int_end;
      value = Tuple.int_value;
      max_bytes = 9;
    }

  let tuple_char =
    {
      size = (fun c -> Tuple.int_size (Char.code c));
      write = (fun buf pos c -> Tuple.write_int buf pos (Char.code c));
      skip = Tuple.int_end;
      value =
        (fun buf pos limit ->
          Char.chr (Tuple.int_value buf pos limit land 0xff));
      max_bytes = 2;
    }
end

(* A byte device's cells as their stored bytes: [load i dst] copies
   cell [i]'s encoding to the front of [dst] (at least
   [codec.max_bytes] long) and returns its length - the blank's
   encoding for a never-written cell; [store i src len] makes the
   first [len] bytes of [src] cell [i]'s encoding. *)
type 'a slots = {
  codec : 'a Codec.t;
  load : int -> Bytes.t -> int;
  store : int -> Bytes.t -> int -> unit;
}

type 'a t = {
  dev_get : int -> 'a;
  dev_set : int -> 'a -> unit;
  dev_slots : 'a slots option;
  dev_sync : unit -> unit;
  dev_close : unit -> unit;
  dev_stats : unit -> stats;
}

let get d i = d.dev_get i
let set d i v = d.dev_set i v
let slots d = d.dev_slots
let sync d = d.dev_sync ()
let close d = d.dev_close ()
let stats d = d.dev_stats ()

type spec =
  | Mem
  | File of {
      dir : string;
      block_bytes : int;
      cache_blocks : int;
      raw : raw_factory option;
    }
  | Shard of { dir : string; shard_bytes : int; raw : raw_factory option }

let file_spec ?(block_bytes = 1 lsl 16) ?(cache_blocks = 16) ?raw dir =
  File { dir; block_bytes; cache_blocks; raw }

let shard_spec ?(shard_bytes = 1 lsl 20) ?raw dir = Shard { dir; shard_bytes; raw }

(* ------------------------------------------------------------------ *)
(* Mem: the original growable array.                                   *)

let mem ~blank =
  let cells = ref (Array.make 16 blank) in
  let grow pos =
    if pos >= Array.length !cells then begin
      let cap = max (pos + 1) (2 * Array.length !cells) in
      let fresh = Array.make cap blank in
      Array.blit !cells 0 fresh 0 (Array.length !cells);
      cells := fresh
    end
  in
  {
    dev_get = (fun i -> if i < Array.length !cells then !cells.(i) else blank);
    dev_set =
      (fun i v ->
        grow i;
        !cells.(i) <- v);
    dev_slots = None;
    dev_sync = (fun () -> ());
    dev_close = (fun () -> ());
    dev_stats =
      (fun () ->
        { zero_stats with resident_bytes = Array.length !cells * 8 });
  }

(* ------------------------------------------------------------------ *)
(* Shared plumbing for the on-disk backends.                           *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let sanitize name =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '-')
    name

(* unique backing-file names even when two tapes share a name *)
let file_counter = Atomic.make 0

let raw_of = function Some f -> f | None -> (fun ~name:_ -> Raw.real)

(* ------------------------------------------------------------------ *)
(* On-disk framing constants, shared with the offline scrubber.        *)

let file_magic = "STLBTAP2"
let file_header_bytes = 16

(* frame = presence byte (0x00 blank / 0x01 written) + CRC-32 of the
   payload (big-endian) + payload *)
let frame_overhead = 5

(* The frame at [off] of [buf] is intact: blank (0x00 and a zero CRC
   field - a non-zero CRC under a zero presence byte is a torn or
   rotted frame) or written (0x01 and the CRC-32 of its [bbytes]
   payload). *)
let frame_ok buf off bbytes =
  match Bytes.get buf off with
  | '\x00' -> Bytes.get_int32_be buf (off + 1) = 0l
  | '\x01' ->
      Bytes.get_int32_be buf (off + 1)
      = Int32.of_int (Util.Hash.crc32_sub buf (off + frame_overhead) bbytes)
  | _ -> false

let shard_magic = "STLBSHD2"
let shard_header_bytes = 12

(* The payload CRC-32 of a whole shard file, the first [len] bytes of
   [b], when its frame is intact (magic, then the stored CRC of the
   payload), [None] otherwise. *)
let shard_payload_crc b len =
  if len < shard_header_bytes || Bytes.sub_string b 0 8 <> shard_magic then None
  else
    let crc = Util.Hash.crc32_sub b shard_header_bytes (len - shard_header_bytes) in
    if Bytes.get_int32_be b 8 = Int32.of_int crc then Some crc else None

let manifest_name = "MANIFEST"
let manifest_magic = "STLBMAN2"

(* MANIFEST contents: the magic line, then one "crc len file" line per
   run file, sorted by file name. *)
let manifest_header = manifest_magic ^ "\n"
let manifest_line f (crc, len) = Printf.sprintf "%08x %d %s\n" crc len f

let manifest_contents entries =
  String.concat ""
    (manifest_header
    :: List.map (fun (f, meta) -> manifest_line f meta) (List.sort compare entries))

module Names = Map.Make (String)

(* a run file's MANIFEST entry: (payload crc, payload bytes) and the
   line that says so *)
type manifest_entry = { mutable meta : int * int; mutable line : string }

(* ------------------------------------------------------------------ *)
(* The slot cache both byte backends keep.                             *)

(* One cache line: a block of fixed-size slots, each a 2-byte
   big-endian length, then that many stored bytes, then zeros up to the
   next slot. Length 0 means never written, so a zero-filled line is
   all blank. *)
type line = {
  mutable blk : int; (* block index, -1 = empty *)
  mutable dirty : bool;
  mutable buf : Bytes.t; (* empty until the line first takes a block *)
}

(* a slot's length prefix is 2 bytes *)
let max_slot_payload = 0xffff
let slot_bytes (codec : _ Codec.t) = codec.Codec.max_bytes + 2

(* The cells of a byte device: [nlines] direct-mapped lines of
   [per_block]-slot blocks, slots [codec.max_bytes + 2] bytes long. A
   backend brings only its block I/O and its replacement policy:
   - [fetch line b] fills [line.buf] with block [b]'s slots, or answers
     false when the block fails its integrity check ([where b] is then
     the file named by [Corrupt]);
   - [write_back line] stores [line.buf] as block [line.blk];
   - [read_ahead]: a miss on the block after the last one resolved also
     loads the next block, if its line is idle;
   - [sync], [close] and [stats] finish the device's own operations
     ([stats]' resident size is filled in here). *)
let slot_cache (type a) ~kind ~(codec : a Codec.t) ~(blank : a) ~name ~per_block
    ~nlines ~read_ahead ~fetch ~where ~write_back ~sync ~close ~stats : a t =
  let slot_bytes = slot_bytes codec in
  let bbytes = per_block * slot_bytes in
  let cache =
    Array.init nlines (fun _ -> { blk = -1; dirty = false; buf = Bytes.empty })
  in
  let flush line =
    if line.dirty then begin
      write_back line;
      line.dirty <- false
    end
  in
  (* block index quarantined by the last integrity failure; the next
     clean load of the same block is the recovery reread the ledger
     counts *)
  let quarantined = ref (-1) in
  let load line b =
    (* a tape that never reaches a line's blocks never pays for it *)
    if Bytes.length line.buf = 0 then line.buf <- Bytes.create bbytes;
    if not (fetch line b) then begin
      line.blk <- -1;
      quarantined := b;
      raise_corrupt ~device:name ~path:(where b) ~offset:(b * per_block)
    end;
    if !quarantined = b then begin
      quarantined := -1;
      Atomic.incr reread_counter;
      emit_event (Quarantine_reread { device = name; offset = b * per_block })
    end;
    line.blk <- b
  in
  let last_loaded = ref (-2) in
  let line_for b =
    let line = cache.(b mod nlines) in
    if line.blk <> b then begin
      flush line;
      let sequential = b = !last_loaded + 1 in
      load line b;
      last_loaded := b;
      (* sequential scan: pull the next block in while the disk head is
         here, provided its cache line is idle *)
      if sequential && read_ahead then begin
        let nb = b + 1 in
        let nline = cache.(nb mod nlines) in
        (* a speculative prefetch must not fail a block nobody asked
           for: the detection is counted, but the demand load decides
           whether the corruption is real (bit rot in transit heals on
           the re-read; rot at rest raises there) *)
        if nline.blk <> nb && not nline.dirty then
          try load nline nb with Corrupt _ -> quarantined := -1
      end
    end
    else last_loaded := b;
    line
  in
  (* The window: the block [slot] last resolved, its first slot and its
     cache line, so a cell of that block is found with a subtraction
     and a multiply instead of [line_for]'s divisions. It is valid only
     while the line's [blk] still names the block (an eviction, a
     prefetch or a CRC quarantine changes it), and it starts at block
     -2, which no line holds (-1 marks an empty one). A hit is a hit
     of [line_for] on the block it last resolved, so it leaves the
     read-ahead state as it is. *)
  let win_blk = ref (-2) in
  let win_first = ref (-2 * per_block) in
  let win_line = ref cache.(0) in
  (* the offset of slot [i] in [!win_line.buf], after moving the
     window onto its block *)
  let slot i =
    let d = i - !win_first in
    if d >= 0 && d < per_block && !win_line.blk = !win_blk then d * slot_bytes
    else begin
      let b = i / per_block in
      let line = line_for b in
      win_blk := b;
      win_first := b * per_block;
      win_line := line;
      (i - !win_first) * slot_bytes
    end
  in
  (* the offset of slot [i] in [!win_line.buf], made ready for a
     [len]-byte payload at offset + 2: length prefix set, line dirty.
     Slack past a slot's length is always zero (fetches fill or copy
     whole blocks, and every write keeps it so), which keeps the
     backing file deterministic: only a shrink leaves bytes to clear. *)
  let slot_for_write i len =
    let off = slot i in
    if len > codec.Codec.max_bytes then
      invalid_arg (Printf.sprintf "Device.%s: encoded cell exceeds codec max_bytes" kind);
    if len > max_slot_payload then
      invalid_arg
        (Printf.sprintf
           "Device.%s: encoded cell of %d bytes exceeds the %d-byte slot limit"
           kind len max_slot_payload);
    let line = !win_line in
    let old_len = Bytes.get_uint16_be line.buf off in
    Bytes.set_uint16_be line.buf off len;
    if old_len > len then Bytes.fill line.buf (off + 2 + len) (old_len - len) '\x00';
    line.dirty <- true;
    off
  in
  let blank_bytes = Bytes.create (codec.Codec.size blank) in
  ignore (codec.Codec.write blank_bytes 0 blank);
  {
    dev_get =
      (fun i ->
        let off = slot i in
        let buf = !win_line.buf in
        let len = Bytes.get_uint16_be buf off in
        if len = 0 then blank else codec.Codec.value buf (off + 2) (off + 2 + len));
    dev_set =
      (fun i v ->
        let len = codec.Codec.size v in
        let off = slot_for_write i len in
        ignore (codec.Codec.write !win_line.buf (off + 2) v));
    dev_slots =
      Some
        {
          codec;
          load =
            (fun i dst ->
              let off = slot i in
              let buf = !win_line.buf in
              match Bytes.get_uint16_be buf off with
              | 0 ->
                  Bytes.blit blank_bytes 0 dst 0 (Bytes.length blank_bytes);
                  Bytes.length blank_bytes
              | len ->
                  Bytes.blit buf (off + 2) dst 0 len;
                  len);
          store =
            (fun i src len ->
              let off = slot_for_write i len in
              Bytes.blit src 0 !win_line.buf (off + 2) len);
        };
    dev_sync =
      (fun () ->
        Array.iter flush cache;
        sync ());
    dev_close = close;
    dev_stats = (fun () -> { (stats ()) with resident_bytes = nlines * bbytes });
  }

(* ------------------------------------------------------------------ *)
(* File: one flat file of CRC-framed blocks, with read-ahead.          *)

let file (type a) ~dir ~block_bytes ~cache_blocks ~raw ~(codec : a Codec.t)
    ~(blank : a) ~name : a t =
  mkdir_p dir;
  let raw = (raw_of raw) ~name in
  let id = Atomic.fetch_and_add file_counter 1 in
  let path = Filename.concat dir (Printf.sprintf "%s-%d.tape" (sanitize name) id) in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let slot_bytes = slot_bytes codec in
  let slots_per_block = max 1 (block_bytes / slot_bytes) in
  let bbytes = slots_per_block * slot_bytes in
  let fbytes = frame_overhead + bbytes in
  (* self-describing header so the offline scrubber can walk the file
     without knowing the codec *)
  let hdr = Bytes.make file_header_bytes '\x00' in
  Bytes.blit_string file_magic 0 hdr 0 8;
  Bytes.set_int32_be hdr 8 (Int32.of_int bbytes);
  Bytes.set_int32_be hdr 12 (Int32.of_int slot_bytes);
  (* if the header write itself fails (ENOSPC on a just-created file),
     the constructor must not leak the empty file it O_CREAT'd *)
  (try full_pwrite raw fd hdr ~off:0
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try raw.Raw.remove path with _ -> ());
     raise e);
  let frame = Bytes.create fbytes in
  let io_r = ref 0 and io_w = ref 0 in
  let block_off b = file_header_bytes + (b * fbytes) in
  let nlines = max 1 cache_blocks in
  slot_cache ~kind:"file" ~codec ~blank ~name ~per_block:slots_per_block ~nlines
    ~read_ahead:(nlines > 1)
    ~fetch:(fun line b ->
      full_pread raw fd frame ~off:(block_off b);
      io_r := !io_r + bbytes;
      frame_ok frame 0 bbytes
      && begin
           (* a blank frame is a never-written (sparse) region *)
           if Bytes.get frame 0 = '\x00' then Bytes.fill line.buf 0 bbytes '\x00'
           else Bytes.blit frame frame_overhead line.buf 0 bbytes;
           true
         end)
    ~where:(fun _ -> path)
    ~write_back:(fun line ->
      Bytes.set frame 0 '\x01';
      Bytes.set_int32_be frame 1 (Int32.of_int (Util.Hash.crc32_sub line.buf 0 bbytes));
      Bytes.blit line.buf 0 frame frame_overhead bbytes;
      full_pwrite raw fd frame ~off:(block_off line.blk);
      io_w := !io_w + bbytes)
    ~sync:(fun () -> raw.Raw.fsync fd)
    ~close:(fun () ->
      (* the spill file is about to be deleted, so dirty cache lines
         are not flushed: a close must succeed even on a full disk *)
      (try Unix.close fd with e -> cleanup_failed ~device:name ~path e);
      try raw.Raw.remove path with e -> cleanup_failed ~device:name ~path e)
    ~stats:(fun () ->
      { zero_stats with io_read_bytes = !io_r; io_write_bytes = !io_w;
        backing_files = 1 })

(* ------------------------------------------------------------------ *)
(* Shard: a directory of run files of self-delimiting framed cells.    *)

(* On disk each cell of a shard is a 1-byte presence flag (0x00 =
   blank, 0x01 = present) followed, when present, by its stored bytes,
   which are self-delimiting - so a fully-written run file is exactly
   the concatenation of order-preserving cell encodings interleaved
   with 0x01 flags, and boundaries are recovered from [codec.skip]'s
   end offsets. The file itself carries an 8-byte magic and the CRC-32
   of that payload, and the directory's MANIFEST lists every run file
   with its expected checksum - the reopen protocol (see DESIGN.md)
   discards anything the MANIFEST does not vouch for. A shard is one
   block of the slot cache. *)

(* shards a shard device keeps in RAM *)
let cache_shards = 2

let shard (type a) ~dir ~shard_bytes ~raw ~(codec : a Codec.t) ~(blank : a) ~name :
    a t =
  mkdir_p dir;
  let raw = (raw_of raw) ~name in
  let id = Atomic.fetch_and_add file_counter 1 in
  let base = Filename.concat dir (Printf.sprintf "%s-%d" (sanitize name) id) in
  mkdir_p base;
  (* a fresh device owns its directory: stale leftovers (from a
     crashed run that reused the name) would otherwise be read back as
     data, so they are cleared — loudly, via the cleanup counter, if
     clearing fails *)
  (match Sys.readdir base with
  | [||] -> ()
  | entries ->
      Array.iter
        (fun f ->
          let p = Filename.concat base f in
          try raw.Raw.remove p with e -> cleanup_failed ~device:name ~path:p e)
        entries
  | exception Sys_error _ -> ());
  (* cells per shard from the target shard size and the largest cell *)
  let cells = max 16 (shard_bytes / (codec.Codec.max_bytes + 1)) in
  let slot_bytes = slot_bytes codec in
  (* the run file being read or written: large enough for any shard
     this device writes *)
  let data = Bytes.create (shard_header_bytes + (cells * (codec.Codec.max_bytes + 1))) in
  let io_r = ref 0 and io_w = ref 0 in
  let nfiles = ref 0 in
  (* filename -> its (payload crc, payload bytes) and MANIFEST line;
     the MANIFEST is written from these lines on every flush (atomic
     tmp+rename) and fsync'd on [sync]. A line is formatted, and the
     contents rebuilt in [mbuf], only when its file's crc or length
     changes. *)
  let manifest = ref Names.empty in
  let mbuf = ref (Bytes.of_string manifest_header) in
  let mlen = ref (Bytes.length !mbuf) in
  (* run file [s]'s name, path and ".tmp" path, formatted once per
     shard *)
  let run_files = Hashtbl.create 16 in
  let run_file s =
    match Hashtbl.find run_files s with
    | r -> r
    | exception Not_found ->
        let f = Printf.sprintf "run-%06d.shard" s in
        let p = Filename.concat base f in
        let r = (f, p, tmp_path p) in
        Hashtbl.add run_files s r;
        r
  in
  let path s =
    let _, p, _ = run_file s in
    p
  in
  let manifest_path = Filename.concat base manifest_name in
  let manifest_tmp = tmp_path manifest_path in
  let set_entry f meta =
    let changed =
      match Names.find_opt f !manifest with
      | Some e when e.meta = meta -> false
      | Some e ->
          mlen := !mlen - String.length e.line;
          e.meta <- meta;
          e.line <- manifest_line f meta;
          mlen := !mlen + String.length e.line;
          true
      | None ->
          let e = { meta; line = manifest_line f meta } in
          manifest := Names.add f e !manifest;
          mlen := !mlen + String.length e.line;
          true
    in
    if changed then begin
      if !mlen > Bytes.length !mbuf then
        mbuf := Bytes.create (max !mlen (2 * Bytes.length !mbuf));
      let pos = ref 0 in
      let add l =
        Bytes.blit_string l 0 !mbuf !pos (String.length l);
        pos := !pos + String.length l
      in
      add manifest_header;
      Names.iter (fun _ e -> add e.line) !manifest
    end
  in
  let write_manifest ~fsync =
    write_file_atomic ~len:!mlen raw ~tmp:manifest_tmp manifest_path !mbuf ~fsync
  in
  (* copy the present cells of the intact run file [src, len) into
     their slots *)
  let unpack (line : line) src len =
    let pos = ref shard_header_bytes and i = ref 0 in
    while !pos < len && !i < cells do
      (match Bytes.get src !pos with
      | '\x00' -> incr pos
      | _ ->
          let start = !pos + 1 in
          let stop = codec.Codec.skip src start len in
          let off = !i * slot_bytes in
          Bytes.set_uint16_be line.buf off (stop - start);
          Bytes.blit src start line.buf (off + 2) (stop - start);
          pos := stop);
      incr i
    done
  in
  slot_cache ~kind:"shard" ~codec ~blank ~name ~per_block:cells ~nlines:cache_shards
    ~read_ahead:false
    ~fetch:(fun line s ->
      (* the line holds no block from here until the fetch succeeds *)
      line.blk <- -1;
      Bytes.fill line.buf 0 (Bytes.length line.buf) '\x00';
      let p = path s in
      (* an absent run file is a never-written shard *)
      (not (Sys.file_exists p))
      || begin
           let fd = Unix.openfile p [ Unix.O_RDONLY ] 0o644 in
           (* the size without [fstat]'s record *)
           let len = Unix.lseek fd 0 Unix.SEEK_END in
           let src = if len <= Bytes.length data then data else Bytes.create len in
           (try full_pread raw fd src ~len ~off:0
            with e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              raise e);
           Unix.close fd;
           shard_payload_crc src len <> None
           && begin
                io_r := !io_r + len - shard_header_bytes;
                unpack line src len;
                true
              end
         end)
    ~where:path
    ~write_back:(fun line ->
      Bytes.blit_string shard_magic 0 data 0 8;
      let pos = ref shard_header_bytes in
      for i = 0 to cells - 1 do
        let off = i * slot_bytes in
        match Bytes.get_uint16_be line.buf off with
        | 0 ->
            Bytes.set data !pos '\x00';
            incr pos
        | n ->
            Bytes.set data !pos '\x01';
            Bytes.blit line.buf (off + 2) data (!pos + 1) n;
            pos := !pos + 1 + n
      done;
      let payload = !pos - shard_header_bytes in
      let crc = Util.Hash.crc32_sub data shard_header_bytes payload in
      Bytes.set_int32_be data 8 (Int32.of_int crc);
      let f, p, tmp = run_file line.blk in
      if not (Names.mem f !manifest) then incr nfiles;
      write_file_atomic ~len:!pos raw ~tmp p data ~fsync:false;
      set_entry f (crc, payload);
      write_manifest ~fsync:false;
      io_w := !io_w + payload)
    ~sync:(fun () -> write_manifest ~fsync:true)
    ~close:(fun () ->
      (* spill is scratch: delete without flushing, and never raise —
         each failure is counted instead of aborting the sweep *)
      (match Sys.readdir base with
      | entries ->
          Array.iter
            (fun f ->
              let p = Filename.concat base f in
              try raw.Raw.remove p with e -> cleanup_failed ~device:name ~path:p e)
            entries
      | exception Sys_error _ -> ());
      try Unix.rmdir base with e -> cleanup_failed ~device:name ~path:base e)
    ~stats:(fun () ->
      { zero_stats with io_read_bytes = !io_r; io_write_bytes = !io_w;
        backing_files = !nfiles })

let instantiate (type a) ?(codec : a Codec.t option) spec ~(blank : a) ~name :
    a t =
  match (spec, codec) with
  | Mem, _ | _, None ->
      (* byte-backed backends need a codec; without one the tape is
         honest RAM — the caller keeps working, just not externally *)
      mem ~blank
  | (File _ | Shard _), Some codec
    when codec.Codec.size blank > codec.Codec.max_bytes ->
      invalid_arg "Device.instantiate: the blank's encoding exceeds codec max_bytes"
  | File { dir; block_bytes; cache_blocks; raw }, Some codec ->
      file ~dir ~block_bytes ~cache_blocks ~raw ~codec ~blank ~name
  | Shard { dir; shard_bytes; raw }, Some codec ->
      shard ~dir ~shard_bytes ~raw ~codec ~blank ~name

(* ------------------------------------------------------------------ *)
(* Scrub: offline integrity walk over a spill directory.               *)

module Scrub = struct
  type finding = { path : string; offset : int; what : string }

  type report = {
    files_checked : int;
    blocks_checked : int;
    findings : finding list;
    removed : int;
  }

  let empty = { files_checked = 0; blocks_checked = 0; findings = []; removed = 0 }

  let finding ~path ~offset what = { path; offset; what }

  let read_file path =
    let ic = In_channel.open_bin path in
    let data = In_channel.input_all ic in
    In_channel.close ic;
    data

  (* One ".tape" file: self-describing header, then CRC-framed blocks
     to EOF.  A trailing partial frame is a torn tail (a crash mid
     pwrite); any interior frame failing its checksum is corrupt. *)
  let check_tape_file path =
    let data = read_file path in
    let len = String.length data in
    if len < file_header_bytes || String.sub data 0 8 <> file_magic then
      (0, [ finding ~path ~offset:(-1) "bad-header" ])
    else begin
      let b = Bytes.unsafe_of_string data in
      let bbytes = Int32.to_int (Bytes.get_int32_be b 8) in
      let fbytes = frame_overhead + bbytes in
      if bbytes <= 0 then (0, [ finding ~path ~offset:(-1) "bad-header" ])
      else begin
        let findings = ref [] in
        let blocks = ref 0 in
        let off = ref file_header_bytes in
        while !off < len do
          if len - !off < fbytes then begin
            findings := finding ~path ~offset:!off "torn" :: !findings;
            off := len
          end
          else begin
            incr blocks;
            if not (frame_ok b !off bbytes) then
              findings := finding ~path ~offset:!off "crc-mismatch" :: !findings;
            off := !off + fbytes
          end
        done;
        (!blocks, List.rev !findings)
      end
    end

  let parse_manifest data =
    match String.split_on_char '\n' data with
    | magic :: rest when magic = manifest_magic ->
        let entries =
          List.filter_map
            (fun line ->
              match String.index_opt line ' ' with
              | None -> None
              | Some i -> (
                  let crc = int_of_string_opt ("0x" ^ String.sub line 0 i) in
                  let rest = String.sub line (i + 1) (String.length line - i - 1) in
                  match (crc, String.index_opt rest ' ') with
                  | Some crc, Some j ->
                      let len = int_of_string_opt (String.sub rest 0 j) in
                      let f = String.sub rest (j + 1) (String.length rest - j - 1) in
                      Option.map (fun len -> (f, (crc, len))) len
                  | _ -> None))
            rest
        in
        Some entries
    | _ -> None

  (* One shard directory: the MANIFEST vouches for run files by
     checksum; a run file it does not vouch for — unlisted, mismatched,
     or a leftover ".tmp" — is a torn tail or an orphan. *)
  let check_shard_dir base =
    let entries = try Sys.readdir base with Sys_error _ -> [||] in
    let mpath = Filename.concat base manifest_name in
    let listed =
      if Sys.file_exists mpath then parse_manifest (read_file mpath) else None
    in
    let findings = ref [] in
    let blocks = ref 0 in
    let files = ref 0 in
    (match (listed, Sys.file_exists mpath) with
    | None, true ->
        findings := finding ~path:mpath ~offset:(-1) "bad-header" :: !findings
    | _ -> ());
    Array.iter
      (fun f ->
        let p = Filename.concat base f in
        if f <> manifest_name && not (Sys.is_directory p) then begin
          incr files;
          if Filename.check_suffix f ".tmp" then
            findings := finding ~path:p ~offset:(-1) "torn" :: !findings
          else begin
            incr blocks;
            let data = read_file p in
            let vouched =
              match listed with
              | None -> None
              | Some entries -> List.assoc_opt f entries
            in
            match
              (shard_payload_crc (Bytes.unsafe_of_string data) (String.length data),
               vouched)
            with
            | None, _ ->
                findings := finding ~path:p ~offset:0 "crc-mismatch" :: !findings
            | Some _, None ->
                (* no manifest vouches for this file: even an intact
                   frame is an orphan of a crashed run *)
                findings := finding ~path:p ~offset:(-1) "orphan" :: !findings
            | Some actual, Some (crc, len) ->
                if crc <> actual || len <> String.length data - shard_header_bytes
                then findings := finding ~path:p ~offset:(-1) "torn" :: !findings
          end
        end)
      entries;
    (* files listed in the manifest but gone from disk: a crash between
       a remove and the manifest rewrite *)
    (match listed with
    | Some entries ->
        List.iter
          (fun (f, _) ->
            if not (Sys.file_exists (Filename.concat base f)) then
              findings :=
                finding ~path:(Filename.concat base f) ~offset:(-1) "missing"
                :: !findings)
          entries
    | None -> ());
    (!files, !blocks, List.rev !findings)

  let dir ?(fix = false) root =
    if not (Sys.file_exists root && Sys.is_directory root) then empty
    else begin
      let files_checked = ref 0 in
      let blocks_checked = ref 0 in
      let findings = ref [] in
      Array.iter
        (fun f ->
          let p = Filename.concat root f in
          if Sys.is_directory p then begin
            let nf, nb, fs = check_shard_dir p in
            files_checked := !files_checked + nf;
            blocks_checked := !blocks_checked + nb;
            findings := !findings @ fs
          end
          else if Filename.check_suffix f ".tape" then begin
            incr files_checked;
            let nb, fs = check_tape_file p in
            blocks_checked := !blocks_checked + nb;
            findings := !findings @ fs
          end
          else begin
            incr files_checked;
            findings := !findings @ [ finding ~path:p ~offset:(-1) "orphan" ]
          end)
        (try Sys.readdir root with Sys_error _ -> [||]);
      let removed = ref 0 in
      if fix then begin
        (* a flagged file is scratch from a dead run: remove it, then
           prune directories the removals emptied *)
        List.iter
          (fun { path; _ } ->
            if Sys.file_exists path then begin
              try
                Sys.remove path;
                incr removed
              with Sys_error _ -> ()
            end)
          !findings;
        Array.iter
          (fun f ->
            let p = Filename.concat root f in
            if Sys.is_directory p then begin
              (* drop manifest entries whose shard was removed above
                 (or lost to the crash) so the survivors re-verify
                 clean; same sorted format and the same atomic
                 tmp + rename write as the device's own rewrite *)
              let mpath = Filename.concat p manifest_name in
              (if Sys.file_exists mpath then
                 match parse_manifest (read_file mpath) with
                 | Some entries ->
                     let live =
                       List.filter
                         (fun (f, _) -> Sys.file_exists (Filename.concat p f))
                         entries
                     in
                     if List.length live <> List.length entries then
                       write_file_atomic Raw.real ~tmp:(tmp_path mpath) mpath
                         (Bytes.unsafe_of_string (manifest_contents live))
                         ~fsync:true
                 | None -> ());
              (match Sys.readdir p with
              | [| m |] when m = manifest_name ->
                  (* the manifest alone vouches for nothing *)
                  (try
                     Sys.remove (Filename.concat p m);
                     incr removed
                   with Sys_error _ -> ())
              | _ -> ());
              match Sys.readdir p with
              | [||] -> ( try Unix.rmdir p with Unix.Unix_error _ -> ())
              | _ -> ()
            end)
          (try Sys.readdir root with Sys_error _ -> [||])
      end;
      {
        files_checked = !files_checked;
        blocks_checked = !blocks_checked;
        findings = !findings;
        removed = !removed;
      }
    end
end
