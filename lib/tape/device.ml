(* Pluggable storage backends for tapes.

   A device is the dumb cell store underneath a tape: get/set by
   position, extent, sync, close.  Everything the cost model cares
   about — head position, direction, reversal counting, budgets, fault
   injection, observers — lives above this seam in [Tape], so swapping
   the backend cannot change any measured number.

   Three backends:
   - [Mem]: the original growable in-RAM array (the default, and the
     fallback when no byte codec is available for the cell type);
   - [File]: one flat file of CRC-framed fixed-size-slot blocks behind
     a direct-mapped block cache with sequential read-ahead;
   - [Shard]: a directory of run files, each a CRC-framed
     concatenation of self-delimiting tuple-framed cells (Extsort's
     spill format; the encodings are order-preserving, so stored cells
     compare bytewise like their values), indexed by an
     atomically-renamed MANIFEST.

   Both byte backends encode and decode cells in place in their block
   or shard buffer through [Codec].

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
  resident_bytes : int;  (** bytes currently cached in RAM *)
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

let reset_health () =
  Atomic.set corrupt_counter 0;
  Atomic.set reread_counter 0;
  Atomic.set cleanup_counter 0

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
      pread =
        (fun fd buf ~pos ~len ~off ->
          ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
          Unix.read fd buf pos len);
      pwrite =
        (fun fd buf ~pos ~len ~off ->
          ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
          Unix.write fd buf pos len);
      fsync = Unix.fsync;
      rename = Sys.rename;
      remove = Sys.remove;
    }
end

type raw_factory = name:string -> Raw.t

(* Full-transfer loops over the single-syscall seam.  A zero-byte read
   means EOF: the rest of the buffer is blank (the backing file is
   sparse at never-written offsets). *)
let full_pread (raw : Raw.t) fd buf ~off =
  let len = Bytes.length buf in
  let rec go done_ =
    if done_ < len then begin
      let n = raw.pread fd buf ~pos:done_ ~len:(len - done_) ~off:(off + done_) in
      if n = 0 then Bytes.fill buf done_ (len - done_) '\x00' else go (done_ + n)
    end
  in
  go 0

let full_pwrite (raw : Raw.t) fd buf ~off =
  let len = Bytes.length buf in
  let rec go done_ =
    if done_ < len then
      go (done_ + raw.pwrite fd buf ~pos:done_ ~len:(len - done_) ~off:(off + done_))
  in
  go 0

(* Whole small files (shards, manifests) are written to a ".tmp"
   sibling and renamed into place, so a crash at any raw-op boundary
   leaves either the old file, the new file, or a detectable ".tmp"
   torn tail — never a silently half-new file under the final name. *)
let write_file_atomic (raw : Raw.t) path content ~fsync =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     full_pwrite raw fd content ~off:0;
     if fsync then raw.Raw.fsync fd;
     Unix.close fd
   with e ->
     (* the half-written tmp must not outlive the failure (ENOSPC
        aborts leave no orphans); removal best-effort on a sick disk *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try raw.Raw.remove tmp with _ -> ());
     raise e);
  raw.Raw.rename tmp path

type 'a t = {
  dev_kind : string;
  dev_get : int -> 'a;
  dev_set : int -> 'a -> unit;
  dev_extent : unit -> int;
  dev_sync : unit -> unit;
  dev_close : unit -> unit;
  dev_stats : unit -> stats;
  dev_verify : unit -> verify_report;
}

and verify_report = { blocks_checked : int; corrupt_at : int list }

let clean_report = { blocks_checked = 0; corrupt_at = [] }

let kind d = d.dev_kind
let get d i = d.dev_get i
let set d i v = d.dev_set i v
let extent d = d.dev_extent ()
let sync d = d.dev_sync ()
let close d = d.dev_close ()
let stats d = d.dev_stats ()
let verify d = d.dev_verify ()

module Codec = struct
  (* How cells of type ['a] become bytes, in place: [write buf pos v]
     writes exactly [size v] bytes at [pos] and returns the end offset;
     [read buf pos limit] returns the value and its end offset without
     looking at [limit] or past it, so shard files need no cell index
     and a file slot's neighbours are never read.  [size v] must not
     exceed [max_bytes] (the file backend sizes its slots with it). *)
  type 'a codec = {
    size : 'a -> int;
    write : Bytes.t -> int -> 'a -> int;
    read : Bytes.t -> int -> int -> 'a * int;
    max_bytes : int;
  }

  type 'a t = 'a codec

  let tuple_string ~max_len =
    {
      size = Tuple.str_size;
      write = Tuple.write_str;
      read = Tuple.read_str;
      (* worst case: every byte escaped, plus code + terminator *)
      max_bytes = (2 * max_len) + 2;
    }

  let tuple_int =
    { size = Tuple.int_size; write = Tuple.write_int; read = Tuple.read_int; max_bytes = 9 }

  let tuple_char =
    {
      size = (fun c -> Tuple.int_size (Char.code c));
      write = (fun buf pos c -> Tuple.write_int buf pos (Char.code c));
      read =
        (fun buf pos limit ->
          let n, stop = Tuple.read_int buf pos limit in
          (Char.chr (n land 0xff), stop));
      max_bytes = 2;
    }
end

type spec =
  | Mem
  | File of {
      dir : string;
      block_bytes : int;
      cache_blocks : int;
      raw : raw_factory option;
    }
  | Shard of { dir : string; shard_bytes : int; raw : raw_factory option }

let mem_spec = Mem

let file_spec ?(block_bytes = 1 lsl 16) ?(cache_blocks = 16) ?raw dir =
  File { dir; block_bytes; cache_blocks; raw }

let shard_spec ?(shard_bytes = 1 lsl 20) ?raw dir = Shard { dir; shard_bytes; raw }

(* ------------------------------------------------------------------ *)
(* Mem: the original growable array.                                   *)

let mem ~blank =
  let cells = ref (Array.make 16 blank) in
  let hi = ref 0 in
  let grow pos =
    if pos >= Array.length !cells then begin
      let cap = max (pos + 1) (2 * Array.length !cells) in
      let fresh = Array.make cap blank in
      Array.blit !cells 0 fresh 0 (Array.length !cells);
      cells := fresh
    end
  in
  {
    dev_kind = "mem";
    dev_get = (fun i -> if i < Array.length !cells then !cells.(i) else blank);
    dev_set =
      (fun i v ->
        grow i;
        !cells.(i) <- v;
        if i >= !hi then hi := i + 1);
    dev_extent = (fun () -> !hi);
    dev_sync = (fun () -> ());
    dev_close = (fun () -> ());
    dev_stats =
      (fun () ->
        { zero_stats with resident_bytes = Array.length !cells * 8 });
    dev_verify = (fun () -> clean_report);
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

(* a slot's length prefix is 2 bytes *)
let max_slot_payload = 0xffff

let shard_magic = "STLBSHD2"
let shard_header_bytes = 12

(* The payload CRC-32 of a whole shard file when its frame is intact
   (magic, then the stored CRC of the payload), [None] otherwise. *)
let shard_payload_crc data =
  let len = String.length data in
  if len < shard_header_bytes || String.sub data 0 8 <> shard_magic then None
  else
    let b = Bytes.unsafe_of_string data in
    let crc =
      Util.Hash.crc32_sub b shard_header_bytes (len - shard_header_bytes)
    in
    if Bytes.get_int32_be b 8 = Int32.of_int crc then Some crc else None

let manifest_name = "MANIFEST"
let manifest_magic = "STLBMAN2"

(* MANIFEST contents: the magic line, then one "crc len file" line per
   run file, sorted. *)
let manifest_contents entries =
  let b = Buffer.create 256 in
  Buffer.add_string b manifest_magic;
  Buffer.add_char b '\n';
  List.iter
    (fun (f, (crc, len)) ->
      Buffer.add_string b (Printf.sprintf "%08x %d %s\n" crc len f))
    (List.sort compare entries);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* File: CRC-framed fixed-size slots, direct-mapped cache, read-ahead. *)

type block = {
  mutable blk : int; (* block index, -1 = empty *)
  mutable dirty : bool;
  buf : Bytes.t;
}

let file (type a) ~dir ~block_bytes ~cache_blocks ~raw ~(codec : a Codec.t)
    ~(blank : a) ~name : a t =
  mkdir_p dir;
  let raw = (raw_of raw) ~name in
  let id = Atomic.fetch_and_add file_counter 1 in
  let path = Filename.concat dir (Printf.sprintf "%s-%d.tape" (sanitize name) id) in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* slot = 2-byte big-endian payload length + payload; length 0 means
     never written, so a fresh (sparse) region reads as blank *)
  let slot_bytes = codec.Codec.max_bytes + 2 in
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
  let cache =
    Array.init (max 1 cache_blocks) (fun _ ->
        { blk = -1; dirty = false; buf = Bytes.create bbytes })
  in
  let nlines = Array.length cache in
  let hi = ref 0 in
  let io_r = ref 0 and io_w = ref 0 in
  let last_loaded = ref (-2) in
  (* block index quarantined by the last CRC failure; the next clean
     load of the same block is the recovery reread the ledger counts *)
  let quarantined = ref (-1) in
  let block_off b = file_header_bytes + (b * fbytes) in
  let flush line =
    if line.dirty then begin
      Bytes.set frame 0 '\x01';
      Bytes.set_int32_be frame 1
        (Int32.of_int (Util.Hash.crc32_sub line.buf 0 bbytes));
      Bytes.blit line.buf 0 frame frame_overhead bbytes;
      full_pwrite raw fd frame ~off:(block_off line.blk);
      io_w := !io_w + bbytes;
      line.dirty <- false
    end
  in
  let bad line b =
    line.blk <- -1;
    quarantined := b;
    raise_corrupt ~device:name ~path ~offset:(b * slots_per_block)
  in
  let load line b =
    full_pread raw fd frame ~off:(block_off b);
    io_r := !io_r + bbytes;
    if not (frame_ok frame 0 bbytes) then bad line b;
    (* a blank frame is a never-written (sparse) region *)
    if Bytes.get frame 0 = '\x00' then Bytes.fill line.buf 0 bbytes '\x00'
    else Bytes.blit frame frame_overhead line.buf 0 bbytes;
    if !quarantined = b then begin
      quarantined := -1;
      Atomic.incr reread_counter;
      emit_event (Quarantine_reread { device = name; offset = b * slots_per_block })
    end;
    line.blk <- b
  in
  let line_for b =
    let line = cache.(b mod nlines) in
    if line.blk <> b then begin
      flush line;
      let sequential = b = !last_loaded + 1 in
      load line b;
      last_loaded := b;
      (* sequential scan: pull the next block in while the disk head is
         here, provided its cache line is idle *)
      if sequential && nlines > 1 then begin
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
  let slot_off i = i mod slots_per_block * slot_bytes in
  {
    dev_kind = "file";
    dev_get =
      (fun i ->
        let line = line_for (i / slots_per_block) in
        let off = slot_off i in
        let len = Bytes.get_uint16_be line.buf off in
        if len = 0 then blank
        else fst (codec.Codec.read line.buf (off + 2) (off + 2 + len)));
    dev_set =
      (fun i v ->
        let line = line_for (i / slots_per_block) in
        let off = slot_off i in
        let len = codec.Codec.size v in
        if len > codec.Codec.max_bytes then
          invalid_arg "Device.file: encoded cell exceeds codec max_bytes";
        if len > max_slot_payload then
          invalid_arg
            (Printf.sprintf
               "Device.file: encoded cell of %d bytes exceeds the %d-byte \
                slot limit"
               len max_slot_payload);
        let old_len = Bytes.get_uint16_be line.buf off in
        Bytes.set_uint16_be line.buf off len;
        let stop = codec.Codec.write line.buf (off + 2) v in
        (* slack past a slot's length is always zero (loads fill or copy
           whole blocks, and every set keeps it so), which keeps the
           backing file deterministic: only a shrink leaves bytes to
           clear *)
        if old_len > len then Bytes.fill line.buf stop (old_len - len) '\x00';
        line.dirty <- true;
        if i >= !hi then hi := i + 1);
    dev_extent = (fun () -> !hi);
    dev_sync =
      (fun () ->
        Array.iter flush cache;
        raw.Raw.fsync fd);
    dev_close =
      (fun () ->
        (* the spill file is about to be deleted, so dirty cache lines
           are not flushed: a close must succeed even on a full disk *)
        (try Unix.close fd with e -> cleanup_failed ~device:name ~path e);
        try raw.Raw.remove path with e -> cleanup_failed ~device:name ~path e);
    dev_stats =
      (fun () ->
        {
          resident_bytes = nlines * bbytes;
          io_read_bytes = !io_r;
          io_write_bytes = !io_w;
          backing_files = 1;
        });
    dev_verify =
      (fun () ->
        Array.iter flush cache;
        let nblocks = (!hi + slots_per_block - 1) / slots_per_block in
        let scratch = Bytes.create fbytes in
        let corrupt_at = ref [] in
        for b = nblocks - 1 downto 0 do
          full_pread raw fd scratch ~off:(block_off b);
          io_r := !io_r + bbytes;
          if not (frame_ok scratch 0 bbytes) then
            corrupt_at := (b * slots_per_block) :: !corrupt_at
        done;
        { blocks_checked = nblocks; corrupt_at = !corrupt_at });
  }

(* ------------------------------------------------------------------ *)
(* Shard: directory of run files of self-delimiting framed cells.      *)

(* In-cache image of one shard: the decoded cells plus a written map.
   On disk each cell is a 1-byte presence flag (0x00 = blank, 0x01 =
   present) followed, when present, by the codec's self-delimiting
   encoding — so a fully-written run file is exactly the concatenation
   of order-preserving cell encodings interleaved with 0x01 flags, and
   boundaries are recovered from [codec.read]'s end offsets.  The
   file itself carries an 8-byte magic and the CRC-32 of that payload,
   and the directory's MANIFEST lists every run file with its expected
   checksum — the reopen protocol (see DESIGN.md) discards anything
   the MANIFEST does not vouch for. *)
type 'a shard = {
  mutable sh : int; (* shard index, -1 = empty *)
  mutable sh_dirty : bool;
  vals : 'a array;
  present : Bytes.t;
}

(* shards a shard device keeps in RAM *)
let cache_shards = 2

let shard (type a) ~dir ~shard_bytes ~raw ~(codec : a Codec.t)
    ~(blank : a) ~name : a t =
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
  (* cells per shard from the target shard size and the worst-case cell *)
  let cells = max 16 (shard_bytes / (codec.Codec.max_bytes + 1)) in
  let cache =
    Array.init cache_shards (fun _ ->
        {
          sh = -1;
          sh_dirty = false;
          vals = Array.make cells blank;
          present = Bytes.make cells '\x00';
        })
  in
  let nlines = Array.length cache in
  let hi = ref 0 in
  let io_r = ref 0 and io_w = ref 0 in
  let nfiles = ref 0 in
  let quarantined = ref (-1) in
  (* filename -> (payload crc, payload bytes); mirrored to MANIFEST on
     every flush (atomic tmp+rename), fsync'd on [sync] *)
  let manifest : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let fname s = Printf.sprintf "run-%06d.shard" s in
  let path s = Filename.concat base (fname s) in
  let manifest_path = Filename.concat base manifest_name in
  let write_manifest ~fsync =
    let entries = Hashtbl.fold (fun f meta acc -> (f, meta) :: acc) manifest [] in
    write_file_atomic raw manifest_path
      (Bytes.unsafe_of_string (manifest_contents entries))
      ~fsync
  in
  let flush line =
    if line.sh_dirty then begin
      let payload = ref 0 in
      for i = 0 to cells - 1 do
        payload :=
          !payload + 1
          + if Bytes.get line.present i = '\x00' then 0 else codec.Codec.size line.vals.(i)
      done;
      let payload = !payload in
      let data = Bytes.create (shard_header_bytes + payload) in
      Bytes.blit_string shard_magic 0 data 0 8;
      let pos = ref shard_header_bytes in
      for i = 0 to cells - 1 do
        if Bytes.get line.present i = '\x00' then begin
          Bytes.set data !pos '\x00';
          incr pos
        end
        else begin
          Bytes.set data !pos '\x01';
          pos := codec.Codec.write data (!pos + 1) line.vals.(i)
        end
      done;
      let crc = Util.Hash.crc32_sub data shard_header_bytes payload in
      Bytes.set_int32_be data 8 (Int32.of_int crc);
      let f = fname line.sh in
      if not (Hashtbl.mem manifest f) then incr nfiles;
      write_file_atomic raw (path line.sh) data ~fsync:false;
      Hashtbl.replace manifest f (crc, payload);
      write_manifest ~fsync:false;
      io_w := !io_w + payload;
      line.sh_dirty <- false
    end
  in
  (* read + CRC-check one shard file; [None] when absent, the whole
     file (header included) when intact, [Corrupt] (with the shard's
     first cell position) when the frame fails any check *)
  let read_shard s =
    let p = path s in
    if not (Sys.file_exists p) then None
    else begin
      let fd = Unix.openfile p [ Unix.O_RDONLY ] 0o644 in
      let size = (Unix.fstat fd).Unix.st_size in
      let data = Bytes.create size in
      (try full_pread raw fd data ~off:0
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Unix.close fd;
      if shard_payload_crc (Bytes.unsafe_to_string data) = None then begin
        quarantined := s;
        raise_corrupt ~device:name ~path:p ~offset:(s * cells)
      end;
      Some data
    end
  in
  let load line s =
    Array.fill line.vals 0 cells blank;
    Bytes.fill line.present 0 cells '\x00';
    line.sh <- -1;
    (match read_shard s with
    | None -> ()
    | Some data ->
        let limit = Bytes.length data in
        io_r := !io_r + limit - shard_header_bytes;
        let pos = ref shard_header_bytes in
        let i = ref 0 in
        while !pos < limit && !i < cells do
          (match Bytes.get data !pos with
          | '\x00' -> incr pos
          | _ ->
              let v, stop = codec.Codec.read data (!pos + 1) limit in
              line.vals.(!i) <- v;
              Bytes.set line.present !i '\x01';
              pos := stop);
          incr i
        done);
    if !quarantined = s then begin
      quarantined := -1;
      Atomic.incr reread_counter;
      emit_event (Quarantine_reread { device = name; offset = s * cells })
    end;
    line.sh <- s
  in
  let line_for s =
    let line = cache.(s mod nlines) in
    if line.sh <> s then begin
      flush line;
      load line s
    end;
    line
  in
  {
    dev_kind = "shard";
    dev_get =
      (fun i ->
        let line = line_for (i / cells) in
        let j = i mod cells in
        if Bytes.get line.present j = '\x00' then blank else line.vals.(j));
    dev_set =
      (fun i v ->
        let line = line_for (i / cells) in
        let j = i mod cells in
        line.vals.(j) <- v;
        Bytes.set line.present j '\x01';
        line.sh_dirty <- true;
        if i >= !hi then hi := i + 1);
    dev_extent = (fun () -> !hi);
    dev_sync =
      (fun () ->
        Array.iter flush cache;
        write_manifest ~fsync:true);
    dev_close =
      (fun () ->
        (* spill is scratch: delete without flushing, and never raise —
           each failure is counted instead of aborting the sweep *)
        (match Sys.readdir base with
        | entries ->
            Array.iter
              (fun f ->
                let p = Filename.concat base f in
                try raw.Raw.remove p
                with e -> cleanup_failed ~device:name ~path:p e)
              entries
        | exception Sys_error _ -> ());
        try Unix.rmdir base with e -> cleanup_failed ~device:name ~path:base e);
    dev_stats =
      (fun () ->
        {
          resident_bytes = nlines * cells * (codec.Codec.max_bytes + 1);
          io_read_bytes = !io_r;
          io_write_bytes = !io_w;
          backing_files = !nfiles;
        });
    dev_verify =
      (fun () ->
        Array.iter flush cache;
        let nshards = (!hi + cells - 1) / cells in
        let corrupt_at = ref [] in
        let checked = ref 0 in
        for s = nshards - 1 downto 0 do
          if Sys.file_exists (path s) then begin
            incr checked;
            match read_shard s with
            | Some data -> io_r := !io_r + Bytes.length data - shard_header_bytes
            | None -> ()
            | exception Corrupt _ ->
                quarantined := -1;
                corrupt_at := (s * cells) :: !corrupt_at
          end
        done;
        { blocks_checked = !checked; corrupt_at = !corrupt_at });
  }

let instantiate (type a) ?(codec : a Codec.t option) spec ~(blank : a) ~name :
    a t =
  match (spec, codec) with
  | Mem, _ | _, None ->
      (* byte-backed backends need a codec; without one the tape is
         honest RAM — the caller keeps working, just not externally *)
      mem ~blank
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
            match (shard_payload_crc data, vouched) with
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
                       write_file_atomic Raw.real mpath
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
