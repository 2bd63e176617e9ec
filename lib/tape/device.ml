(* Pluggable storage backends for tapes.

   A device is the dumb cell store underneath a tape: get/set by
   position, sync, close.  Everything the cost model cares
   about — head position, direction, reversal counting, budgets, fault
   injection — lives above this seam in [Tape], so swapping
   the backend cannot change any measured number.

   Three backends:
   - [Mem]: lines of slots that stay in RAM (the default);
   - [File]: one flat file of CRC-framed fixed-size-slot blocks, with
     sequential read-ahead;
   - [Shard]: a directory of run files, each one CRC frame of the
     slot cache, indexed by an atomically-renamed MANIFEST.

   Every backend keeps its cells in one layout (the device record [t]
   below): lines of fixed-size slots of stored bytes, which [Codec]
   encodes and decodes in place and [load]/[store] hand to [Tape]'s
   registers as they are; a backend says only which line holds a
   block. The byte backends hold them in one slot cache
   ([slot_cache]), whose cache line is one on-disk frame, byte for
   byte, so a byte backend brings only its block I/O and its
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
  resident_bytes : int;  (** RAM the cells take: the lines a device holds *)
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

(* Full-transfer loops over the single-syscall seam: a read fills all
   of [buf], a write writes its first [len] bytes (all of it by
   default).  A zero-byte read means EOF: the rest is blank (the
   backing file is sparse at never-written offsets). *)
let full_pread (raw : Raw.t) fd buf ~off =
  let len = Bytes.length buf in
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
     writes exactly [size v] bytes at [pos] and returns the end offset.
     [size v] must not exceed [max_bytes]: the slot cache sizes its
     slots with it, so a string codec takes the largest encoding its
     tape will hold rather than assuming every byte escaped. *)
  type 'a codec = {
    size : 'a -> int;
    write : Bytes.t -> int -> 'a -> int;
    value : Bytes.t -> int -> int -> 'a;
    max_bytes : int;
  }

  type 'a t = 'a codec

  let tuple_string ~max_bytes =
    {
      size = Tuple.str_size;
      write = Tuple.write_str;
      value = Tuple.str_value;
      max_bytes;
    }

  let tuple_int =
    {
      size = Tuple.int_size;
      write = Tuple.write_int;
      value = Tuple.int_value;
      max_bytes = 9;
    }

  (* a char is {!tuple_int} of its code, written directly: 0x14 alone
     for '\x00', else 0x15 and the char *)
  let tuple_char =
    {
      size = (fun c -> if c = '\x00' then 1 else 2);
      write =
        (fun buf pos c ->
          if c = '\x00' then Bytes.set buf pos '\x14'
          else (Bytes.set buf pos '\x15'; Bytes.set buf (pos + 1) c);
          if c = '\x00' then pos + 1 else pos + 2);
      value = (fun buf pos limit -> if limit - pos = 2 then Bytes.get buf (pos + 1) else '\x00');
      max_bytes = 2;
    }
end

(* Where [view d i] found cell [i]: [vbuf] is the line of the block
   the device resolved last, [voff] the offset of [i]'s slot in it and
   [vleft] the slots from [i]'s to the block's end; [vleft = 0] when
   that block does not hold [i]. *)
type view = { mutable vbuf : Bytes.t; mutable voff : int; mutable vleft : int }

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
   payload (big-endian) + payload: a file tape's block, a shard's run
   file, and a cache line of either *)
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

(* the CRC field of the frame at the front of [buf], as the unsigned
   value [Util.Hash.crc32] gives *)
let frame_crc buf = Int32.to_int (Bytes.get_int32_be buf 1) land 0xffff_ffff

let manifest_name = "MANIFEST"

(* also versions the layout of the run files it lists *)
let manifest_magic = "STLBMAN3"

(* MANIFEST contents: the magic line, then one "crc len file" line per
   run file, sorted by file name. *)
let manifest_header = manifest_magic ^ "\n"
let hex_digits = "0123456789abcdef"

(* [Printf.sprintf "%08x %d %s\n" crc len f] for a CRC-32 and a
   length, written byte by byte, so a shard flush does not run the
   format interpreter; the scrubber re-emits only lines it parsed, and
   it parses only lines of this form *)
let manifest_line f (crc, len) =
  let nd = ref 1 and p = ref 10 in
  while !p <= len && !nd < 19 do
    incr nd;
    p := !p * 10
  done;
  let b = Bytes.create (10 + !nd + String.length f + 1) in
  for k = 0 to 7 do
    Bytes.set b k hex_digits.[(crc lsr (4 * (7 - k))) land 15]
  done;
  Bytes.set b 8 ' ';
  let n = ref len in
  for k = 8 + !nd downto 9 do
    Bytes.set b k (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  Bytes.set b (9 + !nd) ' ';
  Bytes.blit_string f 0 b (10 + !nd) (String.length f);
  Bytes.set b (Bytes.length b - 1) '\n';
  Bytes.unsafe_to_string b

let manifest_contents entries =
  String.concat ""
    (manifest_header
    :: List.map (fun (f, meta) -> manifest_line f meta) (List.sort compare entries))

module Names = Map.Make (String)

(* a run file's MANIFEST entry: (frame crc, payload bytes) and the
   line that says so *)
type manifest_entry = { mutable meta : int * int; mutable line : string }

(* ------------------------------------------------------------------ *)
(* Slots: the one cell layout, and the code that reads and writes it.  *)

(* One line: the frame of a block, exactly as it lies on disk - the
   presence byte, the CRC, then the block's fixed-size slots, each a
   2-byte big-endian length, then that many stored bytes, then zeros
   up to the next slot. Length 0 means never written, so a zero-filled
   line is all blank. A mem line is never fetched or written back, so
   its header stays zero.

   A device may make its slots narrower than its codec's widest cell
   (mem does, so that one wide cell does not widen every slot). A cell
   too wide for its slot is kept out of line: its slot's length reads
   [out_of_line], its payload stays zero, and its bytes are the line's
   [wide] entry for the slot. A byte backend's slots always fit the
   codec, so its lines never hold one. *)
type line = {
  mutable blk : int; (* block index, -1 = empty *)
  mutable dirty : bool;
  mutable buf : Bytes.t; (* empty until the line first takes a block *)
  mutable wide : Bytes.t array; (* out-of-line cells by slot; [||] if none *)
}

(* a slot's length prefix is 2 bytes *)
let max_slot_payload = 0xffff
let out_of_line = 0xffff
let slot_size (codec : _ Codec.t) = codec.Codec.max_bytes + 2

(* A device: its cells in lines of [per_block] slots of [sbytes]
   bytes, where [line_for b] answers the line that holds block [b]
   (the one step a backend brings). The window is the block the
   device resolved last, its first cell and its line, so a cell of
   that block is found with a subtraction and a multiply instead of
   [line_for]'s divisions. It is valid only while the line's [blk]
   still names the block (an eviction, a prefetch or a CRC quarantine
   changes it), and it starts at block -2, which no line holds (-1
   marks an empty one). A cell longer than [inline = sbytes - 2]
   bytes is out of line. *)
type 'a t = {
  kind : string;
  codec : 'a Codec.t;
  blank : 'a;
  sbytes : int;
  inline : int;
  per_block : int;
  line_for : int -> line;
  mutable win_blk : int;
  mutable win_first : int;
  mutable win_line : line;
  vw : view;
  dev_sync : unit -> unit;
  dev_close : unit -> unit;
  dev_stats : unit -> stats;
}

let new_line blk buf = { blk; dirty = false; buf; wide = [||] }
let no_line = new_line (-1) Bytes.empty

let make ~kind ~codec ~blank ~sbytes ~per_block ~line_for ~sync ~close ~stats =
  { kind; codec; blank; sbytes; inline = sbytes - 2; per_block; line_for;
    win_blk = -2; win_first = -2 * per_block; win_line = no_line;
    vw = { vbuf = Bytes.empty; voff = 0; vleft = 0 }; dev_sync = sync;
    dev_close = close; dev_stats = stats }

(* the offset of slot [i] in [d.win_line.buf], after moving the window
   onto its block *)
let[@inline] slot d i =
  let k = i - d.win_first in
  if k >= 0 && k < d.per_block && d.win_line.blk = d.win_blk then
    frame_overhead + (k * d.sbytes)
  else begin
    let b = i / d.per_block in
    let line = d.line_for b in
    d.win_blk <- b;
    d.win_first <- b * d.per_block;
    d.win_line <- line;
    frame_overhead + ((i - d.win_first) * d.sbytes)
  end

let[@inline] check_len d len =
  if len > d.codec.Codec.max_bytes then
    invalid_arg (Printf.sprintf "Device.%s: encoded cell exceeds codec max_bytes" d.kind);
  if len <= d.inline && len > max_slot_payload then
    invalid_arg
      (Printf.sprintf "Device.%s: encoded cell of %d bytes exceeds the %d-byte slot limit"
         d.kind len max_slot_payload)

(* Make slot [i] (in [d.win_line]) say [len], clearing what it held:
   the payload past [len] of an inline cell, or an out-of-line cell.
   Slack past a slot's length is always zero (a fetch reads back a
   whole written frame or zeroes a blank one, a mem line starts
   zeroed, and every write keeps it so), which keeps the backing file
   deterministic: only a shrink leaves bytes to clear. *)
let[@inline] relabel d i off len =
  let line = d.win_line in
  let old_len = Bytes.get_uint16_be line.buf off in
  let kept = if len > d.inline then 0 else len in
  if old_len > d.inline then line.wide.(i - d.win_first) <- Bytes.empty
  else if old_len > kept then Bytes.fill line.buf (off + 2 + kept) (old_len - kept) '\x00';
  Bytes.set_uint16_be line.buf off (if len > d.inline then out_of_line else len);
  line.dirty <- true

(* the offset of slot [i] in [d.win_line.buf], made ready for an
   inline [len]-byte payload at offset + 2 *)
let[@inline] slot_for_write d i len =
  let off = slot d i in
  relabel d i off len;
  off

(* The out-of-line halves of the accessors (mem only), kept out of
   them so that the inline paths stay small enough to inline. *)
let wide d i = d.win_line.wide.(i - d.win_first)
let get_wide d i = let b = wide d i in d.codec.Codec.value b 0 (Bytes.length b)

let load_wide d i dst =
  let b = wide d i in
  Bytes.blit b 0 dst 0 (Bytes.length b);
  Bytes.length b

(* slot [i] now holds the out-of-line cell [b] *)
let store_wide d i b =
  relabel d i (slot d i) (Bytes.length b);
  let line = d.win_line in
  if line.wide = [||] then line.wide <- Array.make d.per_block Bytes.empty;
  line.wide.(i - d.win_first) <- b

let set_wide d i v len =
  let b = Bytes.create len in
  ignore (d.codec.Codec.write b 0 v);
  store_wide d i b

let get d i =
  let off = slot d i in
  let buf = d.win_line.buf in
  let len = Bytes.get_uint16_be buf off in
  if len = 0 then d.blank
  else if len <= d.inline then d.codec.Codec.value buf (off + 2) (off + 2 + len)
  else get_wide d i

let set d i v =
  let len = d.codec.Codec.size v in
  check_len d len;
  if len <= d.inline then begin
    let off = slot_for_write d i len in
    ignore (d.codec.Codec.write d.win_line.buf (off + 2) v)
  end
  else set_wide d i v len

let load d i dst =
  let off = slot d i in
  let buf = d.win_line.buf in
  let len = Bytes.get_uint16_be buf off in
  if len = 0 then d.codec.Codec.write dst 0 d.blank
  else if len <= d.inline then begin
    Bytes.blit buf (off + 2) dst 0 len;
    len
  end
  else load_wide d i dst

let store d i src len =
  check_len d len;
  if len <= d.inline then begin
    let off = slot_for_write d i len in
    Bytes.blit src 0 d.win_line.buf (off + 2) len
  end
  else store_wide d i (Bytes.sub src 0 len)

let view d i =
  let v = d.vw and k = i - d.win_first in
  if k >= 0 && k < d.per_block && d.win_line.blk = d.win_blk then begin
    v.vbuf <- d.win_line.buf;
    v.voff <- frame_overhead + (k * d.sbytes);
    v.vleft <- d.per_block - k
  end
  else v.vleft <- 0;
  v

let codec d = d.codec
let slot_bytes d = d.sbytes
let sync d = d.dev_sync ()
let close d = d.dev_close ()
let stats d = d.dev_stats ()

(* ------------------------------------------------------------------ *)
(* Mem: resident lines.                                                *)

(* widest mem slot: a wider cell is kept out of line *)
let mem_slot_bytes = 32

(* Line [b] holds block [b], allocated when a cell of the block is
   first touched, and stays in RAM. A line is 256 bytes at most, so a
   short-lived tape allocates little, and only on the minor heap. A
   slot is at most [mem_slot_bytes] wide, so RAM follows the bytes
   stored: a cell longer than 30 bytes takes a slot and its own
   bytes, however wide the codec's widest cell. *)
let mem (type a) ~(codec : a Codec.t) ~(blank : a) : a t =
  let sbytes = min (slot_size codec) mem_slot_bytes in
  let per_block = (256 - frame_overhead) / sbytes in
  let bbytes = per_block * sbytes in
  let lines = ref [| no_line |] and held = ref 0 in
  let line_for b =
    let n = Array.length !lines in
    if b >= n then begin
      let grown = Array.make (max (b + 1) (2 * n)) no_line in
      Array.blit !lines 0 grown 0 n;
      lines := grown
    end;
    if !lines.(b) == no_line then begin
      !lines.(b) <- new_line b (Bytes.make (frame_overhead + bbytes) '\x00');
      incr held
    end;
    !lines.(b)
  in
  let wide_bytes () =
    Array.fold_left
      (fun a l -> Array.fold_left (fun a c -> a + Bytes.length c) a l.wide)
      0 !lines
  in
  make ~kind:"mem" ~codec ~blank ~sbytes ~per_block ~line_for ~sync:ignore ~close:ignore
    ~stats:(fun () ->
      { zero_stats with resident_bytes = (!held * bbytes) + wide_bytes () })

(* ------------------------------------------------------------------ *)
(* The slot cache both byte backends keep.                             *)

(* The cells of a byte device: [nlines] direct-mapped lines of
   [per_block]-slot blocks, slots [codec.max_bytes + 2] bytes long,
   each line one frame. A backend brings only its block I/O and its
   replacement policy:
   - [fetch line b] reads block [b]'s frame into [line.buf] (all of
     it), or answers false when what is stored cannot be that frame;
     the cache then checks it with [frame_ok], and [where b] is the
     file [Corrupt] names;
   - [write_back line] stores [line.buf], its presence byte and CRC
     filled in, as block [line.blk];
   - [read_ahead]: a miss on the block after the last one resolved also
     loads the next block, if its line is idle;
   - [sync], [close] and [stats] finish the device's own operations
     ([stats]' resident size is filled in here). *)
let slot_cache (type a) ~kind ~(codec : a Codec.t) ~(blank : a) ~name ~per_block
    ~nlines ~read_ahead ~fetch ~where ~write_back ~sync ~close ~stats : a t =
  let bbytes = per_block * slot_size codec in
  let cache =
    Array.init nlines (fun _ -> new_line (-1) Bytes.empty)
  in
  let flush line =
    if line.dirty then begin
      Bytes.set line.buf 0 '\x01';
      Bytes.set_int32_be line.buf 1
        (Int32.of_int (Util.Hash.crc32_sub line.buf frame_overhead bbytes));
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
    if Bytes.length line.buf = 0 then line.buf <- Bytes.create (frame_overhead + bbytes);
    (* the line holds no block from here until the fetch succeeds *)
    line.blk <- -1;
    if not (fetch line b && frame_ok line.buf 0 bbytes) then begin
      quarantined := b;
      raise_corrupt ~device:name ~path:(where b) ~offset:(b * per_block)
    end;
    (* a blank frame is a never-written block: its slots are zero
       whatever lies behind the header (a sparse file reads as zeros) *)
    if Bytes.get line.buf 0 = '\x00' then
      Bytes.fill line.buf frame_overhead bbytes '\x00';
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
  (* a window hit is a hit of [line_for] on the block it last
     resolved, so it leaves the read-ahead state as it is *)
  make ~kind ~codec ~blank ~sbytes:(slot_size codec) ~per_block ~line_for
    ~sync:(fun () ->
      Array.iter flush cache;
      sync ())
    ~close
    ~stats:(fun () -> { (stats ()) with resident_bytes = nlines * bbytes })

(* ------------------------------------------------------------------ *)
(* File: one flat file of CRC-framed blocks, with read-ahead.          *)

let file (type a) ~dir ~block_bytes ~cache_blocks ~raw ~(codec : a Codec.t)
    ~(blank : a) ~name : a t =
  mkdir_p dir;
  let raw = (raw_of raw) ~name in
  let id = Atomic.fetch_and_add file_counter 1 in
  let path = Filename.concat dir (Printf.sprintf "%s-%d.tape" (sanitize name) id) in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let slot_bytes = slot_size codec in
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
  let io_r = ref 0 and io_w = ref 0 in
  let block_off b = file_header_bytes + (b * fbytes) in
  let nlines = max 1 cache_blocks in
  slot_cache ~kind:"file" ~codec ~blank ~name ~per_block:slots_per_block ~nlines
    ~read_ahead:(nlines > 1)
    ~fetch:(fun line b ->
      full_pread raw fd line.buf ~off:(block_off b);
      io_r := !io_r + bbytes;
      true)
    ~where:(fun _ -> path)
    ~write_back:(fun line ->
      full_pwrite raw fd line.buf ~off:(block_off line.blk);
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
(* Shard: a directory of run files, one cache line each.               *)

(* A shard is one block of the slot cache, and its run file is that
   block's frame as the cache line holds it: presence byte, CRC-32,
   then the slots verbatim. The directory's MANIFEST lists every run
   file with its expected checksum - the reopen protocol (see
   DESIGN.md) discards anything the MANIFEST does not vouch for. *)

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
  (* cells per shard as if each took a presence byte and its largest
     encoding, not a slot: the shard count of a tape, and so its run
     files, flushes, loads and raw syscalls, stays that of the packed
     layout this one replaced - fault plans and crash points are keyed
     by raw operation. *)
  let cells = max 16 (shard_bytes / (codec.Codec.max_bytes + 1)) in
  let bbytes = cells * slot_size codec in
  let io_r = ref 0 and io_w = ref 0 in
  let nfiles = ref 0 in
  (* filename -> its (frame crc, payload bytes) and MANIFEST line;
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
  slot_cache ~kind:"shard" ~codec ~blank ~name ~per_block:cells ~nlines:cache_shards
    ~read_ahead:false
    ~fetch:(fun line s ->
      let p = path s in
      if not (Sys.file_exists p) then begin
        (* an absent run file is a never-written shard: a blank frame *)
        Bytes.fill line.buf 0 frame_overhead '\x00';
        true
      end
      else begin
        let fd = Unix.openfile p [ Unix.O_RDONLY ] 0o644 in
        (* the size without [fstat]'s record; any other length than a
           frame's fails before a byte is read *)
        let whole = Unix.lseek fd 0 Unix.SEEK_END = Bytes.length line.buf in
        (try if whole then full_pread raw fd line.buf ~off:0
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        Unix.close fd;
        if whole then io_r := !io_r + bbytes;
        (* a run file exists only once written, so a blank frame in
           one is a damaged header, not a never-written shard *)
        whole && Bytes.get line.buf 0 = '\x01'
      end)
    ~where:path
    ~write_back:(fun line ->
      let f, p, tmp = run_file line.blk in
      if not (Names.mem f !manifest) then incr nfiles;
      write_file_atomic raw ~tmp p line.buf ~fsync:false;
      set_entry f (frame_crc line.buf, bbytes);
      write_manifest ~fsync:false;
      io_w := !io_w + bbytes)
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

let instantiate (type a) ~(codec : a Codec.t) spec ~(blank : a) ~name : a t =
  if codec.Codec.size blank > codec.Codec.max_bytes then
    invalid_arg "Device.instantiate: the blank's encoding exceeds codec max_bytes";
  match spec with
  | Mem -> mem ~codec ~blank
  | File { dir; block_bytes; cache_blocks; raw } ->
      file ~dir ~block_bytes ~cache_blocks ~raw ~codec ~blank ~name
  | Shard { dir; shard_bytes; raw } -> shard ~dir ~shard_bytes ~raw ~codec ~blank ~name

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

  (* A MANIFEST's entries, from lines as [manifest_line] writes them:
     exactly 8 hex digits of CRC, a decimal length, the file name. Any
     other line vouches for nothing, so its file is an orphan. *)
  let parse_manifest data =
    let digits ok s = s <> "" && String.for_all ok s in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    let entry line =
      match String.split_on_char ' ' line with
      | crc :: len :: (_ :: _ as f)
        when String.length crc = 8 && digits hex crc
             && digits (function '0' .. '9' -> true | _ -> false) len ->
          Option.map
            (fun len -> (String.concat " " f, (int_of_string ("0x" ^ crc), len)))
            (int_of_string_opt len)
      | _ -> None
    in
    match String.split_on_char '\n' data with
    | magic :: rest when magic = manifest_magic -> Some (List.filter_map entry rest)
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
            let b = Bytes.unsafe_of_string (read_file p) in
            let payload = Bytes.length b - frame_overhead in
            let vouched =
              match listed with
              | None -> None
              | Some entries -> List.assoc_opt f entries
            in
            if payload < 0 || not (frame_ok b 0 payload) then
              findings := finding ~path:p ~offset:0 "crc-mismatch" :: !findings
            else
              match vouched with
              | None ->
                  (* no manifest vouches for this file: even an intact
                     frame is an orphan of a crashed run *)
                  findings := finding ~path:p ~offset:(-1) "orphan" :: !findings
              | Some (crc, len) ->
                  if crc <> frame_crc b || len <> payload then
                    findings := finding ~path:p ~offset:(-1) "torn" :: !findings
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
