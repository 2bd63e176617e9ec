(* Tests for the pluggable cell-storage backends (lib/tape/device.ml)
   and the order-preserving tuple codec (lib/tape/tuple.ml).

   The load-bearing properties:
   - the tuple encoding round-trips, and bytewise comparison of
     encodings agrees with the value order on tuples;
   - the three backends are observationally identical above the device
     seam: same cell contents, same reversal/ledger accounting, same
     fault detections under the same seeded plan. *)

module Tu = Tape.Tuple

let check_int = Alcotest.(check int)
let sign x = compare x 0

(* ------------------------------------------------------------------ *)
(* tuple codec *)

let elt_gen =
  let open QCheck.Gen in
  let any_char = map Char.chr (int_range 0 255) in
  (* arbitrary bytes on purpose: the terminator escaping (0x00) and the
     top byte (0xFF) are the interesting cases *)
  let str =
    map (fun s -> Tu.Str s) (string_size ~gen:any_char (int_range 0 10))
  in
  let small_int = map (fun i -> Tu.Int i) (int_range (-1000) 1000) in
  let edge_int =
    map
      (fun i -> Tu.Int i)
      (oneofl
         [
           0; 1; -1; 255; 256; -255; -256; 65535; -65536; max_int; min_int;
           1 lsl 40; -(1 lsl 40);
         ])
  in
  frequency [ (3, str); (3, small_int); (1, edge_int) ]

let pp_tuple t =
  "["
  ^ String.concat "; "
      (List.map
         (function
           | Tu.Str s -> Printf.sprintf "Str %S" s
           | Tu.Int i -> Printf.sprintf "Int %d" i)
         t)
  ^ "]"

let arb_tuple =
  QCheck.make ~print:pp_tuple QCheck.Gen.(list_size (int_range 0 5) elt_gen)

let prop_tuple_round_trip =
  QCheck.Test.make ~name:"tuple pack/unpack round-trip" ~count:500 arb_tuple
    (fun t -> Tu.unpack (Tu.pack t) = t)

(* The value order the encodings must agree with: strings (type code
   0x02) below every int (0x0c..0x1c), each in its natural order, and
   shorter tuples below their extensions. *)
let compare_elt a b =
  match (a, b) with
  | Tu.Int x, Tu.Int y -> compare x y
  | Tu.Str x, Tu.Str y -> String.compare x y
  | Tu.Str _, Tu.Int _ -> -1
  | Tu.Int _, Tu.Str _ -> 1

let prop_tuple_order =
  QCheck.Test.make ~name:"bytewise order of encodings = tuple order"
    ~count:500
    (QCheck.pair arb_tuple arb_tuple)
    (fun (a, b) ->
      sign (String.compare (Tu.pack a) (Tu.pack b))
      = sign (List.compare compare_elt a b))

(* ------------------------------------------------------------------ *)
(* backends *)

let spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-device-%d" (Unix.getpid ()))

(* deliberately tiny blocks/shards so a few dozen cells already spill
   through the bounded caches *)
let specs () =
  [
    ("mem", Tape.Device.Mem);
    ("file", Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:2 spill);
    ("shard", Tape.Device.shard_spec ~shard_bytes:256 spill);
  ]

(* One deterministic workload on one backend: preload, a forward scan
   that reads every cell twice and rewrites every third one reversed,
   reading it once more after the rewrite, a rewind, a verification
   scan - all under a seeded fault plan (no transients, so the walk
   itself never raises). Returns everything observable above the
   seam. *)
let walk ~seed items spec =
  let r = Obs.Ledger.Recorder.create ~label:"parity" () in
  let g = Tape.Group.create ~device:spec () in
  Obs.Ledger.Recorder.observe r g;
  let codec = Tape.Device.Codec.tuple_string ~max_bytes:26 in
  let t = Tape.Group.tape g ~name:"cells" ~codec ~blank:"" () in
  Tape.preload t items;
  let plan =
    Faults.Plan.create ~seed
      ~rates:
        {
          Faults.bit_flip = 0.1;
          stuck_read = 0.05;
          torn_write = 0.1;
          transient = 0.0;
        }
  in
  Faults.attach_string plan t;
  let n = List.length items in
  let seen = ref [] in
  for i = 0 to n - 1 do
    let v = Tape.read t in
    seen := Tape.read t :: v :: !seen;
    (* every third cell is rewritten reversed, and every other rewrite
       grows it by two bytes or cuts it to half its length *)
    if i mod 3 = 0 then begin
      let r = String.init (String.length v) (fun j -> v.[String.length v - 1 - j]) in
      Tape.write t
        (if i mod 2 = 0 then r ^ "\xff\x00" else String.sub r 0 (String.length r / 2));
      seen := Tape.read t :: !seen
    end;
    Tape.move t Tape.Right
  done;
  Tape.rewind t;
  for _ = 0 to n - 1 do
    seen := Tape.read t :: !seen;
    Tape.move t Tape.Right
  done;
  let contents = Tape.to_list t in
  let l = Obs.Ledger.Recorder.ledger ~n r in
  let faults = Tape.Group.faults_injected g in
  Tape.Group.close_all g;
  ( List.rev !seen,
    contents,
    ( l.Obs.Ledger.scans,
      l.Obs.Ledger.reversals,
      l.Obs.Ledger.internal_peak,
      l.Obs.Ledger.tapes,
      l.Obs.Ledger.faults_injected ),
    faults )

let arb_items =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map String.escaped l))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (string_size
           ~gen:
             (frequency
                [ (1, return '\x00'); (1, return '\xff'); (4, map Char.chr (int_range 0 255)) ])
           (int_range 0 8)))

let prop_backend_parity =
  QCheck.Test.make ~name:"mem/file/shard backends are indistinguishable"
    ~count:30
    (QCheck.pair arb_items QCheck.(make Gen.(int_bound 1_000_000)))
    (fun (items, seed) ->
      match List.map (fun (_, s) -> walk ~seed items s) (specs ()) with
      | [] -> true
      | reference :: rest -> List.for_all (( = ) reference) rest)

let test_spill_files_deleted () =
  (* close_all must leave nothing behind - spill files are scratch *)
  let items = List.init 64 (fun i -> Printf.sprintf "item-%02d" i) in
  List.iter
    (fun (name, spec) ->
      let _ = walk ~seed:7 items spec in
      let leftover =
        if Sys.file_exists spill then Array.length (Sys.readdir spill) else 0
      in
      check_int (name ^ ": no leftover spill entries") 0 leftover)
    (specs ());
  if Sys.file_exists spill then Unix.rmdir spill

let test_file_device_io () =
  (* the byte-backed devices must actually touch their backing files
     once the data exceeds the cache; mem must not *)
  let items = List.init 200 (fun i -> Printf.sprintf "row-%03d-xx" i) in
  let io spec =
    let g = Tape.Group.create ~device:spec () in
    let codec = Tape.Device.Codec.tuple_string ~max_bytes:26 in
    let t = Tape.Group.tape g ~name:"cells" ~codec ~blank:"" () in
    Tape.preload t items;
    for _ = 1 to List.length items do
      ignore (Tape.read t);
      Tape.move t Tape.Right
    done;
    let s = Tape.Group.device_stats g in
    Tape.Group.close_all g;
    s.Tape.Device.io_read_bytes + s.Tape.Device.io_write_bytes
  in
  List.iter
    (fun (name, spec) ->
      let bytes = io spec in
      match name with
      | "mem" -> check_int "mem does no backing I/O" 0 bytes
      | _ ->
          Alcotest.(check bool)
            (name ^ " streams through backing files")
            true (bytes > 0))
    (specs ());
  if Sys.file_exists spill then Unix.rmdir spill

(* A file slot's length prefix is 2 bytes: a cell encoding past 65535
   bytes is refused with an error naming the limit (not a stray
   [Char.chr] failure), the sort's spill file is still cleaned up, and
   a cell under the limit round-trips. *)
let test_file_slot_limit () =
  let spec = Tape.Device.file_spec spill in
  Alcotest.check_raises "refused, naming the limit"
    (Invalid_argument
       "Device.file: encoded cell of 70002 bytes exceeds the 65535-byte slot \
        limit")
    (fun () ->
      ignore (Extsort.sort ~device:spec [ String.make 70000 '1'; "0" ]));
  check_int "no leftover spill entries" 0 (Array.length (Sys.readdir spill));
  let big = String.make 40000 '1' in
  let sorted, _ = Extsort.sort ~device:spec [ big; "0" ] in
  Alcotest.(check (list string)) "40000-byte cell round-trips" [ "0"; big ] sorted;
  Unix.rmdir spill

(* ------------------------------------------------------------------ *)
(* on-disk format pin *)

(* Every backing file under [root], as (basename, contents), sorted by
   name. *)
let backing_files root =
  let rec go acc p =
    if Sys.is_directory p then
      Array.fold_left (fun acc f -> go acc (Filename.concat p f)) acc (Sys.readdir p)
    else (Filename.basename p, In_channel.with_open_bin p In_channel.input_all) :: acc
  in
  List.sort compare (go [] root)

(* Write [writes] (position, value) in order onto a fresh 256-byte
   block/shard device, sync, and return the MD5 of its backing files'
   contents (their names carry an allocation counter, so they are left
   out); every written position must read back as its last value. *)
let disk_digest (type a) ?(put = Tape.Device.set) spec_of
    (codec : a Tape.Device.Codec.t) ~(blank : a) (writes : (int * a) list) =
  let dir = Printf.sprintf "%s-pin" spill in
  let d = Tape.Device.instantiate ~codec (spec_of dir) ~blank ~name:"pin" in
  List.iter (fun (i, v) -> put d i v) writes;
  Tape.Device.sync d;
  let files = backing_files dir in
  let last = Hashtbl.create 64 in
  List.iter (fun (i, v) -> Hashtbl.replace last i v) writes;
  check_int "cells that do not read back their last value" 0
    (Hashtbl.fold
       (fun i v bad -> if Tape.Device.get d i = v then bad else bad + 1)
       last 0);
  Tape.Device.close d;
  Unix.rmdir dir;
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (_, s) -> Printf.sprintf "%d\n%s" (String.length s) s)
             files)))

(* The exact bytes the file and shard devices write: 256-byte blocks
   and shards, cells spread over several of each (so blocks are
   evicted and shards reloaded before the late overwrites), a gap of
   never-written cells, and overwrites that shrink and grow a cell. *)
let pin_writes ?(n = 48) values late =
  List.init n (fun i ->
      ((if i >= 30 then i + 4 else i), values.(i mod Array.length values)))
  @ late

let test_on_disk_format_pinned () =
  let str_writes =
    pin_writes
      [| ""; "\x00\xff\x00"; "twelve-bytes"; "\xff"; "a\x00"; "ab" |]
      [ (2, "x"); (3, "\x00\x00\x00\x00"); (0, "now-longer"); (50, ""); (8, "twelve-bytes") ]
  in
  let int_writes =
    pin_writes
      [| -1; 0; 1; -256; 255; max_int; min_int; 1 lsl 56; -(1 lsl 40); 65536 |]
      [ (5, 0); (1, min_int); (51, -7) ]
  in
  let char_writes =
    pin_writes ~n:200 [| '\x00'; 'a'; '\xff'; '_' |] [ (0, 'z'); (140, '\x00') ]
  in
  let specs =
    [
      ("file", fun dir -> Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:1 dir);
      ("shard", fun dir -> Tape.Device.shard_spec ~shard_bytes:256 dir);
    ]
  in
  let got =
    List.concat_map
      (fun (kind, spec_of) ->
        let module C = Tape.Device.Codec in
        [
          (kind ^ " strings",
           disk_digest spec_of (C.tuple_string ~max_bytes:26) ~blank:"" str_writes);
          (kind ^ " ints", disk_digest spec_of C.tuple_int ~blank:0 int_writes);
          (kind ^ " chars", disk_digest spec_of C.tuple_char ~blank:'_' char_writes);
        ])
      specs
  in
  Alcotest.(check (list (pair string string)))
    "backing-file digests"
    [
      ("file strings", "ca1a868c96ef5c56d6b2db7e8e34195e");
      ("file ints", "21d2d973158554aefa48706599471fd5");
      ("file chars", "49b4322d324eaa9bd7231e0b811230eb");
      ("shard strings", "a3d2de0395cb4d7cdfe4a55e8c48fe40");
      ("shard ints", "454b653559eef5dd6645212c25c3fb9b");
      ("shard chars", "73b0a7986c50f9b21ba50c6019d1750f");
    ]
    got

(* A register's store: a byte device's slot accessor stores encoded
   bytes, a blank as the bytes loaded from a never-written cell. On the
   file and the shard backend alike, the backing files must come out as
   [Device.set] writes them. *)
let test_slot_store_bytes () =
  let put (type a) ~(blank : a) d i (v : a) =
    let s = Option.get (Tape.Device.slots d) in
    let buf = Bytes.create s.Tape.Device.codec.Tape.Device.Codec.max_bytes in
    let len =
      if v = blank then s.Tape.Device.load 100_000 buf
      else s.Tape.Device.codec.Tape.Device.Codec.write buf 0 v
    in
    s.Tape.Device.store i buf len
  in
  let module C = Tape.Device.Codec in
  List.iter
    (fun (kind, spec_of) ->
      let digests (type a) (codec : a C.t) ~(blank : a) writes =
        ( disk_digest spec_of codec ~blank writes,
          disk_digest ~put:(put ~blank) spec_of codec ~blank writes )
      in
      let same what (by_set, by_slots) =
        Alcotest.(check string) (kind ^ " " ^ what) by_set by_slots
      in
      same "strings"
        (digests (C.tuple_string ~max_bytes:26) ~blank:""
           (pin_writes [| ""; "\x00\xff\x00"; "twelve-bytes"; "ab" |]
              [ (2, "x"); (0, "now-longer"); (50, "") ]));
      same "ints"
        (digests C.tuple_int ~blank:0 (pin_writes [| -1; 0; max_int |] [ (5, 0) ])))
    [
      ("file", fun dir -> Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:1 dir);
      ("shard", fun dir -> Tape.Device.shard_spec ~shard_bytes:256 dir);
    ];
  Alcotest.(check bool) "no slots on mem" true
    (Tape.Device.slots (Tape.Device.mem ~blank:"") = None)

(* ------------------------------------------------------------------ *)
(* the file device's one-block window *)

(* The real syscalls, counted, with one byte of the next pread at file
   offset [!rot_at] flipped: bit rot in transit, so the re-read
   heals. *)
let counting_raw () =
  let module R = Tape.Device.Raw in
  let preads = ref 0 and pwrites = ref 0 and rot_at = ref (-1) in
  let raw =
    {
      R.real with
      R.pread =
        (fun fd buf ~pos ~len ~off ->
          incr preads;
          let n = R.real.R.pread fd buf ~pos ~len ~off in
          if off = !rot_at && n > 8 then begin
            rot_at := -1;
            Bytes.set buf (pos + 8)
              (Char.chr (Char.code (Bytes.get buf (pos + 8)) lxor 1))
          end;
          n);
      pwrite =
        (fun fd buf ~pos ~len ~off ->
          incr pwrites;
          R.real.R.pwrite fd buf ~pos ~len ~off);
    }
  in
  (raw, preads, pwrites, rot_at)

(* An access pattern aimed at the window's edges, on 4-slot blocks and
   two cache lines: cells of two blocks alternated (in two lines, then
   in one), a backward walk across block boundaries, a cell overwritten
   by a shorter one, a slot load and store, and a block read again after
   a CRC failure has emptied the window's line - so the window must
   notice its line no longer holds its block. Returns the pread and
   pwrite counts, the MD5 of the synced backing file and the number of
   reads that did not return the cell's last value. *)
let window_walk () =
  let module D = Tape.Device in
  let dir = Printf.sprintf "%s-window" spill in
  let raw, preads, pwrites, rot_at = counting_raw () in
  (* max_bytes 14: 16-byte slots, 4 to a 64-byte block, 69-byte frames *)
  let codec = D.Codec.tuple_string ~max_bytes:14 in
  let d =
    D.instantiate ~codec
      (D.file_spec ~block_bytes:64 ~cache_blocks:2 ~raw:(fun ~name:_ -> raw) dir)
      ~blank:"" ~name:"window"
  in
  let model = Hashtbl.create 64 and bad = ref 0 in
  let put i v =
    D.set d i v;
    Hashtbl.replace model i v
  in
  let get i =
    let want = Option.value (Hashtbl.find_opt model i) ~default:"" in
    if D.get d i <> want then incr bad
  in
  for i = 0 to 15 do
    put i (Printf.sprintf "c%d" i)
  done;
  for k = 0 to 7 do
    get (k mod 4);
    put (4 + (k mod 4)) (Printf.sprintf "a%d" k)
  done;
  for k = 0 to 5 do
    get (k mod 4);
    get (8 + (k mod 4))
  done;
  for i = 13 downto 2 do
    get i
  done;
  put 6 "longer";
  put 6 "s";
  get 6;
  get 7;
  let s = Option.get (D.slots d) in
  let buf = Bytes.create codec.D.Codec.max_bytes in
  s.D.store 1 buf (s.D.load 9 buf);
  Hashtbl.replace model 1 (Hashtbl.find model 9);
  get 1;
  D.sync d;
  (* the window on block 0 in line 0; block 2's rotten frame empties
     that line; block 0 must then be read from disk again *)
  get 0;
  rot_at := 16 + (2 * 69);
  (match D.get d 8 with
  | _ -> Alcotest.fail "a rotten frame read back without Corrupt"
  | exception D.Corrupt _ -> ());
  get 0;
  put 1 "w";
  get 8;
  put 9 "ww";
  D.sync d;
  let md5 =
    match Sys.readdir dir with
    | [| f |] -> Digest.to_hex (Digest.file (Filename.concat dir f))
    | fs -> Alcotest.failf "expected one backing file, got %d" (Array.length fs)
  in
  D.close d;
  Unix.rmdir dir;
  (!preads, !pwrites, md5, !bad)

(* The counts and the digest are what the file device gave before it
   had a window: the window must change no syscall and no byte. *)
let test_file_window () =
  Alcotest.(check (pair (triple int int string) int))
    "preads, pwrites, backing-file MD5; bad reads"
    ((29, 10, "74fb72672540048c071c9f3f6261da42"), 0)
    (let p, w, m, b = window_walk () in
     ((p, w, m), b))

let () =
  Alcotest.run "device"
    [
      ( "tuple",
        [
          QCheck_alcotest.to_alcotest prop_tuple_round_trip;
          QCheck_alcotest.to_alcotest prop_tuple_order;
        ] );
      ( "backends",
        [
          QCheck_alcotest.to_alcotest prop_backend_parity;
          Alcotest.test_case "spill files deleted" `Quick
            test_spill_files_deleted;
          Alcotest.test_case "backing I/O happens (and only off-mem)" `Quick
            test_file_device_io;
          Alcotest.test_case "file slot length limit" `Quick
            test_file_slot_limit;
          Alcotest.test_case "slot stores write set's bytes" `Quick
            test_slot_store_bytes;
          Alcotest.test_case "on-disk format pinned" `Quick
            test_on_disk_format_pinned;
          Alcotest.test_case "file window: same syscalls and bytes" `Quick
            test_file_window;
        ] );
    ]
