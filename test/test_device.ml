(* Tests for the pluggable cell-storage backends (lib/tape/device.ml)
   and the order-preserving tuple codec (lib/tape/tuple.ml).

   The load-bearing properties:
   - the tuple encoding round-trips, and [Bytes]-level comparison of
     encodings agrees with the semantic tuple order (so run files can
     be merged without decoding);
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

let prop_tuple_order =
  QCheck.Test.make ~name:"bytewise order of encodings = tuple order"
    ~count:500
    (QCheck.pair arb_tuple arb_tuple)
    (fun (a, b) ->
      sign (Tu.compare_packed (Tu.pack a) (Tu.pack b))
      = sign (Tu.compare_tuple a b))

let test_range_prefix () =
  (* every tuple extending [p] sorts strictly inside p's range *)
  let p = [ Tu.Str "run"; Tu.Int 3 ] in
  let lo, hi = Tu.range_prefix p in
  let inside = Tu.pack (p @ [ Tu.Str "x" ]) in
  Alcotest.(check bool) "lo < member" true (Tu.compare_packed lo inside < 0);
  Alcotest.(check bool) "member < hi" true (Tu.compare_packed inside hi < 0)

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
   that reads every cell and rewrites every third one reversed, a
   rewind, a verification scan - all under a seeded fault plan (no
   transients, so the walk itself never raises). Returns everything
   observable above the seam. *)
let walk ~seed items spec =
  let r = Obs.Ledger.Recorder.create ~label:"parity" () in
  let g = Tape.Group.create ~device:spec () in
  Obs.Ledger.Recorder.observe r g;
  let codec = Tape.Device.Codec.tuple_string ~max_len:12 in
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
    seen := v :: !seen;
    if i mod 3 = 0 then
      Tape.write t
        (String.init (String.length v) (fun j ->
             v.[String.length v - 1 - j]));
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
    ~print:(fun l -> String.concat "," l)
    QCheck.Gen.(
      list_size (int_range 1 40)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))

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
    let codec = Tape.Device.Codec.tuple_string ~max_len:12 in
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

let () =
  Alcotest.run "device"
    [
      ( "tuple",
        [
          QCheck_alcotest.to_alcotest prop_tuple_round_trip;
          QCheck_alcotest.to_alcotest prop_tuple_order;
          Alcotest.test_case "range_prefix" `Quick test_range_prefix;
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
        ] );
    ]
