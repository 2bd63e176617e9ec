(* Tests for the below-seam storage hardening: the seeded syscall
   fault plan (determinism, ENOSPC persistence, crash points), CRC
   corruption detection with tape name + offset, quarantine recovery
   through the retrying deciders, fatal-vs-transient classification,
   the no-orphans guarantee on a full disk, and the offline
   scrubber. *)

module D = Problems.Decide
module G = Problems.Generators
module S = Faults.Storage
module Dev = Tape.Device

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "stlb-storage-test-%d-%d" (Unix.getpid ()) !counter)
    in
    d

let files_under root =
  let rec go acc p =
    if Sys.file_exists p && Sys.is_directory p then
      Array.fold_left (fun acc f -> go acc (Filename.concat p f)) acc (Sys.readdir p)
    else if Sys.file_exists p then p :: acc
    else acc
  in
  go [] root

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* plan determinism and semantics *)

(* Replay the exact sequence of injected outcomes against scratch fds:
   two identically-seeded plans must inject identically, and a
   reseeded plan differently. *)
let outcome_trace ~seed ~rates n =
  let plan = S.Plan.create ~seed ~rates () in
  let raw = S.raw_for plan ~name:"t" in
  let path = Filename.temp_file "stlb-storage" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let buf = Bytes.make 64 'a' in
  let out =
    List.init n (fun i ->
        try
          if i mod 2 = 0 then
            `W (raw.Dev.Raw.pwrite fd buf ~pos:0 ~len:64 ~off:0)
          else `R (raw.Dev.Raw.pread fd buf ~pos:0 ~len:64 ~off:0)
        with
        | Unix.Unix_error (e, _, _) -> `E e
        | S.Crashed { op } -> `C op)
  in
  Unix.close fd;
  Sys.remove path;
  (out, S.Plan.ops plan)

let test_plan_deterministic () =
  let rates =
    { S.bit_rot = 0.2; short_read = 0.3; short_write = 0.3; io_error = 0.1;
      torn_write = 0.1 }
  in
  let a, ops_a = outcome_trace ~seed:11 ~rates 200 in
  let b, ops_b = outcome_trace ~seed:11 ~rates 200 in
  check "same seed -> identical injected outcomes" true (a = b);
  check_int "same seed -> identical op counts" ops_a ops_b;
  let c, _ = outcome_trace ~seed:12 ~rates 200 in
  check "different seed -> different outcomes" true (a <> c)

let test_plan_rejects_bad_rates () =
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Faults: bit_rot rate 1.5 outside [0,1]")
    (fun () ->
      ignore
        (S.Plan.create ~seed:0 ~rates:{ S.zero with S.bit_rot = 1.5 } ()))

(* A full disk stays full: the k-th and every later write fails. *)
let test_enospc_persists () =
  let plan = S.Plan.create ~enospc_after:3 ~seed:0 ~rates:S.zero () in
  let raw = S.raw_for plan ~name:"t" in
  let path = Filename.temp_file "stlb-storage" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let buf = Bytes.make 8 'x' in
  let w () =
    try `Ok (raw.Dev.Raw.pwrite fd buf ~pos:0 ~len:8 ~off:0)
    with Unix.Unix_error (Unix.ENOSPC, _, _) -> `Enospc
  in
  check "write 1 ok" true (w () = `Ok 8);
  check "write 2 ok" true (w () = `Ok 8);
  check "write 3 fails" true (w () = `Enospc);
  check "write 4 still fails" true (w () = `Enospc);
  check "reads unaffected by a full disk" true
    (raw.Dev.Raw.pread fd buf ~pos:0 ~len:8 ~off:0 = 8);
  Unix.close fd;
  Sys.remove path

let test_crash_at_fires_exactly_once () =
  let plan = S.Plan.create ~crash_at:3 ~seed:0 ~rates:S.zero () in
  let raw = S.raw_for plan ~name:"t" in
  let path = Filename.temp_file "stlb-storage" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let buf = Bytes.make 8 'x' in
  let w () =
    try `Ok (raw.Dev.Raw.pwrite fd buf ~pos:0 ~len:8 ~off:0)
    with S.Crashed { op } -> `Crashed op
  in
  check "op 1 survives" true (w () = `Ok 8);
  check "op 2 survives" true (w () = `Ok 8);
  check "op 3 crashes" true (w () = `Crashed 3);
  check "op 4 survives (in-process hook fires exactly once)" true (w () = `Ok 8);
  Unix.close fd;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* corruption detection and recovery *)

let char_dev ?raw dir =
  Dev.instantiate ~codec:Dev.Codec.tuple_char
    (Dev.file_spec ~block_bytes:64 ~cache_blocks:1 ?raw dir)
    ~blank:'_' ~name:"victim"

(* Flip a payload byte on disk behind the cache's back: the next load
   must raise [Corrupt] carrying the tape name and the cell offset of
   the poisoned block - never return the rotten cell. *)
let test_corrupt_readback_names_tape_and_offset () =
  let dir = fresh_dir () in
  let dev = char_dev dir in
  let slots = 64 / 4 in
  Dev.set dev 0 'a';
  ignore (Dev.get dev slots);
  (* block 0 evicted + flushed *)
  (match files_under dir with
  | [ path ] ->
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      (* 16-byte header, 1-byte presence, 4-byte CRC, then payload *)
      ignore (Unix.lseek fd 21 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "Z" 0 1);
      Unix.close fd
  | fs -> Alcotest.failf "expected one backing file, got %d" (List.length fs));
  let before = Dev.corrupt_detected () in
  (try
     ignore (Dev.get dev 0);
     Alcotest.fail "rotten block read back without Corrupt"
   with Dev.Corrupt { device; offset; _ } ->
     check_string "tape name" "victim" device;
     check_int "cell offset of the bad block" 0 offset);
  check "detection counted" true (Dev.corrupt_detected () > before);
  (* the flip is persistent (rot at rest), but the flush of the healthy
     cached state rewrites the block: a quarantined re-read succeeds *)
  Dev.close dev;
  rm_rf dir

(* End to end: a decider on a file device under transient read-back
   rot heals through quarantine + re-read + phase retry and reaches
   the right verdict; the ledger shows the recovery was paid for. *)
let test_decider_heals_transient_rot () =
  let dir = fresh_dir () in
  let st = Random.State.make [| 5 |] in
  let inst = G.yes_instance st D.Multiset_equality ~m:64 ~n:8 in
  let plan = S.Plan.create ~seed:3 ~rates:{ S.zero with S.bit_rot = 0.002 } () in
  let device =
    Dev.file_spec ~block_bytes:128 ~cache_blocks:2 ~raw:(S.raw_for plan) dir
  in
  let retry = { Faults.Retry.attempts = 12 } in
  let clean, _ = Extsort.multiset_equality inst in
  let ok, _ = Extsort.decide ~retry ~device D.Multiset_equality inst in
  check "verdict matches the in-RAM run" clean ok;
  check "faults actually fired" true (S.Plan.ops plan > 0);
  check "no spill files left" true (files_under dir = []);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* classification *)

let test_enospc_is_fatal_not_retried () =
  let attempts = ref 0 in
  (try
     Faults.Retry.run ~label:"t" (fun () ->
         incr attempts;
         raise (Unix.Unix_error (Unix.ENOSPC, "pwrite", "")))
   with Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  check_int "ENOSPC never retried" 1 !attempts;
  let attempts = ref 0 in
  (try
     Faults.Retry.run ~label:"t" (fun () ->
         incr attempts;
         raise (Unix.Unix_error (Unix.EROFS, "pwrite", "")))
   with Unix.Unix_error (Unix.EROFS, _, _) -> ());
  check_int "EROFS never retried" 1 !attempts;
  let attempts = ref 0 in
  (try
     Faults.Retry.run ~label:"t" (fun () ->
         incr attempts;
         raise (Unix.Unix_error (Unix.EIO, "pread", "")))
   with Faults.Retry.Gave_up _ -> ());
  check "EIO is transient (retried to exhaustion)" true (!attempts > 1)

let test_corrupt_is_transient () =
  check "Corrupt classified transient" true
    (Faults.Retry.classify
       (Dev.Corrupt { device = "t"; path = "p"; offset = 0 })
    = Faults.Retry.Transient)

(* ------------------------------------------------------------------ *)
(* the ENOSPC abort contract: exit loudly, leave nothing behind *)

let test_enospc_mid_sort_leaves_no_orphans () =
  let dir = fresh_dir () in
  let st = Random.State.make [| 6 |] in
  let inst = G.yes_instance st D.Multiset_equality ~m:64 ~n:8 in
  let aborted = ref false in
  (* k=5 lands mid-preload: some backing files exist, some are being
     created - the hardest point to clean up after *)
  List.iter
    (fun k ->
      let plan = S.Plan.create ~enospc_after:k ~seed:0 ~rates:S.zero () in
      let device =
        Dev.file_spec ~block_bytes:128 ~cache_blocks:2 ~raw:(S.raw_for plan) dir
      in
      (try ignore (Extsort.multiset_equality ~device inst)
       with Unix.Unix_error ((Unix.ENOSPC | Unix.EROFS), _, _) -> aborted := true);
      check
        (Printf.sprintf "no orphan spill files after ENOSPC at op %d" k)
        true
        (files_under dir = []))
    [ 1; 2; 5; 9; 40 ];
  check "at least one run aborted with ENOSPC" true !aborted;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* scrub *)

let be32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.to_string b

let write_file path s =
  let oc = Out_channel.open_bin path in
  Out_channel.output_string oc s;
  Out_channel.close oc

let test_scrub_detects_and_fixes () =
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  (* tape file: good frame, rotted frame, torn 3-byte tail *)
  let payload = "\x00\x04GOOD" in
  let frame p = "\x01" ^ be32 (Util.Hash.crc32 p) ^ p in
  write_file
    (Filename.concat root "t-0.tape")
    ("STLBTAP2" ^ be32 6 ^ be32 6
    ^ frame payload
    ^ "\x01" ^ be32 (Util.Hash.crc32 payload) ^ "\x00\x04ROTT"
    ^ "\x01\x02\x03");
  (* shard dir: vouched-for shard, unlisted orphan, torn tmp *)
  let sdir = Filename.concat root "s-1" in
  Unix.mkdir sdir 0o755;
  let sp = "\x01\x02a\x00" in
  let shard p = "STLBSHD2" ^ be32 (Util.Hash.crc32 p) ^ p in
  write_file (Filename.concat sdir "run-000000.shard") (shard sp);
  write_file (Filename.concat sdir "run-000001.shard") (shard "\x01\x02b\x00");
  write_file (Filename.concat sdir "run-000002.shard.tmp") "half";
  write_file (Filename.concat sdir "MANIFEST")
    (Printf.sprintf "STLBMAN2\n%08x %d run-000000.shard\n" (Util.Hash.crc32 sp)
       (String.length sp));
  let count what (r : Dev.Scrub.report) =
    List.length
      (List.filter (fun (f : Dev.Scrub.finding) -> f.Dev.Scrub.what = what)
         r.Dev.Scrub.findings)
  in
  let r = Dev.Scrub.dir root in
  check_int "crc-mismatch found" 1 (count "crc-mismatch" r);
  check_int "torn frames found (tape tail + shard tmp)" 2 (count "torn" r);
  check_int "orphan found" 1 (count "orphan" r);
  check_int "nothing removed without --fix" 0 r.Dev.Scrub.removed;
  let rf = Dev.Scrub.dir ~fix:true root in
  check "fix removed the flagged files" true (rf.Dev.Scrub.removed >= 3);
  let r2 = Dev.Scrub.dir root in
  check_int "re-scrub after fix is clean" 0 (List.length r2.Dev.Scrub.findings);
  check "the vouched-for survivor is intact" true
    (Sys.file_exists (Filename.concat sdir "run-000000.shard"));
  rm_rf root

let test_scrub_missing_root_is_empty () =
  let r = Dev.Scrub.dir (fresh_dir ()) in
  check_int "no files" 0 r.Dev.Scrub.files_checked;
  check_int "no findings" 0 (List.length r.Dev.Scrub.findings)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "storage"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "bad rates rejected" `Quick test_plan_rejects_bad_rates;
          Alcotest.test_case "ENOSPC persists" `Quick test_enospc_persists;
          Alcotest.test_case "crash point" `Quick test_crash_at_fires_exactly_once;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "Corrupt carries tape + offset" `Quick
            test_corrupt_readback_names_tape_and_offset;
          Alcotest.test_case "decider heals transient rot" `Quick
            test_decider_heals_transient_rot;
        ] );
      ( "classification",
        [
          Alcotest.test_case "ENOSPC/EROFS fatal" `Quick
            test_enospc_is_fatal_not_retried;
          Alcotest.test_case "Corrupt transient" `Quick test_corrupt_is_transient;
        ] );
      ( "enospc",
        [
          Alcotest.test_case "no orphans mid-sort" `Quick
            test_enospc_mid_sort_leaves_no_orphans;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "detect and fix" `Quick test_scrub_detects_and_fixes;
          Alcotest.test_case "missing root" `Quick test_scrub_missing_root_is_empty;
        ] );
    ]
