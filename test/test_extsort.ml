(* Tests for tape merge sort and the Corollary 7 deterministic
   algorithms: correctness against the reference deciders, O(log N)
   scan growth, O(1) internal registers. *)

module G = Problems.Generators
module D = Problems.Decide
module I = Problems.Instance

let check = Alcotest.(check bool)


let test_sort_basic () =
  let sorted, _ = Extsort.sort [ "10"; "01"; "11"; "00" ] in
  Alcotest.(check (list string)) "sorted" [ "00"; "01"; "10"; "11" ] sorted;
  let sorted1, _ = Extsort.sort [ "x" ] in
  Alcotest.(check (list string)) "singleton" [ "x" ] sorted1;
  let sorted0, _ = Extsort.sort [] in
  Alcotest.(check (list string)) "empty" [] sorted0

let test_sort_duplicates_and_lengths () =
  let sorted, _ = Extsort.sort [ "01"; "0"; "01"; ""; "1" ] in
  Alcotest.(check (list string)) "mixed" [ ""; "0"; "01"; "01"; "1" ] sorted

let prop_sort_matches_stdlib =
  QCheck.Test.make ~name:"tape sort = List.sort" ~count:200
    QCheck.(list (string_of_size (Gen.int_range 0 6)))
    (fun items ->
      let expected = List.sort String.compare items in
      let got, _ = Extsort.sort items in
      got = expected)

let test_sort_registers_constant () =
  List.iter
    (fun n ->
      let items = List.init n (fun i -> string_of_int ((i * 31) mod n)) in
      let _, rep = Extsort.sort items in
      check (Printf.sprintf "n=%d regs" n) true (rep.Extsort.register_peak <= 8))
    [ 2; 64; 1024 ]

let test_scan_growth_logarithmic () =
  let st = Random.State.make [| 40 |] in
  let points =
    List.map
      (fun m ->
        let inst = G.yes_instance st D.Check_sort ~m ~n:8 in
        let _, rep = Extsort.check_sort inst in
        check "within closed-form bound" true
          (rep.Extsort.scans <= Extsort.theoretical_scan_bound ~n:rep.Extsort.n);
        (rep.Extsort.n, rep.Extsort.scans))
      [ 16; 32; 64; 128; 256; 512; 1024 ]
  in
  let slope, _, r2 = Util.Stats.log2_fit (Array.of_list points) in
  check (Printf.sprintf "log fit r2=%.3f" r2) true (r2 > 0.98);
  check (Printf.sprintf "slope=%.2f" slope) true (slope > 2.0 && slope < 16.0)

let test_deciders_match_reference () =
  let st = Random.State.make [| 41 |] in
  List.iter
    (fun prob ->
      for _ = 1 to 60 do
        let m = 1 + Random.State.int st 24 in
        let inst, label = G.labelled st prob ~m ~n:6 in
        let got, _ = Extsort.decide prob inst in
        check (D.problem_name prob) true (got = label)
      done)
    D.all_problems

let test_set_equality_multiplicities () =
  (* equal as sets, different multiplicities *)
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    let inst = G.set_yes_multiset_no st ~m:6 ~n:6 in
    check "set-eq yes" true (fst (Extsort.set_equality inst));
    check "multiset-eq no" false (fst (Extsort.multiset_equality inst))
  done

let test_degenerate_instances () =
  let empty = I.decode "" in
  check "empty checksort" true (fst (Extsort.check_sort empty));
  check "empty set-eq" true (fst (Extsort.set_equality empty));
  let single = I.decode "0#0#" in
  check "singleton" true (fst (Extsort.multiset_equality single));
  let single_no = I.decode "0#1#" in
  check "singleton no" false (fst (Extsort.multiset_equality single_no))

let test_short_instances_round_trip () =
  (* Corollary 7: the SHORT reduction output is still decided correctly *)
  let st = Random.State.make [| 43 |] in
  let m = 4 in
  let space = G.Checkphi.default_space ~m ~n:(m * m * m) in
  let phi = G.Checkphi.phi space in
  for _ = 1 to 5 do
    let y = G.Checkphi.yes st space and n = G.Checkphi.no st space in
    check "short yes" true (fst (Extsort.check_sort (Problems.Short.reduce ~phi y)));
    check "short no" false (fst (Extsort.check_sort (Problems.Short.reduce ~phi n)))
  done

let test_kway_sort () =
  let items = List.init 500 (fun i -> Printf.sprintf "%04d" ((i * 37) mod 500)) in
  let expected = List.sort String.compare items in
  List.iter
    (fun ways ->
      let got, rep = Extsort.sort ~ways items in
      check (Printf.sprintf "%d-way sorted" ways) true (got = expected);
      check "tapes = ways + data" true (rep.Extsort.tapes = ways + 1))
    [ 2; 3; 4; 7 ];
  (* wider merges use fewer scans at this size *)
  let _, r2 = Extsort.sort ~ways:2 items in
  let _, r4 = Extsort.sort ~ways:4 items in
  check "4-way beats 2-way" true (r4.Extsort.scans < r2.Extsort.scans);
  try
    ignore (Extsort.sort ~ways:1 items);
    Alcotest.fail "ways=1 accepted"
  with Invalid_argument _ -> ()

let prop_kway_matches_stdlib =
  QCheck.Test.make ~name:"k-way sort = List.sort" ~count:100
    QCheck.(pair (int_range 2 6) (list (string_of_size (Gen.int_range 0 5))))
    (fun (ways, items) ->
      let expected = List.sort String.compare items in
      let got, _ = Extsort.sort ~ways items in
      got = expected)

(* The merge engine's exact operation sequence at [ways = 2]: every
   completed read, write and move on every tape of the group, folded
   in order into one FNV-1a digest. Pinned so a rewrite of the merge
   loop that reorders a single head access fails here before it moves
   a scan count or a per-tape fault stream. The recording hook is
   installed on [data] only; [sort_tape] hands its maker on to the
   auxiliary tapes. A move is recorded at the cell it lands on. *)
let test_two_way_replay () =
  let items = List.init 97 (fun i -> Printf.sprintf "%03d" ((i * 37) mod 61)) in
  let g = Tape.Group.create () in
  let h = ref Util.Hash.fnv_offset and events = ref 0 in
  let record tape =
    let ev op pos =
      incr events;
      h := Util.Hash.fnv_string !h (Printf.sprintf "%s %s %d" tape op pos)
    in
    {
      Tape.Injection.on_read =
        (fun ~pos _ ->
          ev "read" pos;
          Tape.Injection.Read_ok);
      on_write =
        (fun ~pos _ ->
          ev "write" pos;
          Tape.Injection.Write_ok);
      on_move =
        (fun ~pos dir ->
          ev "move" (match dir with Tape.Right -> pos + 1 | Tape.Left -> pos - 1);
          Tape.Injection.Move_ok);
    }
  in
  let t = Tape.Group.tape g ~name:"data" ~codec:(Extsort.codec_for items) ~blank:"" () in
  Tape.preload t items;
  Tape.set_injection t (Some record);
  Extsort.sort_tape g t ~len:97;
  Alcotest.(check (list string)) "sorted" (List.sort String.compare items)
    (Tape.to_list t);
  Alcotest.(check int) "events" 9055 !events;
  Alcotest.(check int64) "digest" 0x426fbb7a81a8b8b8L !h;
  Alcotest.(check int) "scans" 80 (Tape.Group.scans g)

let spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-extsort-%d" (Unix.getpid ()))

let () = at_exit (fun () -> try Unix.rmdir spill with Unix.Unix_error _ -> ())

(* The merge holds its cells in tape registers: stored bytes, copied
   from the slot on unhooked mem, file and shard tapes, and encoded
   from what the hook answers on a hooked file tape (a zero-rate fault
   plan injects nothing but installs the hooks). All must sort alike
   and charge every tape alike. *)
let prop_register_forms_agree =
  let item =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl [ '\x00'; '\xff'; 'a'; 'b' ])
        (int_range 0 5))
  in
  QCheck.Test.make ~name:"register forms sort alike on mem/file/shard/hooked file"
    ~count:60
    (QCheck.make
       ~print:(fun (w, l) ->
         Printf.sprintf "ways %d: %s" w
           (String.concat "," (List.map String.escaped l)))
       QCheck.Gen.(pair (int_range 2 6) (list_size (int_range 0 40) item)))
    (fun (ways, items) ->
      let file = Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:2 spill in
      let run ?faults device =
        let r = Obs.Ledger.Recorder.create () in
        let sorted, _ = Extsort.sort ?faults ~obs:r ~device ~ways items in
        (sorted, (Obs.Ledger.Recorder.ledger r).Obs.Ledger.tapes)
      in
      let runs =
        [
          run Tape.Device.Mem;
          run file;
          run (Tape.Device.shard_spec ~shard_bytes:256 spill);
          run ~faults:(Faults.Plan.create ~seed:1 ~rates:Faults.zero) file;
        ]
      in
      let expected = List.sort String.compare items in
      List.for_all (fun (sorted, _) -> sorted = expected) runs
      && List.for_all (fun (_, tapes) -> tapes = snd (List.hd runs)) runs)

(* On the file device the sort moves stored bytes and decodes nothing:
   what it allocates is set-up, the encoded input and the decoded
   output, not a string and a pair per cell read. *)
let test_sort_allocation () =
  let n = 4096 and passes = 12 (* = log2 4096 two-way passes *) in
  let items = List.init n (fun i -> Printf.sprintf "%05d" (i * 7919 mod n)) in
  let device = Tape.Device.file_spec spill in
  let w0 = Gc.minor_words () in
  let sorted, _ = Extsort.sort ~device items in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare items) sorted;
  check
    (Printf.sprintf "%.0f minor words < 1 per cell per pass (%d)" words
       (n * passes))
    true
    (words < float_of_int (n * passes))

(* The same bound on a shard tape: 1,890-cell shards (a 5-character
   cell is 7 stored bytes plus its presence byte), so each 4,096-cell
   tape spans three shards, one more than a shard device keeps in RAM,
   and every pass reloads and rewrites shards. Loading and flushing
   them copies stored bytes and decodes no cell. *)
let shard_sort_words ~shard_bytes =
  let n = 4096 in
  let items = List.init n (fun i -> Printf.sprintf "%05d" (i * 7919 mod n)) in
  let device = Tape.Device.shard_spec ~shard_bytes spill in
  let w0 = Gc.minor_words () in
  let sorted, _ = Extsort.sort ~device items in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare items) sorted;
  words

let test_shard_sort_allocation () =
  let n = 4096 and passes = 12 in
  let words = shard_sort_words ~shard_bytes:(1890 * 8) in
  let bound = 0.55 *. float_of_int (n * passes) in
  check
    (Printf.sprintf "%.0f minor words < 0.55 per cell per pass (%.0f)" words bound)
    true (words < bound)

(* With 315-cell shards a 4,096-cell tape spans 13 shards, and the
   sort makes some 350 shard flushes and 670 shard loads; every flush
   rewrites the MANIFEST. Its lines are kept per run file and
   reformatted only when that file changes, without the format
   interpreter, and each run file's paths (the MANIFEST's too) are
   formatted once, so a flush or a load allocates a bounded amount:
   not a sort and a formatted line for every run file of the tape, nor
   a path, a boxed offset or a stat record per syscall. *)
let test_manifest_allocation () =
  let n = 4096 and passes = 12 in
  let words = shard_sort_words ~shard_bytes:(315 * 8) in
  let bound = 1.3 *. float_of_int (n * passes) in
  check
    (Printf.sprintf "%.0f minor words < 1.3 per cell per pass (%.0f)" words bound)
    true (words < bound)

(* A string slot is sized to the largest cell the tape holds: a
   12-character bitstring encodes in 14 bytes, so its slot (with the
   2-byte length) is 16 bytes and a 160-byte block holds 10 of them.
   Sizing for the worst case, every byte escaped, would give 28-byte
   slots, 5 to a 140-byte block. *)
let test_exact_slots () =
  let st = Random.State.make [| 59 |] in
  let items =
    List.init 64 (fun _ -> String.init 12 (fun _ -> if Random.State.bool st then '1' else '0'))
  in
  let r = Obs.Ledger.Recorder.create () in
  let device = Tape.Device.file_spec ~block_bytes:160 ~cache_blocks:2 spill in
  let sorted, _ = Extsort.sort ~obs:r ~device items in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare items) sorted;
  let ds = Obs.Ledger.Recorder.device_stats r in
  (* three tapes (data and two aux), two 160-byte lines each *)
  Alcotest.(check int) "resident bytes" (3 * 2 * 160) ds.Tape.Device.resident_bytes;
  Alcotest.(check int) "io bytes, whole 160-byte blocks" 0
    ((ds.Tape.Device.io_read_bytes + ds.Tape.Device.io_write_bytes) mod 160)

(* Exact slots on every backend: strings with 0x00 bytes (each stored
   as two) and 0xFF bytes, the empty string among them, sort alike on
   mem, file and shard, with blocks and shards of a few cells. A cell
   larger than its slot would raise on the byte devices. *)
let prop_exact_slots_sort_alike =
  let item =
    QCheck.Gen.(
      string_size
        ~gen:(frequency [ (3, return '\x00'); (1, return '\xff'); (1, char_range 'a' 'c') ])
        (int_range 0 8))
  in
  QCheck.Test.make ~name:"exact slots: sort alike on mem/file/shard" ~count:100
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map String.escaped l))
       QCheck.Gen.(list_size (int_range 0 40) item))
    (fun items ->
      let expected = List.sort String.compare items in
      List.for_all
        (fun device -> fst (Extsort.sort ~device items) = expected)
        [
          Tape.Device.Mem;
          Tape.Device.file_spec ~block_bytes:64 ~cache_blocks:2 spill;
          Tape.Device.shard_spec ~shard_bytes:64 spill;
        ])

(* A decider preloads its tapes from the instance itself: no list of
   the input, no copy of it, and its comparison scan loads both halves
   into registers, so on the file device it decodes no cell. It
   allocates less than one minor word per input string. *)
let decider_allocation decider () =
  let m = 2048 in
  let inst =
    G.yes_instance (Random.State.make [| 53 |]) D.Multiset_equality ~m ~n:12
  in
  let device = Tape.Device.file_spec spill in
  let w0 = Gc.minor_words () in
  let ok, _ = decider ~device inst in
  let words = Gc.minor_words () -. w0 in
  check "the instance is a yes-instance" true ok;
  check
    (Printf.sprintf "%.0f minor words < 1 per input string (%d)" words (2 * m))
    true
    (words < float_of_int (2 * m))

(* A mem tape's lines are 256 bytes at most, so the tapes of a sort decider
   whose run fits one minor heap put nothing on the major heap: what is
   there is the halves that [Instance.xs] and [ys] copy, one word per
   item. *)
let test_mem_sort_allocation () =
  let m = 4096 in
  let inst = G.yes_instance (Random.State.make [| 3 |]) D.Multiset_equality ~m ~n:10 in
  Gc.full_major ();
  let _, _, major0 = Gc.counters () in
  let ok, _ = Extsort.multiset_equality ~device:Tape.Device.Mem inst in
  let _, _, major1 = Gc.counters () in
  check "the instance is a yes-instance" true ok;
  let words = major1 -. major0 and bound = 1.25 *. float_of_int (2 * m) in
  check
    (Printf.sprintf "%.0f major words < 1.25 per item (%.0f)" words bound)
    true (words < bound)

(* Mem RAM follows the bytes stored, not the widest cell: one
   4,000-bit item among 4,000 one-bit items in each half is kept out of
   line, so what the decider leaves on the major heap (its tape lines,
   the wide cell's copies and the halves [Instance.xs] and [ys] copy)
   stays under 8 words an item: 41k words, against 38k when mem held
   values, and 8.2M when every slot was as wide as the widest cell. *)
let test_mem_skewed_words () =
  let m = 4000 in
  let half =
    Array.init m (fun i ->
        Util.Bitstring.of_string
          (if i = 0 then String.make 4000 '1' else if i land 1 = 0 then "0" else "1"))
  in
  let inst = I.make half (Array.of_list (List.rev (Array.to_list half))) in
  Gc.full_major ();
  let _, _, major0 = Gc.counters () in
  let ok, _ = Extsort.multiset_equality ~device:Tape.Device.Mem inst in
  let _, _, major1 = Gc.counters () in
  check "the instance is a yes-instance" true ok;
  let words = major1 -. major0 and bound = 8. *. float_of_int (2 * m) in
  check
    (Printf.sprintf "%.0f major words < 8 per item (%.0f)" words bound)
    true (words < bound)

let test_budget_enforcement () =
  let st = Random.State.make [| 47 |] in
  let inst = G.yes_instance st D.Check_sort ~m:64 ~n:8 in
  (* generous budget: fine *)
  let _, rep =
    Extsort.decide
      ~budget:{ Tape.Group.max_scans = Some 1000; max_internal = Some 100 }
      D.Check_sort inst
  in
  check "runs under a generous budget" true (rep.Extsort.scans <= 1000);
  (* a budget below the measured need: the run is stopped mid-flight *)
  check "tight scan budget enforced" true
    (try
       ignore
         (Extsort.decide
            ~budget:
              { Tape.Group.max_scans = Some (rep.Extsort.scans - 1); max_internal = None }
            D.Check_sort inst);
       false
     with Tape.Budget_exceeded _ -> true);
  check "tight internal budget enforced" true
    (try
       ignore
         (Extsort.decide
            ~budget:{ Tape.Group.max_scans = None; max_internal = Some 1 }
            D.Check_sort inst);
       false
     with Tape.Budget_exceeded _ -> true)

let test_disjoint_decider () =
  let st = Random.State.make [| 46 |] in
  for _ = 1 to 40 do
    let inst, label = Problems.Disjoint.labelled st ~m:8 ~n:8 in
    let got, rep = Extsort.disjoint inst in
    check "matches reference" true (got = label);
    check "log scans" true
      (rep.Extsort.scans <= Extsort.theoretical_scan_bound ~n:rep.Extsort.n)
  done;
  check "empty disjoint" true (fst (Extsort.disjoint (I.decode "")))

let prop_sorting_solves_checksort =
  (* Corollary 10 direction: CHECK-SORT via sorting: sorted(xs) = ys *)
  QCheck.Test.make ~name:"sort-based check_sort = reference" ~count:150
    QCheck.(pair (int_range 1 10) (int_bound 100000))
    (fun (m, seed) ->
      let st = Random.State.make [| seed |] in
      let inst, _ = G.labelled st D.Check_sort ~m ~n:5 in
      fst (Extsort.check_sort inst) = D.check_sort inst)

let () =
  Alcotest.run "extsort"
    [
      ( "sort",
        [
          Alcotest.test_case "basic" `Quick test_sort_basic;
          Alcotest.test_case "duplicates/lengths" `Quick test_sort_duplicates_and_lengths;
          QCheck_alcotest.to_alcotest prop_sort_matches_stdlib;
          Alcotest.test_case "O(1) registers" `Quick test_sort_registers_constant;
          Alcotest.test_case "O(log N) scans" `Quick test_scan_growth_logarithmic;
          Alcotest.test_case "k-way merge" `Quick test_kway_sort;
          Alcotest.test_case "2-way replay digest" `Quick test_two_way_replay;
          QCheck_alcotest.to_alcotest prop_kway_matches_stdlib;
          QCheck_alcotest.to_alcotest prop_register_forms_agree;
          Alcotest.test_case "file sort allocation" `Quick test_sort_allocation;
          Alcotest.test_case "shard sort allocation" `Quick test_shard_sort_allocation;
          Alcotest.test_case "shard manifest allocation" `Quick test_manifest_allocation;
          Alcotest.test_case "exact slots" `Quick test_exact_slots;
          QCheck_alcotest.to_alcotest prop_exact_slots_sort_alike;
        ] );
      ( "corollary 7 deciders",
        [
          Alcotest.test_case "match reference" `Quick test_deciders_match_reference;
          Alcotest.test_case "set vs multiset" `Quick test_set_equality_multiplicities;
          Alcotest.test_case "degenerate" `Quick test_degenerate_instances;
          Alcotest.test_case "SHORT instances" `Quick test_short_instances_round_trip;
          Alcotest.test_case "disjoint sets" `Quick test_disjoint_decider;
          Alcotest.test_case "budget enforcement" `Quick test_budget_enforcement;
          Alcotest.test_case "file decider allocation" `Quick
            (decider_allocation (fun ~device inst -> Extsort.multiset_equality ~device inst));
          Alcotest.test_case "set-eq decider allocation" `Quick
            (decider_allocation (fun ~device inst -> Extsort.decide ~device D.Set_equality inst));
          Alcotest.test_case "mem sort allocation" `Quick test_mem_sort_allocation;
          Alcotest.test_case "mem skewed items" `Quick test_mem_skewed_words;
          QCheck_alcotest.to_alcotest prop_sorting_solves_checksort;
        ] );
    ]
