(* Tests for the Theorem 8(b) guess-and-check machinery: completeness
   (honest certificates verify), soundness (corrupted ones do not),
   and the NST(3, O(log N), 2) resource envelope. *)

module G = Problems.Generators
module D = Problems.Decide

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_completeness () =
  let st = Random.State.make [| 60 |] in
  List.iter
    (fun prob ->
      for _ = 1 to 30 do
        let m = 1 + Random.State.int st 10 in
        let inst = G.yes_instance st prob ~m ~n:8 in
        match Nst.prove prob inst with
        | None -> Alcotest.fail "no witness for a yes-instance"
        | Some cert ->
            let ok, _ = Nst.verify prob inst cert in
            check "verifies" true ok
      done)
    D.all_problems

let test_no_witness_for_no_instances () =
  let st = Random.State.make [| 61 |] in
  List.iter
    (fun prob ->
      for _ = 1 to 30 do
        let inst = G.no_instance st prob ~m:8 ~n:8 in
        check "prover refuses" true (Nst.prove prob inst = None)
      done)
    D.all_problems

let test_resource_envelope () =
  let st = Random.State.make [| 62 |] in
  List.iter
    (fun prob ->
      List.iter
        (fun m ->
          let inst = G.yes_instance st prob ~m ~n:8 in
          let _, rep = Nst.decide_with_prover prob inst in
          match rep with
          | None -> Alcotest.fail "prover failed"
          | Some r ->
              check
                (Printf.sprintf "%s m=%d scans=%d" (D.problem_name prob) m r.Nst.scans)
                true (r.Nst.scans <= 3);
              check_int "two tapes" 2 r.Nst.tapes;
              check "O(1) registers" true (r.Nst.internal_registers <= 10))
        [ 2; 8; 24 ])
    D.all_problems

let test_soundness_corruptions () =
  let st = Random.State.make [| 63 |] in
  List.iter
    (fun prob ->
      for _ = 1 to 25 do
        let inst = G.yes_instance st prob ~m:8 ~n:8 in
        match Nst.prove prob inst with
        | None -> Alcotest.fail "no witness"
        | Some cert ->
            (* Swap_pi desynchronizes copies: always caught by the
               backward consistency scan. Wrong_value flips a claimed
               value: always caught by the forward checks. *)
            List.iter
              (fun c ->
                let ok, _ = Nst.verify prob inst (Nst.corrupt st c cert) in
                check "corruption caught" false ok)
              [ Nst.Swap_pi; Nst.Wrong_value ]
      done)
    D.all_problems

let test_duplicate_target_caught_for_perm_problems () =
  (* breaking injectivity of pi is caught for the permutation-witness
     problems whenever values are distinct *)
  let st = Random.State.make [| 64 |] in
  let caught = ref 0 and total = ref 0 in
  for _ = 1 to 30 do
    let inst = G.yes_instance st D.Multiset_equality ~m:8 ~n:10 in
    match Nst.prove D.Multiset_equality inst with
    | None -> ()
    | Some cert ->
        incr total;
        let ok, _ =
          Nst.verify D.Multiset_equality inst (Nst.corrupt st Nst.Duplicate_target cert)
        in
        if not ok then incr caught
  done;
  (* with 10-bit random values collisions are rare; expect nearly all caught *)
  check (Printf.sprintf "caught %d/%d" !caught !total) true
    (!caught >= !total - 2)

let test_cross_problem_certificates () =
  (* a multiset certificate for an unsorted instance must fail CHECK-SORT
     verification *)
  let st = Random.State.make [| 65 |] in
  let rec unsorted () =
    let inst = G.yes_instance st D.Multiset_equality ~m:8 ~n:8 in
    if D.check_sort inst then unsorted () else inst
  in
  for _ = 1 to 10 do
    let inst = unsorted () in
    match Nst.prove D.Multiset_equality inst with
    | None -> Alcotest.fail "no multiset witness"
    | Some cert ->
        let ok, _ = Nst.verify D.Check_sort inst cert in
        check "unsorted rejected by checksort verifier" false ok
  done

let test_decide_with_prover_agrees () =
  let st = Random.State.make [| 66 |] in
  List.iter
    (fun prob ->
      for _ = 1 to 40 do
        let m = 1 + Random.State.int st 8 in
        let inst, label = G.labelled st prob ~m ~n:6 in
        let got, _ = Nst.decide_with_prover prob inst in
        check "agrees with reference" true (got = label)
      done)
    D.all_problems

let test_empty_instance () =
  let inst = Problems.Instance.decode "" in
  let got, _ = Nst.decide_with_prover D.Set_equality inst in
  check "empty yes" true got

(* The verifier's tapes hold value ids, so its RAM is O(m^2 + m n),
   not O(m^2 n): at m = 100 and n = 1,000 its 2 (2m)^2 guess cells are
   13 bytes each, however long their values. What it leaves on the
   major heap (tape lines, the certificate's cells, the prover's
   tables) stays under 1M words: 0.52M, against 0.81M when the tapes
   held shared values, and 11.2M when each cell carried its value. *)
let test_verifier_words () =
  let inst = G.yes_instance (Random.State.make [| 5 |]) D.Multiset_equality ~m:100 ~n:1000 in
  Gc.full_major ();
  let _, _, major0 = Gc.counters () in
  let ok, _ = Nst.decide_with_prover D.Multiset_equality inst in
  let _, _, major1 = Gc.counters () in
  check "verifies" true ok;
  let words = major1 -. major0 in
  check (Printf.sprintf "%.0f major words < 1M" words) true (words < 1e6)

(* The tapes' cell codec: a cell decodes to itself, [size] is what
   [write] takes, and two cells have equal bytes exactly when they are
   equal (the half of the codec contract the verifier's register
   compare relies on). Ints are drawn from the whole int32 range. *)
let prop_cell_codec =
  let open QCheck.Gen in
  let index = oneof [ int_range 0 3; int_range (-0x8000_0000) 0x7fff_ffff ] in
  let cell =
    frequency
      [
        (1, return Nst.Blank);
        (2, map (fun v -> Nst.Val v) index);
        (4, map3 (fun efst esnd vid -> Nst.Ent { efst; esnd; vid }) index index index);
      ]
  in
  QCheck.Test.make ~name:"cell codec: decode . encode = id, equal bytes iff equal cells"
    ~count:1000
    (QCheck.make (oneof [ pair cell cell; map (fun c -> (c, c)) cell ]))
    (fun (a, b) ->
      let codec = Nst.codec in
      let encode c =
        let buf = Bytes.create codec.Tape.Device.Codec.max_bytes in
        let n = codec.Tape.Device.Codec.write buf 0 c in
        if n <> codec.Tape.Device.Codec.size c then QCheck.Test.fail_report "size";
        Bytes.sub_string buf 0 n
      in
      let ea = encode a and eb = encode b in
      codec.Tape.Device.Codec.value (Bytes.of_string ea) 0 (String.length ea) = a
      && (ea = eb) = (a = b))

let () =
  Alcotest.run "nst"
    [
      ( "theorem 8(b)",
        [
          Alcotest.test_case "completeness" `Quick test_completeness;
          Alcotest.test_case "no witness for no" `Quick test_no_witness_for_no_instances;
          Alcotest.test_case "NST(3, O(log N), 2) envelope" `Quick test_resource_envelope;
          Alcotest.test_case "verifier RAM at m = 100, n = 1000" `Quick test_verifier_words;
          Alcotest.test_case "soundness vs corruptions" `Quick test_soundness_corruptions;
          Alcotest.test_case "duplicate targets caught" `Quick
            test_duplicate_target_caught_for_perm_problems;
          Alcotest.test_case "cross-problem certificates" `Quick
            test_cross_problem_certificates;
          Alcotest.test_case "decide agrees with reference" `Quick
            test_decide_with_prover_agrees;
          Alcotest.test_case "empty instance" `Quick test_empty_instance;
          QCheck_alcotest.to_alcotest prop_cell_codec;
        ] );
    ]
