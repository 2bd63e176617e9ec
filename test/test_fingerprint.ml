(* Tests for the Theorem 8(a) fingerprint algorithm: resource envelope
   co-RST(2, O(log N), 1), one-sidedness (no false negatives), error
   decay, Claim 1 collision rates, amplification. *)

module G = Problems.Generators
module D = Problems.Decide
module I = Problems.Instance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let st0 () = Random.State.make [| 50 |]

let test_no_false_negatives () =
  let st = st0 () in
  for _ = 1 to 300 do
    let m = 1 + Random.State.int st 12 in
    let inst = G.yes_instance st D.Multiset_equality ~m ~n:10 in
    let ok, _, _ = Fingerprint.run st inst in
    check "yes accepted" true ok
  done

let test_resource_envelope () =
  let st = st0 () in
  List.iter
    (fun (m, n) ->
      let inst = G.yes_instance st D.Multiset_equality ~m ~n in
      let _, rep, params = Fingerprint.run st inst in
      check_int "two scans" 2 rep.Fingerprint.scans;
      check_int "one tape" 1 rep.Fingerprint.tapes;
      (* internal bits are O(log N): generous constant 40 *)
      let n_sz = float_of_int params.Fingerprint.input_size in
      check
        (Printf.sprintf "bits=%d at N=%d" rep.Fingerprint.internal_bits
           params.Fingerprint.input_size)
        true
        (float_of_int rep.Fingerprint.internal_bits <= 40.0 *. (log n_sz /. log 2.0)))
    [ (4, 8); (16, 16); (64, 24); (128, 12) ]

let test_parameters_well_formed () =
  let st = st0 () in
  let inst = G.yes_instance st D.Multiset_equality ~m:16 ~n:12 in
  let _, _, p = Fingerprint.run st inst in
  check_int "m detected" 16 p.Fingerprint.m;
  check_int "n detected" 12 p.Fingerprint.n;
  check_int "N detected" (I.size inst) p.Fingerprint.input_size;
  check "p1 prime <= k" true
    (Numtheory.is_prime p.Fingerprint.p1 && p.Fingerprint.p1 <= p.Fingerprint.k);
  check "p2 in (3k,6k]" true
    (Numtheory.is_prime p.Fingerprint.p2
    && p.Fingerprint.p2 > 3 * p.Fingerprint.k
    && p.Fingerprint.p2 <= 6 * p.Fingerprint.k);
  check "x unit" true (p.Fingerprint.x >= 1 && p.Fingerprint.x < p.Fingerprint.p2)

let test_false_positive_rate_small () =
  let st = st0 () in
  let rate = Fingerprint.false_positive_rate st ~m:8 ~n:10 ~trials:500 in
  check (Printf.sprintf "rate=%.4f" rate) true (rate <= 0.05)

let test_error_decays_with_m () =
  let st = st0 () in
  let r2 = Fingerprint.false_positive_rate st ~m:2 ~n:8 ~trials:600 in
  let r16 = Fingerprint.false_positive_rate st ~m:16 ~n:8 ~trials:600 in
  check (Printf.sprintf "%.4f >= %.4f" r2 r16) true (r2 >= r16)

let test_claim1_collision_rate () =
  let st = st0 () in
  let rate = Fingerprint.residue_collision_rate st ~m:8 ~n:10 ~trials:400 in
  (* Claim 1: O(1/m); with m=8 the constant makes this well below 0.2 *)
  check (Printf.sprintf "claim1 rate=%.4f" rate) true (rate <= 0.2)

let test_amplification () =
  let st = st0 () in
  (* amplified runs keep perfect completeness *)
  for _ = 1 to 50 do
    let inst = G.yes_instance st D.Multiset_equality ~m:6 ~n:8 in
    check "amplified yes" true (Fingerprint.amplified st ~rounds:3 inst)
  done;
  (* and shrink the false positive rate on adversarial tiny instances *)
  let fp_single = ref 0 and fp_amp = ref 0 in
  for _ = 1 to 400 do
    let inst = G.no_instance st D.Multiset_equality ~m:2 ~n:4 in
    if Fingerprint.decide st inst then incr fp_single;
    if Fingerprint.amplified st ~rounds:4 inst then incr fp_amp
  done;
  check "amplification does not hurt" true (!fp_amp <= !fp_single)

let test_detects_multiset_difference_with_equal_sets () =
  (* multisets differ but sets coincide: fingerprinting must reject
     (with high probability over repetitions) *)
  let st = st0 () in
  let misses = ref 0 in
  for _ = 1 to 100 do
    let inst = G.set_yes_multiset_no st ~m:8 ~n:8 in
    if Fingerprint.amplified st ~rounds:5 inst then incr misses
  done;
  check (Printf.sprintf "misses=%d" !misses) true (!misses <= 2)

let test_degenerate () =
  let st = st0 () in
  let ok, rep, _ = Fingerprint.run st (I.decode "") in
  check "empty accepted" true ok;
  check "empty scan count" true (rep.Fingerprint.scans <= 2);
  let ok1, _, _ = Fingerprint.run st (I.decode "0#0#") in
  check "singleton yes" true ok1

let test_order_invariance () =
  (* permuting the second half never changes the verdict (the sums are
     order-invariant) *)
  let st = st0 () in
  for _ = 1 to 20 do
    let inst = G.yes_instance st D.Multiset_equality ~m:6 ~n:8 in
    let ys = I.ys inst in
    let shuffled = Array.copy ys in
    for i = Array.length shuffled - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- tmp
    done;
    let inst' = I.make (I.xs inst) shuffled in
    let ok, _, _ = Fingerprint.run st inst' in
    check "still accepted" true ok
  done

(* The file-device input path allocates nothing per cell: the preload
   writes the encoded characters straight into the device, and a char
   read decodes its slot without building a pair. The bound (one minor
   word per input cell over the preload and both scans, about 3N cell
   operations) leaves room only for per-run setup. *)
let test_file_input_allocation () =
  let st = Random.State.make [| 7 |] in
  let inst = G.yes_instance st D.Multiset_equality ~m:1024 ~n:16 in
  let cells = I.size inst in
  let spill =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stlb-test-fingerprint-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      try Unix.rmdir spill with Unix.Unix_error _ -> ())
  @@ fun () ->
  let device = Tape.Device.file_spec spill in
  let w0 = Gc.minor_words () in
  let ok, rep, _ = Fingerprint.run ~device st inst in
  let words = Gc.minor_words () -. w0 in
  check "yes accepted" true ok;
  check_int "two scans" 2 rep.Fingerprint.scans;
  check
    (Printf.sprintf "%.0f minor words < 1 per input cell (%d)" words cells)
    true
    (words < float_of_int cells)

let () =
  Alcotest.run "fingerprint"
    [
      ( "theorem 8(a)",
        [
          Alcotest.test_case "no false negatives" `Quick test_no_false_negatives;
          Alcotest.test_case "resource envelope" `Quick test_resource_envelope;
          Alcotest.test_case "parameters" `Quick test_parameters_well_formed;
          Alcotest.test_case "false positive rate" `Quick test_false_positive_rate_small;
          Alcotest.test_case "error decays with m" `Slow test_error_decays_with_m;
          Alcotest.test_case "claim 1 collisions" `Quick test_claim1_collision_rate;
          Alcotest.test_case "amplification" `Quick test_amplification;
          Alcotest.test_case "set-equal multiset-unequal" `Quick
            test_detects_multiset_difference_with_equal_sets;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "order invariance" `Quick test_order_invariance;
          Alcotest.test_case "file input allocation" `Quick
            test_file_input_allocation;
        ] );
    ]
