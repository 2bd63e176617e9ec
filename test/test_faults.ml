(* Tests for the fault-injection layer: plan determinism (including
   across worker counts - the load-bearing property), corruption
   detection by the deciders, the retry combinator and the checkpoint
   journal. *)

module D = Problems.Decide
module G = Problems.Generators
module Pool = Parallel.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pools () = List.map (fun d -> Pool.create ~domains:d ()) [ 1; 2; 4 ]

let rates_flip p = { Faults.zero with Faults.bit_flip = p }

(* ------------------------------------------------------------------ *)
(* plan determinism *)

let test_plan_derivation_deterministic () =
  let plan = Faults.Plan.create ~seed:42 ~rates:(rates_flip 0.1) in
  check "same (seed, name) -> same words" true
    (Faults.Plan.derive plan ~name:"xs" = Faults.Plan.derive plan ~name:"xs");
  check "different names -> different words" true
    (Faults.Plan.derive plan ~name:"xs" <> Faults.Plan.derive plan ~name:"ys");
  let plan' = Faults.Plan.create ~seed:43 ~rates:(rates_flip 0.1) in
  check "different seeds -> different words" true
    (Faults.Plan.derive plan ~name:"xs" <> Faults.Plan.derive plan' ~name:"xs")

let test_plan_rejects_bad_rates () =
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Faults: bit_flip rate 1.5 outside [0,1]") (fun () ->
      ignore (Faults.Plan.create ~seed:0 ~rates:(rates_flip 1.5)))

(* Zero-rate plans draw no randomness, so attaching one is
   observationally identical to attaching nothing. *)
let test_zero_rate_plan_is_identity () =
  let st () = Random.State.make [| 7 |] in
  let inst = G.yes_instance (st ()) D.Multiset_equality ~m:8 ~n:8 in
  let plain_ok, plain_rep = Extsort.multiset_equality inst in
  let plan = Faults.Plan.create ~seed:99 ~rates:Faults.zero in
  let zero_ok, zero_rep = Extsort.multiset_equality ~faults:plan inst in
  check "verdict unchanged" true (plain_ok = zero_ok);
  check "report unchanged" true (plain_rep = { zero_rep with faults = 0 });
  check_int "no faults injected" 0 zero_rep.Extsort.faults;
  let fp_plain = Fingerprint.run (st ()) inst in
  let fp_zero = Fingerprint.run ~faults:plan (st ()) inst in
  check "fingerprint run unchanged under zero plan" true
    (fp_plain
    = (let ok, rep, params = fp_zero in
       (ok, { rep with Fingerprint.faults = 0 }, params)))

(* ------------------------------------------------------------------ *)
(* corruption detection *)

let test_extsort_detects_corruption () =
  let st = Random.State.make [| 11 |] in
  let inst = G.yes_instance st D.Multiset_equality ~m:16 ~n:10 in
  let detections = ref 0 and faulty = ref 0 in
  for seed = 0 to 19 do
    let plan = Faults.Plan.create ~seed ~rates:(rates_flip 0.02) in
    let ok, rep = Extsort.multiset_equality ~faults:plan inst in
    if rep.Extsort.faults > 0 then begin
      incr faulty;
      if not ok then incr detections
    end
  done;
  check "most plans inject at least one fault" true (!faulty >= 15);
  check "corrupted yes-instances get flagged NO" true (!detections >= !faulty / 2)

let test_fingerprint_detects_corruption () =
  let inst =
    G.yes_instance (Random.State.make [| 5 |]) D.Multiset_equality ~m:16 ~n:10
  in
  let detections = ref 0 and faulty = ref 0 in
  for seed = 0 to 19 do
    let plan = Faults.Plan.create ~seed ~rates:(rates_flip 0.02) in
    let st = Random.State.make [| 1234 |] in
    let ok, rep, _ = Fingerprint.run ~faults:plan st inst in
    if rep.Fingerprint.faults > 0 then begin
      incr faulty;
      if not ok then incr detections
    end
  done;
  check "most plans inject at least one fault" true (!faulty >= 15);
  check "the parity check catches corrupted runs" true (!detections > 0)

(* The whole point of name-keyed fault streams: a faulty Monte Carlo
   sweep is bit-identical for every worker count. *)
let test_faulty_runs_deterministic_across_pools () =
  let run pool =
    Pool.monte_carlo pool ~trials:60 ~seed:0xFA17 (fun st ->
        let inst = G.yes_instance st D.Multiset_equality ~m:8 ~n:8 in
        let plan =
          Faults.Plan.create
            ~seed:(Random.State.full_int st (1 lsl 30))
            ~rates:{ (rates_flip 0.01) with Faults.torn_write = 0.01 }
        in
        let ok, rep = Extsort.multiset_equality ~faults:plan inst in
        (ok, rep.Extsort.faults, rep.Extsort.scans))
  in
  let reference = run (Pool.create ~domains:1 ()) in
  List.iter
    (fun pool ->
      check
        (Printf.sprintf "faulty sweep at %d domains" (Pool.domains pool))
        true
        (run pool = reference))
    (pools ())

(* ------------------------------------------------------------------ *)
(* retry combinators *)

let test_retry_succeeds_after_transients () =
  let attempts = ref 0 in
  let v =
    Faults.Retry.run
      ~policy:{ Faults.Retry.attempts = 5 }
      ~label:"flaky"
      (fun () ->
        incr attempts;
        if !attempts < 3 then raise (Faults.Transient_io "flaky");
        "done")
  in
  Alcotest.(check string) "eventually returns" "done" v;
  check_int "two failures + one success" 3 !attempts

let test_retry_gives_up_after_k () =
  let attempts = ref 0 in
  (match
     Faults.Retry.run
       ~policy:{ Faults.Retry.attempts = 4 }
       ~label:"always-failing"
       (fun () ->
         incr attempts;
         raise (Faults.Transient_io "down"))
   with
  | () -> Alcotest.fail "expected Gave_up"
  | exception Faults.Retry.Gave_up { label; attempts = k; last } ->
      Alcotest.(check string) "label" "always-failing" label;
      check_int "gave up after the policy's attempts" 4 k;
      check "last transient preserved" true
        (match last with Faults.Transient_io _ -> true | _ -> false));
  check_int "ran exactly K times" 4 !attempts

let test_retry_fatal_propagates_immediately () =
  let attempts = ref 0 in
  Alcotest.check_raises "fatal exception not retried"
    (Invalid_argument "broken") (fun () ->
      Faults.Retry.run ~label:"broken" (fun () ->
          incr attempts;
          raise (Invalid_argument "broken")));
  check_int "single attempt" 1 !attempts

(* ------------------------------------------------------------------ *)
(* checkpoint journal *)

let with_tmp_dir f =
  let dir = Filename.temp_file "stlb-test-ckpt" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let test_checkpoint_roundtrip () =
  with_tmp_dir (fun dir ->
      let t = Harness.Checkpoint.open_dir dir in
      let output = "E99 table\n  row 1\n  row 2\n" in
      check "missing entry" true (Harness.Checkpoint.lookup t ~name:"exp99" = None);
      Harness.Checkpoint.store t ~name:"exp99" ~output;
      check "stored entry replays verbatim" true
        (Harness.Checkpoint.lookup t ~name:"exp99" = Some output);
      (* non-ASCII and JSON specials must round-trip exactly *)
      let tricky = "quote \" backslash \\ tab \t\nbell \007 end" in
      Harness.Checkpoint.store t ~name:"tricky" ~output:tricky;
      check "escaping round-trips" true
        (Harness.Checkpoint.lookup t ~name:"tricky" = Some tricky);
      (* journals written with the older \t / \r escapes still replay *)
      let old = "tab\there\r\n" in
      Out_channel.with_open_bin (Filename.concat dir "old.json") (fun oc ->
          Printf.fprintf oc
            "{\"experiment\":\"old\",\"crc\":%d,\"output\":\"tab\\there\\r\\n\"}\n"
            (Util.Hash.crc32 old));
      check "older escapes replay" true
        (Harness.Checkpoint.lookup t ~name:"old" = Some old))

let test_checkpoint_detects_corruption () =
  with_tmp_dir (fun dir ->
      let t = Harness.Checkpoint.open_dir dir in
      Harness.Checkpoint.store t ~name:"exp1" ~output:"some table\n";
      let file = Filename.concat dir "exp1.json" in
      let contents = In_channel.with_open_bin file In_channel.input_all in
      let corrupted =
        String.map (fun c -> if c = 't' then 'x' else c) contents
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc corrupted);
      check "corrupt journal discarded" true
        (Harness.Checkpoint.lookup t ~name:"exp1" = None);
      check "corrupt file removed" true (not (Sys.file_exists file)))

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "derivation deterministic" `Quick
            test_plan_derivation_deterministic;
          Alcotest.test_case "bad rates rejected" `Quick
            test_plan_rejects_bad_rates;
          Alcotest.test_case "zero-rate plan is identity" `Quick
            test_zero_rate_plan_is_identity;
        ] );
      ( "detection",
        [
          Alcotest.test_case "extsort flags corrupted instances" `Quick
            test_extsort_detects_corruption;
          Alcotest.test_case "fingerprint flags corrupted instances" `Quick
            test_fingerprint_detects_corruption;
          Alcotest.test_case "faulty sweeps identical for -j 1/2/4" `Slow
            test_faulty_runs_deterministic_across_pools;
        ] );
      ( "retry",
        [
          Alcotest.test_case "succeeds after transients" `Quick
            test_retry_succeeds_after_transients;
          Alcotest.test_case "gives up after K attempts" `Quick
            test_retry_gives_up_after_k;
          Alcotest.test_case "fatal propagates immediately" `Quick
            test_retry_fatal_propagates_immediately;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "store/lookup round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "corruption detected and discarded" `Quick
            test_checkpoint_detects_corruption;
        ] );
    ]
