(* Tests for the observability layer: the ledger recorder over the
   tapes' own move/read/write counts (exact counts, future tapes,
   same-named tapes in two groups counted apart), the
   theorem-budget audits of Theorem 8(a)/(b) and Corollary 7 (positive
   on the real deciders across N = 2^8 .. 2^14, negative on a
   deliberately over-budget zigzag machine), ledger/trace determinism
   across worker counts, the experiment tables' parity gate, the
   process-wide counters, and the checkpoint discard accounting. *)

module D = Problems.Decide
module G = Problems.Generators
module I = Problems.Instance
module Pool = Parallel.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let state seed = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* recorder exact counts *)

let test_recorder_exact_counts () =
  let r = Obs.Ledger.Recorder.create ~label:"exact" () in
  let g = Tape.Group.create () in
  Obs.Ledger.Recorder.observe r g;
  let t = Tape.Group.tape_of_list g ~name:"a" ~blank:"" [ "x"; "y"; "z" ] in
  (* 3 reads walking right, then 2 moves back, 1 write *)
  for _ = 1 to 3 do
    ignore (Tape.read t);
    Tape.move t Tape.Right
  done;
  Tape.move t Tape.Left;
  Tape.move t Tape.Left;
  Tape.write t "w";
  let l = Obs.Ledger.Recorder.ledger ~n:3 r in
  check_int "one tape" 1 (Obs.Ledger.tape_count l);
  check_int "reads" 3 (Obs.Ledger.reads l);
  check_int "writes" 1 (Obs.Ledger.writes l);
  check_int "moves" 5 (Obs.Ledger.head_moves l);
  check_int "reversals" 1 l.Obs.Ledger.reversals;
  check_int "scans" 2 l.Obs.Ledger.scans

(* A recorded group must report tapes registered AFTER [observe] —
   that is how the recorder sees the auxiliary tapes the sort creates
   internally. *)
let test_recorder_observes_future_tapes () =
  let r = Obs.Ledger.Recorder.create () in
  let g = Tape.Group.create () in
  Obs.Ledger.Recorder.observe r g;
  let _early = Tape.Group.tape_of_list g ~name:"early" ~blank:"" [ "e" ] in
  let late = Tape.Group.tape g ~name:"late" ~blank:"" () in
  Tape.write late "v";
  ignore (Tape.read late);
  let l = Obs.Ledger.Recorder.ledger r in
  check_int "both tapes in ledger" 2 (Obs.Ledger.tape_count l);
  let late_stats =
    List.find (fun (ts : Obs.Ledger.tape_stats) -> ts.Obs.Ledger.tape = "late")
      l.Obs.Ledger.tapes
  in
  check_int "late tape write seen" 1 late_stats.Obs.Ledger.writes;
  check_int "late tape read seen" 1 late_stats.Obs.Ledger.reads

(* Each tape is charged its own work, whatever its name: two groups
   that each hold a tape named "stream" must not share one count. *)
let test_recorder_same_name_tapes () =
  let r = Obs.Ledger.Recorder.create () in
  let walk cells =
    let g = Tape.Group.create () in
    Obs.Ledger.Recorder.observe r g;
    let t = Tape.Group.tape g ~name:"stream" ~blank:"" () in
    for _ = 1 to cells do
      Tape.move t Tape.Right
    done
  in
  walk 3;
  walk 5;
  let l = Obs.Ledger.Recorder.ledger r in
  Alcotest.(check (list (pair string int)))
    "per-tape head moves"
    [ ("stream", 3); ("stream", 5) ]
    (List.map
       (fun (ts : Obs.Ledger.tape_stats) -> (ts.tape, ts.head_moves))
       l.Obs.Ledger.tapes);
  check_int "total head moves" 8 (Obs.Ledger.head_moves l)

let test_sort_ledger_matches_report () =
  let r = Obs.Ledger.Recorder.create ~label:"sort" () in
  let items = List.init 64 (fun i -> Printf.sprintf "%03d" ((i * 37) mod 64)) in
  let sorted, rep = Extsort.sort ~obs:r items in
  check "output sorted" true (sorted = List.sort String.compare items);
  let l = Obs.Ledger.Recorder.ledger ~n:64 r in
  check_int "ledger scans = report scans" rep.Extsort.scans l.Obs.Ledger.scans;
  check_int "ledger reversals" rep.Extsort.reversals l.Obs.Ledger.reversals;
  check_int "ledger tapes = report tapes" rep.Extsort.tapes
    (Obs.Ledger.tape_count l);
  check "heads moved" true (Obs.Ledger.head_moves l > 0);
  check "cells written" true (Obs.Ledger.writes l > 0)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let prop_sort_is_sorted_permutation =
  QCheck.Test.make ~name:"ledgered sort = sorted permutation" ~count:60
    QCheck.(list_of_size (Gen.int_range 0 40) (string_of_size (Gen.return 4)))
    (fun items ->
      let r = Obs.Ledger.Recorder.create () in
      let sorted, rep = Extsort.sort ~obs:r items in
      let l = Obs.Ledger.Recorder.ledger ~n:(List.length items) r in
      sorted = List.sort String.compare items
      && l.Obs.Ledger.scans = rep.Extsort.scans
      && l.Obs.Ledger.internal_peak = rep.Extsort.register_peak)

let prop_fingerprint_accepts_equal_multisets =
  (* one-sided error: a YES instance is never rejected *)
  QCheck.Test.make ~name:"fingerprint never rejects equal multisets" ~count:80
    QCheck.(pair (int_range 1 24) (int_bound 100000))
    (fun (m, seed) ->
      let st = state seed in
      let inst = G.yes_instance st D.Multiset_equality ~m ~n:8 in
      Fingerprint.decide st inst)

let prop_bertrand_prime_in_range =
  QCheck.Test.make ~name:"bertrand_prime k is a prime in (3k, 6k]" ~count:200
    QCheck.(int_range 1 5000)
    (fun k ->
      let p = Numtheory.bertrand_prime k in
      Numtheory.is_prime p && p > 3 * k && p <= 6 * k)

(* ------------------------------------------------------------------ *)
(* audits: the real deciders pass their theorem budgets *)

let audit_sizes = [ 12; 47; 186; 745 ] (* N = 2m(n+1), n=10: 2^8 .. 2^14 *)

let test_fingerprint_audit_passes () =
  let st = state 50 in
  List.iter
    (fun m ->
      let inst = G.yes_instance st D.Multiset_equality ~m ~n:10 in
      let r = Obs.Ledger.Recorder.create () in
      let _, _, params = Fingerprint.run ~obs:r st inst in
      let l = Obs.Ledger.Recorder.ledger ~n:params.Fingerprint.input_size r in
      let o = Obs.Audit.check Obs.Audit.fingerprint_spec l in
      check (Printf.sprintf "fingerprint within Thm 8(a) at m=%d" m) true
        o.Obs.Audit.ok;
      (* and [enforce] is silent on a passing run *)
      Obs.Audit.enforce Obs.Audit.fingerprint_spec l)
    audit_sizes

let test_mergesort_audit_passes () =
  let st = state 51 in
  List.iter
    (fun m ->
      let inst = G.yes_instance st D.Multiset_equality ~m ~n:10 in
      let r = Obs.Ledger.Recorder.create () in
      let ok, _ = Extsort.multiset_equality ~obs:r inst in
      check "verdict yes" true ok;
      let l = Obs.Ledger.Recorder.ledger ~n:(I.size inst) r in
      let o = Obs.Audit.check Obs.Audit.mergesort_spec l in
      check (Printf.sprintf "merge sort within Cor 7 at m=%d" m) true
        o.Obs.Audit.ok)
    audit_sizes

let test_nst_audit_passes () =
  let st = state 52 in
  List.iter
    (fun m ->
      let inst = G.yes_instance st D.Multiset_equality ~m ~n:10 in
      let r = Obs.Ledger.Recorder.create () in
      let ok, _ = Nst.decide_with_prover ~obs:r D.Multiset_equality inst in
      check "verdict yes" true ok;
      let l = Obs.Ledger.Recorder.ledger ~n:(I.size inst) r in
      let o = Obs.Audit.check Obs.Audit.nst_spec l in
      check (Printf.sprintf "NST verifier within Thm 8(b) at m=%d" m) true
        o.Obs.Audit.ok)
    audit_sizes

(* The audit is falsifiable: a machine that reverses once per item is
   an O(N)-scan machine and must FAIL the O(log N) Corollary 7 budget,
   and [enforce] must raise on it. *)
let zigzag_ledger m =
  let st = state 53 in
  let inst = G.yes_instance st D.Multiset_equality ~m ~n:10 in
  let r = Obs.Ledger.Recorder.create ~label:"zigzag" () in
  let g = Tape.Group.create () in
  Obs.Ledger.Recorder.observe r g;
  let items =
    Array.to_list (Array.map Util.Bitstring.to_string (I.xs inst))
  in
  let t = Tape.Group.tape_of_list g ~name:"data" ~blank:"" items in
  for i = 0 to m - 1 do
    while Tape.position t < i do
      Tape.move t Tape.Right
    done;
    while Tape.position t > 0 do
      Tape.move t Tape.Left
    done
  done;
  Obs.Ledger.Recorder.ledger ~n:(I.size inst) r

let test_audit_rejects_overbudget_machine () =
  let l = zigzag_ledger 186 in
  let o = Obs.Audit.check Obs.Audit.mergesort_spec l in
  check "zigzag fails the scan budget" false o.Obs.Audit.ok;
  let scans_check =
    List.find
      (fun (c : Obs.Audit.check) -> c.Obs.Audit.resource = "scans")
      o.Obs.Audit.checks
  in
  check "scans is the violated resource" false scans_check.Obs.Audit.ok;
  check "enforce raises Budget_violated" true
    (try
       Obs.Audit.enforce Obs.Audit.mergesort_spec l;
       false
     with Obs.Audit.Budget_violated o' -> not o'.Obs.Audit.ok)

let test_wrong_spec_rejects_decider () =
  (* the 6-tape merge-sort decider cannot masquerade as the 1-tape
     2-scan fingerprint machine *)
  let st = state 54 in
  let inst = G.yes_instance st D.Multiset_equality ~m:47 ~n:10 in
  let r = Obs.Ledger.Recorder.create () in
  let _ = Extsort.multiset_equality ~obs:r inst in
  let l = Obs.Ledger.Recorder.ledger ~n:(I.size inst) r in
  check "mergesort ledger fails fingerprint spec" false
    (Obs.Audit.check Obs.Audit.fingerprint_spec l).Obs.Audit.ok

let test_mergesort_allowance_is_3x_extsort_bound () =
  (* the audit layer duplicates the closed form on purpose; keep the
     two in sync *)
  List.iter
    (fun n ->
      match Obs.Audit.mergesort_spec.Obs.Audit.scans with
      | Some b ->
          check_int
            (Printf.sprintf "allowance at n=%d" n)
            (3 * Extsort.theoretical_scan_bound ~n)
            (Obs.Audit.allowance b ~n)
      | None -> Alcotest.fail "mergesort spec has a scan bound")
    [ 2; 256; 1034; 16390; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* determinism across worker counts *)

let test_pool_counters_worker_count_invariant () =
  let counts =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        let before = Obs.Counters.snapshot () in
        let hits =
          Pool.monte_carlo_count pool ~trials:100 ~seed:7 (fun st ->
              Random.State.bool st)
        in
        let d = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since:before in
        (hits, d.Obs.Counters.pool_chunks))
      [ 1; 2; 4 ]
  in
  match counts with
  | (h1, c1) :: rest ->
      check "chunk count matches the chunking rule" true
        (c1 = (100 + Pool.trials_per_chunk - 1) / Pool.trials_per_chunk);
      List.iter
        (fun (h, c) ->
          check_int "hits invariant" h1 h;
          check_int "pool_chunks invariant" c1 c)
        rest
  | [] -> assert false

let test_ledgers_identical_across_runs () =
  let ledger () =
    let st = state 55 in
    let inst = G.yes_instance st D.Multiset_equality ~m:16 ~n:8 in
    let r = Obs.Ledger.Recorder.create ~label:"det" () in
    let _ = Extsort.multiset_equality ~obs:r inst in
    Obs.Ledger.Recorder.ledger ~n:(I.size inst) r
  in
  check "two runs, structurally equal ledgers" true (ledger () = ledger ())

let trace_bytes ~domains =
  let path = Filename.temp_file "stlb-test-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.with_sink (Obs.Trace.open_file path) (fun () ->
          let st = state 56 in
          let inst = G.yes_instance st D.Multiset_equality ~m:16 ~n:8 in
          let pool = Pool.create ~domains () in
          (* pool work inside the recorder window: its chunk counters
             land in the ledger and must not depend on [domains] *)
          let r = Obs.Ledger.Recorder.create ~label:"trace" () in
          let _ =
            Pool.monte_carlo_count pool ~trials:60 ~seed:9 (fun st ->
                Random.State.bool st)
          in
          let _ = Extsort.multiset_equality ~obs:r inst in
          let l = Obs.Ledger.Recorder.ledger ~n:(I.size inst) r in
          Obs.Trace.ledger_current l;
          Obs.Trace.audit_current (Obs.Audit.check Obs.Audit.mergesort_spec l));
      In_channel.with_open_bin path In_channel.input_all)

let test_traces_identical_across_worker_counts () =
  let t1 = trace_bytes ~domains:1 in
  check "trace not empty" true (String.length t1 > 0);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "-j %d trace = -j 1 trace" domains)
        t1
        (trace_bytes ~domains))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* counters from the retry combinators *)

let test_retry_counters () =
  let before = Obs.Counters.snapshot () in
  let attempts = ref 0 in
  let v =
    Faults.Retry.run ~label:"flaky" (fun () ->
        incr attempts;
        if !attempts < 3 then raise (Faults.Transient_io "flaky");
        !attempts)
  in
  check_int "succeeded on third attempt" 3 v;
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since:before in
  check_int "two re-attempts counted" 2 d.Obs.Counters.retry_attempts;
  check_int "no give-up" 0 d.Obs.Counters.retry_gave_up;
  let before = Obs.Counters.snapshot () in
  (try
     Faults.Retry.run ~label:"doomed" (fun () ->
         raise (Faults.Transient_io "doomed"))
   with Faults.Retry.Gave_up _ -> ());
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since:before in
  check_int "give-up counted" 1 d.Obs.Counters.retry_gave_up

(* ------------------------------------------------------------------ *)
(* checkpoint discard accounting (regression: discards were invisible
   outside stderr) *)

let with_tmp_dir f =
  let dir = Filename.temp_file "stlb-test-obs-ckpt" "" in
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

let test_checkpoint_discards_are_counted () =
  with_tmp_dir (fun dir ->
      let t = Harness.Checkpoint.open_dir dir in
      let before = Obs.Counters.snapshot () in
      Harness.Checkpoint.store t ~name:"exp1" ~output:"a table\n";
      check "valid entry replays" true
        (Harness.Checkpoint.lookup t ~name:"exp1" <> None);
      (* corrupt the payload so the checksum disagrees *)
      let file = Filename.concat dir "exp1.json" in
      let contents = In_channel.with_open_bin file In_channel.input_all in
      let corrupted =
        String.map (fun c -> if c = 'a' then 'b' else c) contents
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc corrupted);
      check "corrupt entry discarded" true
        (Harness.Checkpoint.lookup t ~name:"exp1" = None);
      let d = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since:before in
      check_int "stored counted" 1 d.Obs.Counters.checkpoint_stored;
      check_int "replay counted" 1 d.Obs.Counters.checkpoint_replayed;
      check_int "discard counted" 1 d.Obs.Counters.checkpoint_discarded)

(* ------------------------------------------------------------------ *)
(* the experiment tables' parity gate: disagreeing fingerprints fail the
   table, and a failed table is never journaled *)

let test_parity_gate () =
  let module E = Harness.Experiments in
  let gate fps = E.footer [ (E.agree fps, "  parity: fps") ] "  expected: one" in
  gate [ 0xe95ee6596467b13cL; 0xe95ee6596467b13cL ];
  (match gate [ 0xe95ee6596467b13cL; 0xa51ca65585bbf958L ] with
  | () -> Alcotest.fail "different fingerprints passed the gate"
  | exception E.Table_failed lines ->
      Alcotest.(check (list string)) "failed verdicts" [ "parity: fps" ] lines);
  with_tmp_dir @@ fun dir ->
  let t = Harness.Checkpoint.open_dir dir in
  (match
     Harness.Checkpoint.run (Some t) ~name:"gate" (fun () ->
         gate [ 1L; 2L ])
   with
  | () -> Alcotest.fail "failed table completed under a checkpoint"
  | exception E.Table_failed _ -> ());
  check "failed table not journaled" true
    (Harness.Checkpoint.lookup t ~name:"gate" = None)

(* ------------------------------------------------------------------ *)
(* trace sink mechanics *)

let test_trace_emission_and_escaping () =
  let path = Filename.temp_file "stlb-test-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t = Obs.Trace.open_file path in
      Obs.Trace.emit t ~event:"demo"
        [
          ("s", Obs.Trace.String "a\"b\\c\nd");
          ("i", Obs.Trace.Int (-3));
          ("b", Obs.Trace.Bool true);
        ];
      Obs.Trace.close t;
      Alcotest.(check string)
        "escaped JSONL line"
        "{\"event\":\"demo\",\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"b\":true}\n"
        (In_channel.with_open_bin path In_channel.input_all))

let test_no_sink_is_silent () =
  (* emit_current without a sink must be a no-op, not a crash *)
  check "no sink installed" true (Obs.Trace.current () = None);
  Obs.Trace.emit_current ~event:"dropped" [];
  check "still no sink" true (Obs.Trace.current () = None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "exact counts" `Quick test_recorder_exact_counts;
          Alcotest.test_case "future tapes instrumented" `Quick
            test_recorder_observes_future_tapes;
          Alcotest.test_case "same-named tapes counted apart" `Quick
            test_recorder_same_name_tapes;
          Alcotest.test_case "sort ledger matches report" `Quick
            test_sort_ledger_matches_report;
          QCheck_alcotest.to_alcotest prop_sort_is_sorted_permutation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_fingerprint_accepts_equal_multisets;
          QCheck_alcotest.to_alcotest prop_bertrand_prime_in_range;
        ] );
      ( "audit",
        [
          Alcotest.test_case "fingerprint passes Thm 8(a)" `Slow
            test_fingerprint_audit_passes;
          Alcotest.test_case "merge sort passes Cor 7" `Slow
            test_mergesort_audit_passes;
          Alcotest.test_case "NST verifier passes Thm 8(b)" `Slow
            test_nst_audit_passes;
          Alcotest.test_case "over-budget machine rejected" `Quick
            test_audit_rejects_overbudget_machine;
          Alcotest.test_case "wrong spec rejected" `Quick
            test_wrong_spec_rejects_decider;
          Alcotest.test_case "allowance = 3x extsort bound" `Quick
            test_mergesort_allowance_is_3x_extsort_bound;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool counters invariant under -j" `Slow
            test_pool_counters_worker_count_invariant;
          Alcotest.test_case "ledgers identical across runs" `Quick
            test_ledgers_identical_across_runs;
          Alcotest.test_case "traces identical for -j 1/2/4" `Slow
            test_traces_identical_across_worker_counts;
          Alcotest.test_case "parity gate fails on disagreement" `Quick
            test_parity_gate;
        ] );
      ( "counters",
        [
          Alcotest.test_case "retry attempts and give-ups" `Quick
            test_retry_counters;
          Alcotest.test_case "checkpoint discards counted" `Quick
            test_checkpoint_discards_are_counted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emission and escaping" `Quick
            test_trace_emission_and_escaping;
          Alcotest.test_case "no sink is silent" `Quick test_no_sink_is_silent;
        ] );
    ]
