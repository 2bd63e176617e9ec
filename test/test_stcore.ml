(* Tests for the core lower-bound machinery: the Lemma 21 adversary,
   the composition lemma checker (Lemma 34), the Lemma 21/22 parameter
   arithmetic, and the class landscape. *)

module G = Problems.Generators
module Machines = Listmachine.Machines
module Nlm = Listmachine.Nlm
module Adv = Stcore.Adversary
module Comp = Stcore.Composition
module Params = Stcore.Params

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space = G.Checkphi.default_space ~m:8 ~n:12

(* ------------------------------------------------------------------ *)
(* Adversary *)

let test_adversary_fools_truncated () =
  let st = Random.State.make [| 30 |] in
  List.iter
    (fun chains ->
      let machine = Machines.staircase_checkphi ~space ~chains ~optimistic:true in
      let outcome = Adv.attack st ~space ~machine () in
      match outcome with
      | Adv.Fooled { input; _ } ->
          check "verifies" true (Adv.verify_fooled ~space ~machine outcome);
          check "fooling input is a no-instance" false (G.Checkphi.is_yes space input);
          check "fooling input in the space" true (G.Checkphi.member space input)
      | Adv.Not_fooled { reason; _ } ->
          Alcotest.fail (Printf.sprintf "chains=%d not fooled: %s" chains reason)
      | Adv.Contract_violated _ ->
          Alcotest.fail (Printf.sprintf "chains=%d contract violated" chains))
    [ 0; 1; 2 ]

let test_adversary_respects_complete_machine () =
  let st = Random.State.make [| 31 |] in
  let needed = Machines.chains_needed ~space in
  let machine = Machines.staircase_checkphi ~space ~chains:needed ~optimistic:false in
  match Adv.attack st ~space ~machine () with
  | Adv.Not_fooled { reason; _ } ->
      check "full coverage is the reason" true
        (reason = "every pair (i, m+phi(i)) is compared in the skeleton")
  | Adv.Fooled _ -> Alcotest.fail "fooled a complete machine"
  | Adv.Contract_violated _ -> Alcotest.fail "complete machine violates contract"

let test_adversary_flags_contract_violation () =
  let st = Random.State.make [| 32 |] in
  (* the pessimistic truncated machine rejects every yes-instance *)
  let machine = Machines.staircase_checkphi ~space ~chains:1 ~optimistic:false in
  (match Adv.attack st ~space ~machine () with
  | Adv.Contract_violated { yes_acceptance } ->
      check "zero acceptance" true (yes_acceptance = 0.0)
  | Adv.Fooled _ | Adv.Not_fooled _ -> Alcotest.fail "should be a contract violation");
  (* blind-reject likewise *)
  let blind = Machines.blind ~input_length:16 ~accept:false in
  match Adv.attack st ~space ~machine:blind () with
  | Adv.Contract_violated _ -> ()
  | Adv.Fooled _ | Adv.Not_fooled _ -> Alcotest.fail "blind-reject violates contract"

let test_adversary_fools_blind_accept () =
  let st = Random.State.make [| 33 |] in
  let machine = Machines.blind ~input_length:16 ~accept:true in
  match Adv.attack st ~space ~machine () with
  | Adv.Fooled _ -> ()
  | Adv.Not_fooled _ | Adv.Contract_violated _ ->
      Alcotest.fail "blind-accept must be fooled"

(* an injective rendering of everything an outcome determines - the
   worker-parity test compares these strings *)
let outcome_fingerprint outcome =
  let inst_str inst =
    String.concat "#"
      (Array.to_list
         (Array.map Util.Bitstring.to_string
            (Array.append (Problems.Instance.xs inst) (Problems.Instance.ys inst))))
  in
  match outcome with
  | Adv.Fooled { input; i0; skeleton_classes; yes_acceptance; choice_seed } ->
      Printf.sprintf "fooled:%s:%d:%d:%.6f:%d" (inst_str input) i0
        skeleton_classes yes_acceptance choice_seed
  | Adv.Not_fooled { reason; yes_acceptance; skeleton_classes } ->
      Printf.sprintf "not_fooled:%s:%.6f:%d" reason yes_acceptance
        skeleton_classes
  | Adv.Contract_violated { yes_acceptance } ->
      Printf.sprintf "contract_violated:%.6f" yes_acceptance

let test_attack_worker_parity () =
  (* the attack must be a function of the root seed alone: bit-identical
     for every pool size, and independent of the Random.State it is
     handed when [~seed] is given *)
  let machine = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
  let fp ~state_seed d =
    let pool = Parallel.Pool.create ~domains:d () in
    let st = Random.State.make [| state_seed |] in
    outcome_fingerprint (Adv.attack ~pool ~seed:4242 st ~space ~machine ())
  in
  let reference = fp ~state_seed:1 1 in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "outcome at -j %d" d)
        reference
        (fp ~state_seed:(100 + d) d))
    [ 1; 2; 4 ];
  check "fooled at 2 chains" true
    (String.length reference > 7 && String.sub reference 0 7 = "fooled:")

(* ------------------------------------------------------------------ *)
(* Census scaling levers: canonical-form reduction and sharding *)

let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"canonicalization is idempotent and key-preserving"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 3 |] in
      let inst =
        if seed mod 2 = 0 then G.Checkphi.yes st space else G.Checkphi.no st space
      in
      let c = Adv.canonicalize inst in
      Adv.canonical_key c = Adv.canonical_key inst
      && Problems.Instance.encode (Adv.canonicalize c) = Problems.Instance.encode c)

let prop_canon_preserves_outcome =
  QCheck.Test.make
    ~name:"canonical memoization never changes the verdict or fingerprint"
    ~count:8
    QCheck.(int_bound 10000)
    (fun root ->
      let machine = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
      let census canon =
        Adv.attack_census ~seed:root ~canon
          (Random.State.make [| 1 |])
          ~space ~machine ()
      in
      let on = census true and off = census false in
      Int64.equal on.Adv.fingerprint off.Adv.fingerprint
      && outcome_fingerprint on.Adv.outcome = outcome_fingerprint off.Adv.outcome
      (* the lever saved work without changing a bit of the verdict *)
      && on.Adv.machine_runs < off.Adv.machine_runs)

let prop_shard_merge_matches_direct =
  QCheck.Test.make
    ~name:"shard merge equals the unsharded census for any (seed, k)" ~count:6
    QCheck.(pair (int_bound 10000) (int_range 1 5))
    (fun (root, k) ->
      let machine = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
      let direct =
        Adv.attack_census ~seed:root (Random.State.make [| 1 |]) ~space ~machine ()
      in
      let evs =
        List.init k (fun i ->
            Adv.Shard.collect ~root ~space ~machine ~shard:(i + 1) ~of_:k ())
      in
      let merged = Adv.Shard.merge ~space ~machine evs in
      Int64.equal direct.Adv.fingerprint merged.Adv.fingerprint
      && outcome_fingerprint direct.Adv.outcome
         = outcome_fingerprint merged.Adv.outcome)

let prop_evidence_roundtrip =
  QCheck.Test.make ~name:"shard evidence survives to_string/of_string" ~count:10
    QCheck.(int_bound 10000)
    (fun root ->
      let machine = Machines.random_chain_checkphi ~space in
      let ev = Adv.Shard.collect ~root ~space ~machine ~shard:1 ~of_:2 () in
      let ev' = Adv.Shard.of_string (Adv.Shard.to_string ev) in
      ev' = ev
      && Int64.equal (Adv.Shard.fingerprint ev') (Adv.Shard.fingerprint ev))

(* Shard.merge refuses any set that is not exactly one consistent
   evidence per shard: a duplicate, a gap, or a header that differs
   from its siblings or from the census sizes collect writes. *)
let shard_evs ~k =
  let machine = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
  ( machine,
    List.init k (fun i ->
        Adv.Shard.collect ~root:77 ~space ~machine ~shard:(i + 1) ~of_:k ()) )

let test_merge_rejects_duplicate () =
  let machine, evs = shard_evs ~k:2 in
  let e1 = List.hd evs in
  Alcotest.check_raises "shard 1 twice"
    (Failure "Adversary.Shard.merge: duplicate or missing shard") (fun () ->
      ignore (Adv.Shard.merge ~space ~machine [ e1; e1 ]))

let test_merge_rejects_missing () =
  let machine, evs = shard_evs ~k:3 in
  Alcotest.check_raises "two of three shards"
    (Failure "Adversary.Shard.merge: have 2 shard(s), expected 3") (fun () ->
      ignore (Adv.Shard.merge ~space ~machine (List.tl evs)))

(* the evidence with the first [sub] of its rendering replaced *)
let edited ev ~sub ~by =
  let s = Adv.Shard.to_string ev in
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  Adv.Shard.of_string
    (String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n))

let test_merge_rejects_inconsistent_headers () =
  let inconsistent = Failure "Adversary.Shard.merge: inconsistent shard evidence" in
  let machine, evs = shard_evs ~k:2 in
  let e1 = List.nth evs 0 and e2 = List.nth evs 1 in
  Alcotest.check_raises "another root" inconsistent (fun () ->
      ignore
        (Adv.Shard.merge ~space ~machine
           [ e1; edited e2 ~sub:"root=77 " ~by:"root=78 " ]));
  Alcotest.check_raises "another sample count" inconsistent (fun () ->
      ignore
        (Adv.Shard.merge ~space ~machine [ e1; edited e2 ~sub:"yes=48" ~by:"yes=47" ]));
  (* a lone shard has no sibling to disagree with: its header must
     still carry the census sizes *)
  let _, lone = shard_evs ~k:1 in
  let lone = List.hd lone in
  List.iter
    (fun (sub, by) ->
      Alcotest.check_raises sub inconsistent (fun () ->
          ignore (Adv.Shard.merge ~space ~machine [ edited lone ~sub ~by ])))
    [
      ("yes=48", "yes=47");
      ("trials=8", "trials=7");
      ("resample=32", "resample=31");
      ("fuel=200000", "fuel=199999");
    ]

let test_verify_fooled_rejects_others () =
  let machine = Machines.blind ~input_length:16 ~accept:true in
  check "not-fooled does not verify" false
    (Adv.verify_fooled ~space ~machine
       (Adv.Not_fooled { reason = "x"; yes_acceptance = 1.0; skeleton_classes = 1 }))

(* ------------------------------------------------------------------ *)
(* Composition lemma *)

let values_of inst =
  Array.append (Problems.Instance.xs inst) (Problems.Instance.ys inst)

let test_composition_holds () =
  let st = Random.State.make [| 34 |] in
  let machine = Machines.staircase_checkphi ~space ~chains:1 ~optimistic:true in
  let phi = G.Checkphi.phi space in
  (* find an uncompared i0 from a run *)
  let base = G.Checkphi.yes st space in
  let tr = Nlm.run machine ~values:(values_of base) ~choices:(fun _ -> 0) in
  let sk = Listmachine.Skeleton.of_trace tr in
  match Listmachine.Skeleton.uncompared_phi_indices sk ~m:8 ~phi with
  | [] -> Alcotest.fail "expected uncompared indices"
  | i0 :: _ ->
      (* w: same as v except the value at x-position i0 / y-position phi(i0) *)
      let intervals = G.Checkphi.intervals space in
      let v = values_of base in
      let w = Array.copy v in
      let fresh = Problems.Intervals.random_element st intervals
          (Util.Permutation.apply phi i0)
      in
      w.(i0 - 1) <- fresh;
      w.(8 + Util.Permutation.apply phi i0 - 1) <- fresh;
      (match
         Comp.check ~machine ~choices:(fun _ -> 0) ~v ~w ~i:i0
           ~i':(8 + Util.Permutation.apply phi i0) ()
       with
      | Comp.Holds -> ()
      | Comp.Precondition_failed msg -> Alcotest.fail ("precondition: " ^ msg)
      | Comp.Violated msg -> Alcotest.fail ("violated: " ^ msg))

let test_composition_precondition_compared () =
  let st = Random.State.make [| 35 |] in
  let needed = Machines.chains_needed ~space in
  let machine = Machines.staircase_checkphi ~space ~chains:needed ~optimistic:false in
  let phi = G.Checkphi.phi space in
  let base = G.Checkphi.yes st space in
  let v = values_of base in
  let intervals = G.Checkphi.intervals space in
  let fresh = Problems.Intervals.random_element st intervals (Util.Permutation.apply phi 1) in
  let w = Array.copy v in
  w.(0) <- fresh;
  w.(8 + Util.Permutation.apply phi 1 - 1) <- fresh;
  match
    Comp.check ~machine ~choices:(fun _ -> 0) ~v ~w ~i:1
      ~i':(8 + Util.Permutation.apply phi 1) ()
  with
  | Comp.Precondition_failed _ -> ()
  | Comp.Holds -> Alcotest.fail "complete machine compares pair 1; lemma must not apply"
  | Comp.Violated msg -> Alcotest.fail msg

let test_composition_validates_args () =
  let machine = Machines.blind ~input_length:4 ~accept:true in
  try
    ignore
      (Comp.check ~machine ~choices:(fun _ -> 0) ~v:[| "a"; "b"; "c"; "d" |]
         ~w:[| "x"; "y"; "c"; "d" |] ~i:1 ~i':3 ());
    Alcotest.fail "differing outside {i,i'} accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Parameters (Lemma 21 / Lemma 22) *)

let test_lemma21_thresholds () =
  let th = Params.lemma21_thresholds ~t:2 ~r:1 ~m:2000 ~k:4003 in
  Alcotest.(check (float 1e-6)) "min_m = 24*3^4+1" 1945.0 th.Params.min_m;
  check_int "min_k" 4003 th.Params.min_k;
  check "m,k,n consistent" true
    (Params.lemma21_ok ~t:2 ~r:1 ~m:2000 ~k:4003 ~n:60_000_000);
  check "n too small" false (Params.lemma21_ok ~t:2 ~r:1 ~m:2000 ~k:4003 ~n:1000)

let test_lemma22_equations () =
  check_int "input size" (2 * 8 * 513) (Params.input_size ~m:8);
  (* with constant r, eq3 holds for large m *)
  check "eq3 at large m" true (Params.eq3_holds ~t:2 ~r:(Params.r_const 1) ~m:4096);
  check "eq3 fails for log r at small m" false
    (Params.eq3_holds ~t:2 ~r:(Params.r_log ()) ~m:64)

let test_find_min_m () =
  (* constant r (an o(log N) function): a threshold m exists *)
  (match
     Params.find_min_m ~t:2 ~d:4 ~r:(Params.r_const 1) ~s:(Params.s_fourth_root ())
       ~cap:(1 lsl 14)
   with
  | Some m ->
      check "power of two" true (m land (m - 1) = 0);
      check "eq3 holds" true (Params.eq3_holds ~t:2 ~r:(Params.r_const 1) ~m);
      check "eq4 holds" true
        (Params.eq4_holds ~t:2 ~d:4 ~r:(Params.r_const 1) ~s:(Params.s_fourth_root ()) ~m)
  | None -> Alcotest.fail "constant r should admit an m");
  (* r = Theta(log N): no threshold below the cap - the tightness story *)
  match
    Params.find_min_m ~t:2 ~d:4 ~r:(Params.r_log ()) ~s:(Params.s_fourth_root ())
      ~cap:(1 lsl 14)
  with
  | None -> ()
  | Some m -> Alcotest.fail (Printf.sprintf "log r admitted m=%d" m)

(* ------------------------------------------------------------------ *)
(* Classes *)

let test_admits () =
  let spec =
    Stcore.Classes.make_spec ~mode:Stcore.Classes.Deterministic
      ~r:(fun n -> max 1 (int_of_float (log (float_of_int n) /. log 2.0)))
      ~s:(fun _ -> 8)
      ~t:2
      ~label:"ST(log N, 8, 2)" ()
  in
  check "fits" true
    (Stcore.Classes.admits spec { Stcore.Classes.n = 1024; scans = 10; space = 4; tapes = 2 });
  check "too many scans" false
    (Stcore.Classes.admits spec { Stcore.Classes.n = 1024; scans = 11; space = 4; tapes = 2 });
  check "too many tapes" false
    (Stcore.Classes.admits spec { Stcore.Classes.n = 1024; scans = 5; space = 4; tapes = 3 })

let test_paper_results_coverage () =
  let r = Stcore.Classes.paper_results in
  check "nonempty" true (List.length r >= 20);
  (* each of the three decision problems has both a lower and an upper bound *)
  List.iter
    (fun p ->
      check (p ^ " has lower bound") true
        (List.exists
           (fun m -> m.Stcore.Classes.problem = p && not m.Stcore.Classes.member)
           r);
      check (p ^ " has upper bound") true
        (List.exists
           (fun m -> m.Stcore.Classes.problem = p && m.Stcore.Classes.member)
           r))
    [ "SET-EQUALITY"; "MULTISET-EQUALITY"; "CHECK-SORT" ]

(* ------------------------------------------------------------------ *)
(* Lemma 26 *)

let test_lemma26_exact_on_coin () =
  (* the coin machine accepts with probability 1/2 on every input; a
     best fixed sequence accepts either all or none per input, and the
     best over both branches accepts everything *)
  let machine = Machines.coin ~input_length:1 in
  let inputs = [ [| "a" |]; [| "b" |] ] in
  let fixed = Stcore.Lemma26.exact_best machine ~inputs in
  check "meets floor" true (Stcore.Lemma26.meets_lemma_floor fixed ~inputs);
  check_int "coin: one sequence accepts everything" 2
    (List.length fixed.Stcore.Lemma26.accepted)

let test_lemma26_sampled_matches_deterministic () =
  let st = Random.State.make [| 36 |] in
  let needed = Machines.chains_needed ~space in
  let machine = Machines.staircase_checkphi ~space ~chains:needed ~optimistic:false in
  let inputs =
    List.init 10 (fun _ ->
        let i = G.Checkphi.yes st space in
        values_of i)
  in
  let fixed = Stcore.Lemma26.sampled_best st machine ~inputs in
  check_int "deterministic machine accepts all yes" 10
    (List.length fixed.Stcore.Lemma26.accepted);
  check "floor" true (Stcore.Lemma26.meets_lemma_floor fixed ~inputs)

let test_lemma26_exact_guard () =
  let machine = Machines.coin ~input_length:1 in
  try
    ignore
      (Stcore.Lemma26.exact_best ~max_length:64 machine ~inputs:[ [| "a" |] ]
       |> fun f -> f.Stcore.Lemma26.accepted);
    (* coin runs have length 1, so even max_length 64 only enumerates
       |C|^1 = 2: no failure expected *)
    ()
  with Invalid_argument _ -> Alcotest.fail "guard fired on a short machine"

(* ------------------------------------------------------------------ *)
(* Boost *)

let test_boost_error_algebra () =
  let st = Random.State.make [| 37 |] in
  (* a decider accepting with probability exactly 1/4 *)
  let quarter st () = Random.State.int st 4 = 0 in
  let boosted = Stcore.Boost.repeat_or ~rounds:2 quarter in
  let p = Stcore.Boost.estimate_acceptance st ~samples:20000 boosted () in
  (* 1 - (3/4)^2 = 0.4375 *)
  check (Printf.sprintf "repeat_or p=%.3f" p) true (abs_float (p -. 0.4375) < 0.02);
  let anded = Stcore.Boost.repeat_and ~rounds:2 quarter in
  let q = Stcore.Boost.estimate_acceptance st ~samples:20000 anded () in
  (* (1/4)^2 = 0.0625 *)
  check (Printf.sprintf "repeat_and q=%.3f" q) true (abs_float (q -. 0.0625) < 0.01)

let test_boost_preserves_one_sidedness () =
  let st = Random.State.make [| 38 |] in
  (* RST-style decider for CHECK-phi yes/no: accept only after a full
     verification - never accepts a no-instance, and boosting keeps that *)
  let machine =
    Machines.staircase_checkphi ~space ~chains:(Machines.chains_needed ~space)
      ~optimistic:false
  in
  let decider _st inst =
    (Nlm.run machine ~values:(values_of inst) ~choices:(fun _ -> 0)).Nlm.accepted
  in
  let boosted = Stcore.Boost.repeat_or ~rounds:4 decider in
  for _ = 1 to 20 do
    let no = G.Checkphi.no st space in
    check "no false positives survive boosting" false (boosted st no)
  done

let test_boost_rounds_for () =
  check_int "half to 1/16" 4 (Stcore.Boost.rounds_for ~target:0.0625 ~base:0.5);
  check_int "already enough" 1 (Stcore.Boost.rounds_for ~target:0.9 ~base:0.5);
  try
    ignore (Stcore.Boost.rounds_for ~target:0.5 ~base:1.0);
    Alcotest.fail "base 1.0 accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "stcore"
    [
      ( "adversary",
        [
          Alcotest.test_case "fools truncated machines" `Slow
            test_adversary_fools_truncated;
          Alcotest.test_case "respects complete machine" `Quick
            test_adversary_respects_complete_machine;
          Alcotest.test_case "flags contract violations" `Quick
            test_adversary_flags_contract_violation;
          Alcotest.test_case "fools blind-accept" `Quick test_adversary_fools_blind_accept;
          Alcotest.test_case "verify_fooled rejects others" `Quick
            test_verify_fooled_rejects_others;
          Alcotest.test_case "worker-count parity" `Quick
            test_attack_worker_parity;
          QCheck_alcotest.to_alcotest prop_canonicalize_idempotent;
          QCheck_alcotest.to_alcotest prop_canon_preserves_outcome;
          QCheck_alcotest.to_alcotest prop_shard_merge_matches_direct;
          QCheck_alcotest.to_alcotest prop_evidence_roundtrip;
          Alcotest.test_case "shard merge rejects a duplicate" `Quick
            test_merge_rejects_duplicate;
          Alcotest.test_case "shard merge rejects a missing shard" `Quick
            test_merge_rejects_missing;
          Alcotest.test_case "shard merge rejects inconsistent headers" `Quick
            test_merge_rejects_inconsistent_headers;
        ] );
      ( "composition",
        [
          Alcotest.test_case "lemma 34 holds" `Quick test_composition_holds;
          Alcotest.test_case "compared pair: precondition fails" `Quick
            test_composition_precondition_compared;
          Alcotest.test_case "argument validation" `Quick test_composition_validates_args;
        ] );
      ( "parameters",
        [
          Alcotest.test_case "lemma 21 thresholds" `Quick test_lemma21_thresholds;
          Alcotest.test_case "lemma 22 equations" `Quick test_lemma22_equations;
          Alcotest.test_case "find_min_m tightness" `Quick test_find_min_m;
        ] );
      ( "classes",
        [
          Alcotest.test_case "admits" `Quick test_admits;
          Alcotest.test_case "paper results table" `Quick test_paper_results_coverage;
        ] );
      ( "lemma 26",
        [
          Alcotest.test_case "exact on coin" `Quick test_lemma26_exact_on_coin;
          Alcotest.test_case "sampled, deterministic machine" `Quick
            test_lemma26_sampled_matches_deterministic;
          Alcotest.test_case "enumeration guard" `Quick test_lemma26_exact_guard;
        ] );
      ( "boost",
        [
          Alcotest.test_case "error algebra" `Quick test_boost_error_algebra;
          Alcotest.test_case "one-sidedness preserved" `Quick
            test_boost_preserves_one_sidedness;
          Alcotest.test_case "rounds_for" `Quick test_boost_rounds_for;
        ] );
    ]
