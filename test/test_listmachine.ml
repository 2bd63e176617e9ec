(* Tests for nondeterministic list machines: the Definition 24 step
   semantics (including the Figure 2 example transition), skeletons
   (Definition 28), compared positions (Definition 33), the bounds of
   Lemmas 30/31, and the concrete CHECK-phi machines. *)

module Nlm = Listmachine.Nlm
module Skeleton = Listmachine.Skeleton
module Bounds = Listmachine.Lm_bounds
module Plan = Listmachine.Plan
module Machines = Listmachine.Machines
module G = Problems.Generators
module B = Util.Bitstring
module P = Util.Permutation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_movement dir move = { Nlm.dir; move }

(* a machine shell used for manual stepping *)
let shell ~lists ~input_length ~alpha =
  Nlm.make ~name:"shell" ~lists ~input_length ~num_choices:1 ~state_count:4
    ~initial:0
    ~is_final:(fun s -> s >= 2)
    ~is_accepting:(fun s -> s = 2)
    ~alpha

(* ------------------------------------------------------------------ *)
(* Step semantics *)

let test_initial_config () =
  let m = shell ~lists:3 ~input_length:4 ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
      { Nlm.next_state = 2; movements = [||] })
  in
  let c = Nlm.initial_config m in
  check_int "list1 cells" 4 (Array.length c.Nlm.contents.(0));
  check_int "list2 cells" 1 (Array.length c.Nlm.contents.(1));
  Alcotest.(check (list int)) "cell 1 holds input 1" [ 1 ]
    (Nlm.cell_inputs c.Nlm.contents.(0).(0));
  check "aux empty" true
    (Nlm.cell_equal c.Nlm.contents.(1).(0) (Nlm.cell_of_syms [ Nlm.Open; Nlm.Close ]));
  Alcotest.(check (array int)) "positions" [| 1; 1; 1 |] c.Nlm.pos;
  Alcotest.(check (array int)) "directions" [| 1; 1; 1 |] c.Nlm.head_dir

let figure2_config () =
  (* lists (x1..x5), (y1..y5), (z1..z5), heads on x4, y2, z3; list 1's
     head arrives moving left, the others moving right *)
  let cell tag = Nlm.cell_of_syms [ Nlm.St tag ] in
  {
    Nlm.state = 0;
    pos = [| 4; 2; 3 |];
    head_dir = [| -1; 1; 1 |];
    contents =
      [|
        Array.init 5 (fun i -> cell (10 + i));
        Array.init 5 (fun i -> cell (20 + i));
        Array.init 5 (fun i -> cell (30 + i));
      |];
    revs = [| 0; 0; 0 |];
    ids = [| [| 1; 2; 3; 4; 5 |]; [| 6; 7; 8; 9; 10 |]; [| 11; 12; 13; 14; 15 |] |];
    next_id = 16;
  }

let test_figure2_transition () =
  (* the Figure 2 example: (a, x4, y2, z3, c) ->
     (b, (-1,false), (+1,true), (+1,false)) *)
  let m =
    shell ~lists:3 ~input_length:0
      ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
        {
          Nlm.next_state = 1;
          movements = [| mk_movement (-1) false; mk_movement 1 true; mk_movement 1 false |];
        })
  in
  let c = figure2_config () in
  let c', moves = Nlm.step m ~values:[||] c ~choice:0 in
  let w =
    Nlm.cell_of_syms
      ([ Nlm.St 0 ]
      @ [ Nlm.Open; Nlm.St 13; Nlm.Close ]   (* x4 *)
      @ [ Nlm.Open; Nlm.St 21; Nlm.Close ]   (* y2 *)
      @ [ Nlm.Open; Nlm.St 32; Nlm.Close ]   (* z3 *)
      @ [ Nlm.Open; Nlm.Ch 0; Nlm.Close ])
  in
  (* list 1: w spliced between x4 and x5, head still on x4 *)
  check_int "list1 grew" 6 (Array.length c'.Nlm.contents.(0));
  check "w after x4" true (Nlm.cell_equal c'.Nlm.contents.(0).(4) w);
  check_int "head1 on x4" 4 c'.Nlm.pos.(0);
  (* list 2: y2 overwritten by w, head moved to y3 *)
  check_int "list2 same size" 5 (Array.length c'.Nlm.contents.(1));
  check "y2 overwritten" true (Nlm.cell_equal c'.Nlm.contents.(1).(1) w);
  check_int "head2 on y3" 3 c'.Nlm.pos.(1);
  (* list 3: w spliced before z3, head still on z3 *)
  check_int "list3 grew" 6 (Array.length c'.Nlm.contents.(2));
  check "w before z3" true (Nlm.cell_equal c'.Nlm.contents.(2).(2) w);
  check "z3 intact" true
    (Nlm.cell_equal c'.Nlm.contents.(2).(3) (Nlm.cell_of_syms [ Nlm.St 32 ]));
  check_int "head3 on z3 (shifted)" 4 c'.Nlm.pos.(2);
  (* cell moves: only list 2's head changed cell *)
  Alcotest.(check (array int)) "cell moves" [| 0; 1; 0 |] moves;
  (* no direction changes in this transition *)
  Alcotest.(check (array int)) "revs" [| 0; 0; 0 |] c'.Nlm.revs

let test_state_only_step () =
  let m =
    shell ~lists:2 ~input_length:2
      ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
        { Nlm.next_state = 1; movements = [| mk_movement 1 false; mk_movement 1 false |] })
  in
  let c = Nlm.initial_config m in
  let c', moves = Nlm.step m ~values:[| "a"; "b" |] c ~choice:0 in
  check_int "state advanced" 1 c'.Nlm.state;
  check "contents untouched" true (c'.Nlm.contents = c.Nlm.contents);
  Alcotest.(check (array int)) "no moves" [| 0; 0 |] moves

let test_clamping () =
  (* moving left at position 1 is clamped to (dir, false): a turn-and-
     splice, not a fall off the end *)
  let m =
    shell ~lists:1 ~input_length:2
      ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
        { Nlm.next_state = 1; movements = [| mk_movement (-1) true |] })
  in
  let c = Nlm.initial_config m in
  let c', _ = Nlm.step m ~values:[| "a"; "b" |] c ~choice:0 in
  (* the clamped (-1, false) with old direction +1 splices before the
     head: the head stays on the original cell, now at index 2 *)
  check_int "head on old cell" 2 c'.Nlm.pos.(0);
  check_int "old cell id preserved" c.Nlm.ids.(0).(0) c'.Nlm.ids.(0).(1);
  check_int "reversal counted" 1 c'.Nlm.revs.(0);
  check_int "list grew by splice" 3 (Array.length c'.Nlm.contents.(0));
  check_int "direction flipped" (-1) c'.Nlm.head_dir.(0)

let test_reversal_counting_run () =
  (* two scripted turns -> 2 reversals, scans = 3 *)
  let p = Plan.create ~lists:2 ~input_length:4 () in
  Plan.advance p ~tau:1 ~dir:1;
  Plan.advance p ~tau:1 ~dir:1;
  Plan.advance p ~tau:1 ~dir:(-1);
  Plan.advance p ~tau:1 ~dir:1;
  let m = Plan.build p ~name:"zigzag" ~accept_at_end:true in
  let tr = Nlm.run m ~values:[| "a"; "b"; "c"; "d" |] ~choices:(fun _ -> 0) in
  check_int "2 reversals" 2 tr.Nlm.total_revs;
  check_int "3 scans" 3 (Nlm.scans tr);
  check "accepted" true tr.Nlm.accepted

let test_cell_components () =
  let m =
    shell ~lists:2 ~input_length:2
      ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
        { Nlm.next_state = 1; movements = [| mk_movement 1 true; mk_movement 1 false |] })
  in
  let c = Nlm.initial_config m in
  let c', _ = Nlm.step m ~values:[| "a"; "b" |] c ~choice:0 in
  (* the overwritten cell on list 1 is a = St 0, components [x1; x2], choice 0 *)
  match Nlm.cell_components c'.Nlm.contents.(0).(0) with
  | Some (a, [ x1; x2 ], ch) ->
      check_int "state" 0 a;
      Alcotest.(check (list int)) "x1 payload" [ 1 ] (Nlm.cell_inputs x1);
      check "x2 was aux" true
        (Nlm.cell_equal x2 (Nlm.cell_of_syms [ Nlm.Open; Nlm.Close ]));
      check_int "choice" 0 ch
  | Some _ | None -> Alcotest.fail "unparseable written cell"

let test_coin_machine () =
  let m = Machines.coin ~input_length:1 in
  let st = Random.State.make [| 19 |] in
  let p = Nlm.accept_probability st ~samples:3000 m ~values:[| "x" |] in
  check "about half" true (abs_float (p -. 0.5) < 0.05);
  (* exact enumeration gives exactly 1/2 *)
  Alcotest.(check (float 1e-12)) "exact 1/2" 0.5
    (Nlm.exact_probability m ~values:[| "x" |])

let test_exact_probability_deterministic () =
  (* a deterministic scripted machine has probability exactly 0 or 1 *)
  let p = Plan.create ~lists:2 ~input_length:2 () in
  Plan.advance p ~tau:1 ~dir:1;
  let m = Plan.build p ~name:"det" ~accept_at_end:true in
  Alcotest.(check (float 1e-12)) "prob 1" 1.0
    (Nlm.exact_probability m ~values:[| "a"; "b" |]);
  let m' = Plan.build p ~name:"det-rej" ~accept_at_end:false in
  Alcotest.(check (float 1e-12)) "prob 0" 0.0
    (Nlm.exact_probability m' ~values:[| "a"; "b" |])

let test_blind_machines () =
  let acc = Machines.blind ~input_length:2 ~accept:true in
  let rej = Machines.blind ~input_length:2 ~accept:false in
  let run m = (Nlm.run m ~values:[| "a"; "b" |] ~choices:(fun _ -> 0)).Nlm.accepted in
  check "blind accept" true (run acc);
  check "blind reject" false (run rej)

(* ------------------------------------------------------------------ *)
(* Skeletons *)

let space = G.Checkphi.default_space ~m:8 ~n:12
let phi = G.Checkphi.phi space

let values_of inst =
  Array.append (Problems.Instance.xs inst) (Problems.Instance.ys inst)

let test_skeleton_input_independent () =
  (* data-oblivious machine: same skeleton on every input *)
  let st = Random.State.make [| 20 |] in
  let m = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
  let sk inst =
    Skeleton.of_trace (Nlm.run m ~values:(values_of inst) ~choices:(fun _ -> 0))
  in
  let yes = sk (G.Checkphi.yes st space) in
  let yes2 = sk (G.Checkphi.yes st space) in
  check "same skeleton across accepted inputs" true (Skeleton.equal yes yes2)

let test_compared_pairs_subset () =
  let st = Random.State.make [| 21 |] in
  let m = Machines.staircase_checkphi ~space ~chains:1 ~optimistic:true in
  let tr = Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0) in
  let sk = Skeleton.of_trace tr in
  let compared = Skeleton.phi_compared_count sk ~m:8 ~phi in
  let uncompared = Skeleton.uncompared_phi_indices sk ~m:8 ~phi in
  check_int "partition" 8 (compared + List.length uncompared);
  check "chain 1 is not everything" true (compared < 8);
  (* compared is monotone in chains *)
  let m2 = Machines.staircase_checkphi ~space ~chains:3 ~optimistic:true in
  let tr2 = Nlm.run m2 ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0) in
  let c2 = Skeleton.phi_compared_count (Skeleton.of_trace tr2) ~m:8 ~phi in
  check "more chains, more compared" true (c2 >= compared);
  check_int "full coverage" 8 c2

let test_compared_symmetric () =
  let st = Random.State.make [| 22 |] in
  let m = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
  let tr = Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0) in
  let sk = Skeleton.of_trace tr in
  List.iter
    (fun (i, j) ->
      check "symmetric" true (Skeleton.compared sk i j = Skeleton.compared sk j i))
    (Skeleton.compared_pairs sk)

let test_lemma38_bound () =
  (* compared phi-pairs <= t^{2r} * sortedness(phi) *)
  let st = Random.State.make [| 23 |] in
  List.iter
    (fun chains ->
      let m = Machines.staircase_checkphi ~space ~chains ~optimistic:true in
      let tr =
        Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0)
      in
      let sk = Skeleton.of_trace tr in
      let compared = Skeleton.phi_compared_count sk ~m:8 ~phi in
      let r = tr.Nlm.total_revs in
      let t = 2 in
      let bound =
        float_of_int (P.sortedness phi) *. (float_of_int t ** float_of_int (2 * r))
      in
      check
        (Printf.sprintf "chains=%d: %d <= %.0f" chains compared bound)
        true
        (float_of_int compared <= bound))
    [ 1; 2; 3 ]

let test_replay_remark29 () =
  let st = Random.State.make [| 29 |] in
  let m = Machines.staircase_checkphi ~space ~chains:2 ~optimistic:true in
  let inst = G.Checkphi.yes st space in
  let values = values_of inst in
  let choices _ = 0 in
  let sk = Skeleton.of_trace (Nlm.run m ~values ~choices) in
  check "replays to itself" true (Skeleton.replays_to ~machine:m ~values ~choices sk);
  (* a different machine's skeleton does not replay *)
  let other = Machines.staircase_checkphi ~space ~chains:1 ~optimistic:true in
  let sk' = Skeleton.of_trace (Nlm.run other ~values ~choices) in
  check "different machine, different skeleton" false
    (Skeleton.replays_to ~machine:m ~values ~choices sk')

let test_monotone_partition () =
  check_int "sorted = 1 chain" 1 (Skeleton.monotone_partition_upper [ 1; 2; 3; 4 ]);
  check_int "reverse = 1 chain" 1 (Skeleton.monotone_partition_upper [ 4; 3; 2; 1 ]);
  check "zigzag needs few" true (Skeleton.monotone_partition_upper [ 1; 3; 2; 4 ] <= 2);
  check_int "empty" 0 (Skeleton.monotone_partition_upper [])

let test_monotone_partition_exact () =
  check_int "sorted" 1 (Skeleton.monotone_partition_exact [ 1; 2; 3; 4 ]);
  check_int "zigzag" 2 (Skeleton.monotone_partition_exact [ 1; 3; 2; 4 ]);
  check_int "empty" 0 (Skeleton.monotone_partition_exact []);
  (* needs 3: a sequence with no 2-chain cover *)
  check "exact <= greedy always" true
    (let st = Random.State.make [| 55 |] in
     List.for_all
       (fun _ ->
         let seq = List.init 10 (fun _ -> Random.State.int st 20) in
         Skeleton.monotone_partition_exact seq
         <= Skeleton.monotone_partition_upper seq)
       (List.init 50 Fun.id));
  try
    ignore (Skeleton.monotone_partition_exact (List.init 30 Fun.id));
    Alcotest.fail "guard did not fire"
  with Invalid_argument _ -> ()

let test_render () =
  let st = Random.State.make [| 56 |] in
  let m = Machines.staircase_checkphi ~space ~chains:1 ~optimistic:true in
  let tr = Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0) in
  let cfg = Listmachine.Render.config_to_string tr.Nlm.configs.(0) in
  check "initial shows head marker" true
    (String.length cfg > 0
    && String.split_on_char '\n' cfg
       |> List.exists (fun l -> String.length l > 2 && l.[0] = 'l'));
  let pict = Listmachine.Render.trace_to_string ~max_steps:3 tr in
  check "trace mentions verdict" true
    (String.split_on_char '\n' pict
    |> List.exists (fun l ->
           List.exists (fun w -> w = "ACCEPTS" || w = "rejects")
             (String.split_on_char ' ' l)));
  let sk = Skeleton.of_trace tr in
  check "skeleton summary nonempty" true
    (String.length (Listmachine.Render.skeleton_summary sk) > 0);
  (* cell elision respects the width budget *)
  let final = tr.Nlm.configs.(Array.length tr.Nlm.configs - 1) in
  Array.iter
    (Array.iter (fun cell ->
         check "elided width" true
           (String.length (Listmachine.Render.cell_to_string ~max_width:20 cell) <= 22)))
    final.Nlm.contents

let test_merge_lemma_on_traces () =
  (* the position sequence on any list decomposes into at most t^r
     monotone subsequences (Lemma 37); the greedy partition is an upper
     bound on the optimum, so greedy <= t^r suffices *)
  let st = Random.State.make [| 24 |] in
  let m = Machines.staircase_checkphi ~space ~chains:3 ~optimistic:false in
  let tr = Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0) in
  let final = tr.Nlm.configs.(Array.length tr.Nlm.configs - 1) in
  let r = tr.Nlm.total_revs and t = 2 in
  List.iter
    (fun tau ->
      let seq = Skeleton.list_position_sequence final tau in
      let parts = Skeleton.monotone_partition_upper seq in
      let bound = float_of_int t ** float_of_int r in
      check
        (Printf.sprintf "list %d: %d parts <= t^r=%.0f" tau parts bound)
        true
        (float_of_int parts <= bound))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Lemma 30/31 bounds on real traces *)

let test_bounds_hold () =
  let st = Random.State.make [| 25 |] in
  List.iter
    (fun chains ->
      let m = Machines.staircase_checkphi ~space ~chains ~optimistic:true in
      let tr =
        Nlm.run m ~values:(values_of (G.Checkphi.yes st space)) ~choices:(fun _ -> 0)
      in
      let r = tr.Nlm.total_revs in
      check
        (Printf.sprintf "bounds at chains=%d" chains)
        true
        (Bounds.check tr ~t:2 ~r ~m:16 ~k:m.Nlm.state_count))
    [ 1; 2; 3 ]

let test_bound_formulas () =
  check_int "list length bound" (3 * 3 * 4) (Bounds.total_list_length_bound ~t:2 ~r:2 ~m:4);
  check_int "cell size bound" (11 * 8) (Bounds.cell_size_bound ~t:2 ~r:3);
  check_int "run length bound" (5 + (5 * 27 * 4))
    (Bounds.run_length_bound ~k:5 ~t:2 ~r:2 ~m:4);
  check "skeleton bound positive" true
    (Bounds.log2_skeleton_count_bound ~m:4 ~k:11 ~t:2 ~r:1 > 0.0)

(* ------------------------------------------------------------------ *)
(* Staircase machine: full behaviour *)

let test_staircase_solves_checkphi () =
  let st = Random.State.make [| 26 |] in
  let needed = Machines.chains_needed ~space in
  let m = Machines.staircase_checkphi ~space ~chains:needed ~optimistic:false in
  for _ = 1 to 25 do
    let yes = G.Checkphi.yes st space in
    let no = G.Checkphi.no st space in
    let run i = (Nlm.run m ~values:(values_of i) ~choices:(fun _ -> 0)).Nlm.accepted in
    check "accepts yes" true (run yes);
    check "rejects no" false (run no)
  done

(* ------------------------------------------------------------------ *)
(* Random data-oblivious machines: model-level properties *)

let random_plan seed ~with_check =
  let st = Random.State.make [| seed |] in
  let m = 4 + Random.State.int st 3 in
  let p = Plan.create ~lists:2 ~input_length:m () in
  for _ = 1 to 12 + Random.State.int st 16 do
    match Random.State.int st 4 with
    | 0 -> Plan.pause p ()
    | _ -> (
        let tau = 1 + Random.State.int st 2 in
        let dir = if Random.State.bool st then 1 else -1 in
        try Plan.advance p ~tau ~dir with Invalid_argument _ -> Plan.pause p ())
  done;
  (if with_check then begin
     (* attach one honest check between two visible input positions *)
     let visible =
       Array.to_list (Plan.cells p)
       |> List.concat_map Nlm.cell_inputs
       |> List.sort_uniq Int.compare
     in
     match visible with
     | a :: b :: _ -> Plan.check_inputs_equal p ~eq:String.equal a b
     | [ _ ] | [] -> ()
   end);
  (m, Plan.build p ~name:(Printf.sprintf "random-plan-%d" seed) ~accept_at_end:true)

let values_for st m = Array.init m (fun _ -> string_of_int (Random.State.int st 4))

let prop_random_plans_obey_bounds =
  QCheck.Test.make ~name:"random oblivious machines obey Lemmas 30/31" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 7 |] in
      let m, machine = random_plan seed ~with_check:false in
      let tr = Nlm.run machine ~values:(values_for st m) ~choices:(fun _ -> 0) in
      Listmachine.Lm_bounds.check tr ~t:2 ~r:tr.Nlm.total_revs ~m
        ~k:machine.Nlm.state_count)

let prop_random_plans_skeleton_oblivious =
  QCheck.Test.make ~name:"random plans: skeleton independent of values" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 13 |] in
      let m, machine = random_plan seed ~with_check:false in
      let sk values = Skeleton.of_trace (Nlm.run machine ~values ~choices:(fun _ -> 0)) in
      Skeleton.equal (sk (values_for st m)) (sk (values_for st m)))

let prop_view_run_matches_run =
  QCheck.Test.make ~name:"run_view agrees with run on random machines" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 41 |] in
      let m, machine = random_plan seed ~with_check:true in
      let values = values_for st m in
      let tr = Nlm.run machine ~values ~choices:(fun _ -> 0) in
      let vt = Nlm.run_view machine ~values ~choices:(fun _ -> 0) in
      let sk_full = Skeleton.of_trace tr in
      let sk_view = Skeleton.of_views vt in
      let last = tr.Nlm.configs.(Array.length tr.Nlm.configs - 1) in
      let final = vt.Nlm.final in
      tr.Nlm.accepted = vt.Nlm.vaccepted
      && tr.Nlm.total_revs = vt.Nlm.vtotal_revs
      && tr.Nlm.choices_used = vt.Nlm.vchoices_used
      && Skeleton.equal sk_full sk_view
      && Skeleton.hash sk_full = Skeleton.hash sk_view
      && last.Nlm.state = final.Nlm.state
      && last.Nlm.pos = final.Nlm.pos
      && last.Nlm.head_dir = final.Nlm.head_dir
      && last.Nlm.revs = final.Nlm.revs
      && last.Nlm.ids = final.Nlm.ids
      && Array.for_all2
           (fun a b -> Array.length a = Array.length b && Array.for_all2 Nlm.cell_equal a b)
           last.Nlm.contents final.Nlm.contents)

(* The linked-list pilot must report exactly what a real [Nlm.step]
   replay of the built script produces: same positions, directions,
   reversal totals, cell identities and list lengths. Cell contents are
   compared through their input-position sets — a plan-time forced
   write carries state 0 where the replay carries the step index, and
   the position set is precisely the abstraction plan-time checks are
   allowed to rely on. *)
let prop_plan_pilot_matches_replay =
  QCheck.Test.make ~name:"plan pilot agrees with an Nlm.step replay" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = 4 + Random.State.int st 3 in
      let p = Plan.create ~lists:2 ~input_length:m () in
      for _ = 1 to 12 + Random.State.int st 16 do
        match Random.State.int st 4 with
        | 0 -> Plan.pause p ()
        | _ -> (
            let tau = 1 + Random.State.int st 2 in
            let dir = if Random.State.bool st then 1 else -1 in
            try Plan.advance p ~tau ~dir with Invalid_argument _ -> Plan.pause p ())
      done;
      let machine = Plan.build p ~name:"pilot-parity" ~accept_at_end:true in
      let values = values_for st m in
      let tr = Nlm.run machine ~values ~choices:(fun _ -> 0) in
      let last = tr.Nlm.configs.(Array.length tr.Nlm.configs - 1) in
      let lists = Array.length last.Nlm.pos in
      last.Nlm.pos = Plan.positions p
      && last.Nlm.head_dir = Plan.dirs p
      && Array.fold_left ( + ) 0 last.Nlm.revs = Plan.reversals_planned p
      && List.for_all
           (fun tau ->
             let ids = last.Nlm.ids.(tau - 1) in
             Array.length ids = Plan.list_length p tau
             && Plan.id_at p ~tau = ids.((Plan.positions p).(tau - 1) - 1)
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun i0 id -> Plan.id_at_index p ~tau ~index:(i0 + 1) = id)
                     ids))
           (List.init lists (fun t -> t + 1))
      && Array.for_all2
           (fun a b -> Nlm.cell_input_positions a = Nlm.cell_input_positions b)
           (Nlm.current_cells last) (Plan.cells p))

(* ------------------------------------------------------------------ *)
(* The kernel against the naive Definition 24(c) oracle (nlm_oracle.ml):
   [run], [run_view], [step] and the planner's pilot must report
   exactly what the oracle's array-splicing steps produce. *)

module O = Nlm_oracle

let total_length (c : Nlm.config) =
  Array.fold_left (fun acc l -> acc + Array.length l) 0 c.Nlm.contents

let config_equal (a : Nlm.config) (b : Nlm.config) =
  a.Nlm.state = b.Nlm.state
  && a.Nlm.pos = b.Nlm.pos
  && a.Nlm.head_dir = b.Nlm.head_dir
  && a.Nlm.revs = b.Nlm.revs
  && a.Nlm.ids = b.Nlm.ids
  && a.Nlm.next_id = b.Nlm.next_id
  && Array.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 Nlm.cell_equal x y)
       a.Nlm.contents b.Nlm.contents

(* A cell's memoized position set is the one its flattened string
   mentions. [cell_equal] compares hashes and structure only, so this is
   what checks the memo. *)
let positions_memo_ok c =
  Nlm.cell_input_positions c
  = Array.of_list (List.sort_uniq Int.compare (Nlm.cell_inputs c))

let runs_agree ~stats machine ~values ~choices =
  let o = O.run ~stats machine ~values ~choices in
  let tr = Nlm.run machine ~values ~choices in
  let vt = Nlm.run_view machine ~values ~choices in
  let n = Array.length o.Nlm.configs in
  let sk = Skeleton.of_trace o in
  let same_skeleton s = Skeleton.equal sk s && Skeleton.hash sk = Skeleton.hash s in
  let view_matches (v : Nlm.view) (c : Nlm.config) =
    v.Nlm.vstate = c.Nlm.state
    && v.Nlm.vdirs = c.Nlm.head_dir
    && Array.for_all2 Nlm.cell_equal v.Nlm.vcells (O.heads c)
  in
  (* the persistent [Nlm.step], from each of the oracle's configurations *)
  let step_matches i =
    let c, mv = Nlm.step machine ~values o.Nlm.configs.(i) ~choice:o.Nlm.choices_used.(i) in
    config_equal c o.Nlm.configs.(i + 1) && mv = o.Nlm.moves.(i)
  in
  let max_over f = Array.fold_left (fun acc c -> max acc (f c)) 0 o.Nlm.configs in
  let max_cell (c : Nlm.config) =
    Array.fold_left (Array.fold_left (fun acc x -> max acc (Nlm.cell_size x))) 0 c.Nlm.contents
  in
  tr.Nlm.accepted = o.Nlm.accepted
  && vt.Nlm.vaccepted = o.Nlm.accepted
  && tr.Nlm.moves = o.Nlm.moves
  && vt.Nlm.vmoves = o.Nlm.moves
  && tr.Nlm.choices_used = o.Nlm.choices_used
  && vt.Nlm.vchoices_used = o.Nlm.choices_used
  && tr.Nlm.total_revs = o.Nlm.total_revs
  && vt.Nlm.vtotal_revs = o.Nlm.total_revs
  && Array.length tr.Nlm.configs = n
  && Array.for_all2 config_equal tr.Nlm.configs o.Nlm.configs
  && Array.length vt.Nlm.views = n
  && Array.for_all2 view_matches vt.Nlm.views o.Nlm.configs
  && config_equal vt.Nlm.final o.Nlm.configs.(n - 1)
  && vt.Nlm.max_total_list_length = max_over total_length
  && vt.Nlm.max_cell_size = max_over max_cell
  && same_skeleton (Skeleton.of_trace tr)
  && same_skeleton (Skeleton.of_views vt)
  && List.for_all step_matches (List.init (n - 1) Fun.id)
  && Array.for_all
       (fun (c : Nlm.config) -> Array.for_all (Array.for_all positions_memo_ok) c.Nlm.contents)
       tr.Nlm.configs

let random_movements st ~lists =
  Array.init lists (fun _ ->
      { Nlm.dir = (if Random.State.bool st then 1 else -1); move = Random.State.int st 3 > 0 })

(* A nondeterministic machine whose movements come from a random table
   indexed by step, choice and the parity of the size of head 1's cell
   (so a kernel handing α wrong cells leaves the oracle's trajectory);
   one entry in ten diverts to the rejecting sink. *)
let table_machine st =
  let lists = 1 + Random.State.int st 3 in
  let input_length = 1 + Random.State.int st 4 in
  let num_choices = 1 + Random.State.int st 3 in
  let len = 4 + Random.State.int st 16 in
  let table =
    Array.init len (fun _ ->
        Array.init num_choices (fun _ ->
            Array.init 2 (fun _ -> (Random.State.int st 10 = 0, random_movements st ~lists))))
  in
  let alpha ~values:_ ~state ~cells ~choice =
    let reject, movements = table.(state).(choice).(Nlm.cell_size cells.(0) land 1) in
    { Nlm.next_state = (if reject then len + 1 else state + 1); movements }
  in
  Nlm.make ~name:"table" ~lists ~input_length ~num_choices ~state_count:(len + 2)
    ~initial:0
    ~is_final:(fun s -> s >= len)
    ~is_accepting:(fun s -> s = len)
    ~alpha

let pilot_agrees p (o : Nlm.config) =
  Plan.positions p = o.Nlm.pos
  && Plan.dirs p = o.Nlm.head_dir
  && Plan.reversals_planned p = Array.fold_left ( + ) 0 o.Nlm.revs
  && Array.for_all2 Nlm.cell_equal (Plan.cells p) (O.heads o)
  && Array.for_all Fun.id
       (Array.mapi
          (fun tau0 ids ->
            let tau = tau0 + 1 in
            Plan.list_length p tau = Array.length ids
            && Plan.id_at p ~tau = ids.(o.Nlm.pos.(tau0) - 1)
            && Array.for_all Fun.id
                 (Array.mapi (fun i0 id -> Plan.id_at_index p ~tau ~index:(i0 + 1) = id) ids))
          o.Nlm.ids)

(* Drive a planner with random raw movements (clamps included),
   advances and gotos, stepping the oracle alongside at state 0 and
   choice 0 and comparing after every operation. *)
let planned ~stats st =
  let lists = 1 + Random.State.int st 3 and input_length = 1 + Random.State.int st 4 in
  let p = Plan.create ~lists ~input_length () in
  let o = ref (O.initial ~lists ~input_length ~state:0) in
  let oracle_step mv = o := fst (O.step ~stats !o ~choice:0 ~next_state:0 mv) in
  let advance_mv tau dir =
    Array.mapi
      (fun tau0 d -> if tau0 = tau - 1 then { Nlm.dir; move = true } else { Nlm.dir = d; move = false })
      !o.Nlm.head_dir
  in
  let ok = ref true in
  for _ = 1 to 4 + Random.State.int st 16 do
    let tau = 1 + Random.State.int st lists in
    (match Random.State.int st 5 with
    | 0 | 1 ->
        let dir = if Random.State.bool st then 1 else -1 in
        let pos = !o.Nlm.pos.(tau - 1) and len = Array.length !o.Nlm.ids.(tau - 1) in
        if (pos = 1 && dir = -1) || (pos = len && dir = 1) then
          ok := !ok && (try Plan.advance p ~tau ~dir; false with Invalid_argument _ -> true)
        else begin
          Plan.advance p ~tau ~dir;
          oracle_step (advance_mv tau dir)
        end
    | 2 ->
        let ids = !o.Nlm.ids.(tau - 1) in
        let target = Random.State.int st (Array.length ids) in
        Plan.goto p ~tau ~id:ids.(target);
        while !o.Nlm.pos.(tau - 1) <> target + 1 do
          oracle_step (advance_mv tau (if target + 1 > !o.Nlm.pos.(tau - 1) then 1 else -1))
        done
    | _ ->
        let mv = random_movements st ~lists in
        Plan.move p mv;
        oracle_step mv);
    ok := !ok && pilot_agrees p !o
  done;
  (* one honest value check, so some runs take the rejecting branch *)
  (match
     Array.to_list (Plan.cells p)
     |> List.concat_map (fun c -> Array.to_list (Nlm.cell_input_positions c))
     |> List.sort_uniq Int.compare
   with
  | a :: b :: _ -> Plan.check_inputs_equal p ~eq:String.equal a b
  | [ _ ] | [] -> ());
  (!ok, p, Plan.build p ~name:"planned" ~accept_at_end:true)

(* Plan-time observations hold at run time: a run that completes the
   script ends where the pilot did, with the same ids and the same
   input positions under the heads (the writes differ only in their
   state and choice symbols). *)
let pilot_holds_at_run_time p (tr : Nlm.trace) =
  let last = tr.Nlm.configs.(Array.length tr.Nlm.configs - 1) in
  (not tr.Nlm.accepted)
  || last.Nlm.pos = Plan.positions p
     && last.Nlm.head_dir = Plan.dirs p
     && Array.for_all Fun.id
          (Array.mapi
             (fun tau0 ids ->
               Array.length ids = Plan.list_length p (tau0 + 1)
               && Array.for_all Fun.id
                    (Array.mapi
                       (fun i0 id -> Plan.id_at_index p ~tau:(tau0 + 1) ~index:(i0 + 1) = id)
                       ids))
             last.Nlm.ids)
     && Array.for_all2
          (fun a b -> Nlm.cell_input_positions a = Nlm.cell_input_positions b)
          (Nlm.current_cells last) (Plan.cells p)

let kernel_case ~stats seed =
  let st = Random.State.make [| seed |] in
  let pilot_ok, p, planned_machine = planned ~stats st in
  let table = table_machine st in
  let cs = Array.init 64 (fun _ -> Random.State.int st 3) in
  let choices i = cs.(i mod 64) in
  let values machine =
    Array.init machine.Nlm.input_length (fun _ -> string_of_int (Random.State.int st 2))
  in
  let v = values planned_machine in
  pilot_ok
  && runs_agree ~stats planned_machine ~values:v ~choices
  && pilot_holds_at_run_time p (Nlm.run planned_machine ~values:v ~choices)
  && runs_agree ~stats table ~values:(values table) ~choices

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"kernel agrees with the naive Definition 24(c) oracle"
    ~count:150
    QCheck.(int_bound 100000)
    (fun seed -> kernel_case ~stats:(O.stats ()) seed)

let test_oracle_generators_cover_definition24 () =
  let stats = O.stats () in
  for seed = 0 to 49 do
    ignore (kernel_case ~stats seed)
  done;
  List.iter
    (fun (what, n) -> check what true (n > 0))
    [
      ("clamp at the left end", stats.O.clamp_left);
      ("clamp at the right end", stats.O.clamp_right);
      ("turn to the left", stats.O.turn_left);
      ("turn to the right", stats.O.turn_right);
      ("insert before the cursor", stats.O.insert_before);
      ("insert after the cursor", stats.O.insert_after);
    ]

let prop_intern_matches_structural_equality =
  QCheck.Test.make
    ~name:"interned id equality coincides with structural skeleton equality"
    ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 57 |] in
      (* a few machines x a few value vectors: skeletons from the same
         machine are equal (value-oblivious), across machines almost
         never - both directions of the bijection get exercised *)
      let sks =
        List.concat_map
          (fun k ->
            let m, machine = random_plan (seed + k) ~with_check:false in
            List.init 3 (fun _ ->
                let values = values_for st m in
                Skeleton.of_views (Nlm.run_view machine ~values ~choices:(fun _ -> 0))))
          [ 0; 1; 2 ]
      in
      let tbl = Skeleton.Intern.create () in
      let ids = List.map (fun sk -> (fst (Skeleton.Intern.intern tbl sk), sk)) sks in
      List.for_all
        (fun (ida, a) ->
          List.for_all (fun (idb, b) -> (ida = idb) = Skeleton.equal a b) ids)
        ids)

let prop_random_plans_composition_never_violated =
  QCheck.Test.make
    ~name:"composition lemma never violated on random honest machines" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed + 23 |] in
      let m, machine = random_plan seed ~with_check:true in
      if m < 2 then true
      else begin
        let v = values_for st m in
        let tr = Nlm.run machine ~values:v ~choices:(fun _ -> 0) in
        let sk = Skeleton.of_trace tr in
        (* pick any uncompared pair and a w differing only there *)
        let pairs =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if i < j && not (Skeleton.compared sk i j) then Some (i, j) else None)
                (List.init m (fun k -> k + 1)))
            (List.init m (fun k -> k + 1))
        in
        match pairs with
        | [] -> true
        | (i, j) :: _ -> (
            let w = Array.copy v in
            w.(i - 1) <- v.(i - 1) ^ "x";
            w.(j - 1) <- v.(j - 1) ^ "y";
            match
              Stcore.Composition.check ~machine ~choices:(fun _ -> 0) ~v ~w ~i
                ~i':j ()
            with
            | Stcore.Composition.Holds | Stcore.Composition.Precondition_failed _ ->
                true
            | Stcore.Composition.Violated _ -> false)
      end)

(* [merge_input_positions] against the union of the flattened lists,
   on operands drawn empty, equal, physically shared, subset, disjoint
   or a fresh copy of the union so far. An operand that already holds
   the union must come back physically, not an equal intermediate:
   cells share their components' sets that way. *)
let prop_merge_input_positions =
  QCheck.Test.make ~name:"merge_input_positions is the sorted union" ~count:300
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let draw lo hi =
        List.init (hi - lo) (fun k -> lo + k)
        |> List.filter (fun _ -> Random.State.bool st)
        |> Array.of_list
      in
      let pick ops = List.nth ops (Random.State.int st (List.length ops)) in
      let next ops =
        match ops with
        | [] -> draw 1 20
        | _ -> (
            match Random.State.int st 7 with
            | 0 -> [||]
            | 1 -> Array.copy (pick ops)
            | 2 -> pick ops
            | 3 ->
                Array.of_list
                  (List.filter (fun _ -> Random.State.bool st) (Array.to_list (pick ops)))
            | 4 -> draw 20 40
            | 5 -> Array.of_list (List.sort_uniq Int.compare (List.concat_map Array.to_list ops))
            | _ -> draw 1 40)
      in
      let rec grow ops k = if k = 0 then List.rev ops else grow (next ops :: ops) (k - 1) in
      let ops = grow [] (Random.State.int st 5) in
      let union = Nlm.merge_input_positions (Array.of_list ops) in
      union = Array.of_list (List.sort_uniq Int.compare (List.concat_map Array.to_list ops))
      && (List.for_all (fun a -> Array.length a < Array.length union) ops
         || List.exists (fun a -> a == union) ops))

(* The one-pass φ-pair queries against Definition 33 read pair by pair
   through [compared], on staircase machines of every chain count and
   on the random-chain machine under random choices. *)
let prop_phi_queries_match_compared =
  QCheck.Test.make ~name:"phi-pair queries agree with Definition 33" ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun m ->
          let space = G.Checkphi.default_space ~m ~n:(2 * m) in
          let phi = G.Checkphi.phi space in
          let values = values_of (G.Checkphi.yes st space) in
          let agrees machine ~choices =
            let sk = Skeleton.of_views (Nlm.run_view machine ~values ~choices) in
            let uncompared = Skeleton.uncompared_phi_indices sk ~m ~phi in
            uncompared
            = List.filter
                (fun i -> not (Skeleton.compared sk i (m + P.apply phi i)))
                (List.init m (fun i0 -> i0 + 1))
            && Skeleton.phi_compared_count sk ~m ~phi + List.length uncompared = m
          in
          let random_chain = Machines.random_chain_checkphi ~space in
          let cs = Array.init 64 (fun _ -> Random.State.int st random_chain.Nlm.num_choices) in
          agrees random_chain ~choices:(fun i -> cs.(i mod 64))
          && List.for_all
               (fun chains ->
                 agrees
                   (Machines.staircase_checkphi ~space ~chains ~optimistic:(Random.State.bool st))
                   ~choices:(fun _ -> 0))
               (List.init (Machines.chains_needed ~space + 1) Fun.id))
        [ 4; 8; 16 ])

let test_random_chain_machine () =
  let st = Random.State.make [| 27 |] in
  let machine = Machines.random_chain_checkphi ~space in
  check_int "one choice per chain" (Machines.chains_needed ~space)
    machine.Nlm.num_choices;
  for _ = 1 to 10 do
    (* yes-instances accept on every branch *)
    let yes = G.Checkphi.yes st space in
    Alcotest.(check (float 1e-9)) "yes prob 1" 1.0
      (Machines.dispatch_probability machine ~values:(values_of yes));
    (* no-instances keep a positive acceptance probability below 1:
       exactly the (1/2,0)-contract violation Theorem 6 predicts *)
    let no = G.Checkphi.no st space in
    let p = Machines.dispatch_probability machine ~values:(values_of no) in
    check "no-instance accepted on some branch" true (p > 0.0);
    check "but rejected on the covering branch" true (p < 1.0)
  done;
  (* each branch is cheap: O(1) reversals per run *)
  let yes = G.Checkphi.yes st space in
  for c = 0 to machine.Nlm.num_choices - 1 do
    let tr = Nlm.run machine ~values:(values_of yes) ~choices:(fun _ -> c) in
    check "cheap branch" true (Nlm.scans tr <= 8)
  done

let test_adversary_fools_random_chain () =
  let st = Random.State.make [| 28 |] in
  let machine = Machines.random_chain_checkphi ~space in
  match Stcore.Adversary.attack st ~space ~machine () with
  | Stcore.Adversary.Fooled _ as o ->
      check "verified" true (Stcore.Adversary.verify_fooled ~space ~machine o)
  | Stcore.Adversary.Not_fooled { reason; _ } ->
      Alcotest.fail ("randomized machine not fooled: " ^ reason)
  | Stcore.Adversary.Contract_violated _ ->
      Alcotest.fail "randomized machine accepts all yes-instances"

let test_chain_partition_properties () =
  List.iter
    (fun lg ->
      let mm = 1 lsl lg in
      let ph = P.reverse_binary mm in
      let chains = Machines.chain_partition ph in
      (* covers every pair exactly once *)
      let all = List.concat chains in
      check_int "covers all" mm (List.length all);
      check_int "no duplicates" mm
        (List.length (List.sort_uniq compare (List.map fst all)));
      List.iter
        (fun chain ->
          (* first coordinates ascending; second monotone *)
          let rec mono_fst = function
            | (a, _) :: ((b, _) :: _ as tl) -> a < b && mono_fst tl
            | [ _ ] | [] -> true
          in
          check "i ascending" true (mono_fst chain);
          let seconds = List.map snd chain in
          let incr_ = List.sort Int.compare seconds = seconds in
          let decr = List.sort (fun a b -> Int.compare b a) seconds = seconds in
          check "monotone j" true (incr_ || decr))
        chains)
    [ 2; 3; 4; 5 ]

let () =
  Alcotest.run "listmachine"
    [
      ( "semantics",
        [
          Alcotest.test_case "initial config" `Quick test_initial_config;
          Alcotest.test_case "figure 2 transition" `Quick test_figure2_transition;
          Alcotest.test_case "state-only step" `Quick test_state_only_step;
          Alcotest.test_case "clamping" `Quick test_clamping;
          Alcotest.test_case "reversal counting" `Quick test_reversal_counting_run;
          Alcotest.test_case "cell components" `Quick test_cell_components;
          Alcotest.test_case "coin machine" `Quick test_coin_machine;
          Alcotest.test_case "exact probability" `Quick
            test_exact_probability_deterministic;
          Alcotest.test_case "blind machines" `Quick test_blind_machines;
        ] );
      ( "skeletons",
        [
          Alcotest.test_case "input independence" `Quick test_skeleton_input_independent;
          Alcotest.test_case "compared pairs" `Quick test_compared_pairs_subset;
          Alcotest.test_case "compared symmetric" `Quick test_compared_symmetric;
          Alcotest.test_case "Lemma 38 bound" `Quick test_lemma38_bound;
          Alcotest.test_case "replay (Remark 29)" `Quick test_replay_remark29;
          Alcotest.test_case "monotone partition" `Quick test_monotone_partition;
          Alcotest.test_case "exact monotone partition" `Quick
            test_monotone_partition_exact;
          Alcotest.test_case "rendering" `Quick test_render;
          Alcotest.test_case "merge lemma on traces" `Quick test_merge_lemma_on_traces;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "Lemma 30/31 on traces" `Quick test_bounds_hold;
          Alcotest.test_case "formulas" `Quick test_bound_formulas;
        ] );
      ( "machines",
        [
          Alcotest.test_case "staircase solves CHECK-phi" `Quick
            test_staircase_solves_checkphi;
          Alcotest.test_case "random-chain machine" `Quick test_random_chain_machine;
          Alcotest.test_case "adversary fools random-chain" `Quick
            test_adversary_fools_random_chain;
          Alcotest.test_case "chain partition" `Quick test_chain_partition_properties;
        ] );
      ( "random machines",
        [
          QCheck_alcotest.to_alcotest prop_random_plans_obey_bounds;
          QCheck_alcotest.to_alcotest prop_random_plans_skeleton_oblivious;
          QCheck_alcotest.to_alcotest prop_view_run_matches_run;
          QCheck_alcotest.to_alcotest prop_plan_pilot_matches_replay;
          QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
          Alcotest.test_case "oracle generators cover Definition 24(c)" `Quick
            test_oracle_generators_cover_definition24;
          QCheck_alcotest.to_alcotest prop_intern_matches_structural_equality;
          QCheck_alcotest.to_alcotest prop_random_plans_composition_never_violated;
          QCheck_alcotest.to_alcotest prop_merge_input_positions;
          QCheck_alcotest.to_alcotest prop_phi_queries_match_compared;
        ] );
    ]
