(* Tests for the instrumented tape substrate: reversal accounting,
   space accounting, metering, and budget enforcement. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty_tape () =
  let t = Tape.create ~blank:'_' () in
  check_int "blank read" (Char.code '_') (Char.code (Tape.read t));
  check_int "pos" 0 (Tape.position t);
  check_int "revs" 0 (Tape.reversals t);
  check "at left end" true (Tape.at_left_end t)

let test_read_write_move () =
  let t = Tape.of_list ~blank:0 [ 10; 20; 30 ] in
  check_int "cell0" 10 (Tape.read t);
  Tape.move t Tape.Right;
  check_int "cell1" 20 (Tape.read t);
  Tape.write t 99;
  check_int "overwritten" 99 (Tape.read t);
  Tape.move t Tape.Right;
  check_int "cell2" 30 (Tape.read t);
  check_int "no reversal yet" 0 (Tape.reversals t);
  Tape.move t Tape.Left;
  check_int "one reversal" 1 (Tape.reversals t);
  Tape.move t Tape.Left;
  check_int "still one" 1 (Tape.reversals t);
  Tape.move t Tape.Right;
  check_int "two reversals" 2 (Tape.reversals t)

let test_move_off_left () =
  let t = Tape.of_list ~blank:'_' [ 'a' ] in
  Alcotest.check_raises "left of 0" (Invalid_argument "Tape.move: left of position 0")
    (fun () -> Tape.move t Tape.Left)

let test_cells_used_grows () =
  let t = Tape.create ~blank:'_' () in
  for _ = 1 to 9 do
    Tape.move t Tape.Right
  done;
  check_int "10 cells visited" 10 (Tape.cells_used t);
  Tape.write t 'x';
  check_int "write does not extend past head" 10 (Tape.cells_used t)

let test_rewind () =
  let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c' ] in
  Tape.move t Tape.Right;
  Tape.move t Tape.Right;
  Tape.rewind t;
  check_int "rewound" 0 (Tape.position t);
  check_int "one reversal" 1 (Tape.reversals t);
  (* rewinding when already at 0 costs nothing *)
  Tape.rewind t;
  check_int "idempotent" 1 (Tape.reversals t);
  (* the documented invariant: a fresh head (position 0, moving Right)
     issues no movement at all - no reversal charged AND the direction
     is untouched, so a following rightward scan is still reversal-free.
     The fault layer's retried scans rely on this. *)
  let fresh = Tape.of_list ~blank:'_' [ 'a'; 'b' ] in
  Tape.rewind fresh;
  check_int "free on a fresh head" 0 (Tape.reversals fresh);
  check "direction preserved" true (Tape.head_direction fresh = Tape.Right);
  Tape.move fresh Tape.Right;
  check_int "subsequent rightward move still free" 0 (Tape.reversals fresh)

(* The constant-time rewind applies only to unhooked tapes; an observer
   (or injection hook) forces the per-cell loop. Whichever path runs,
   the resulting tape state and the tape's own move/read/write counts
   must be identical. *)
let null_observer =
  {
    Tape.Observer.on_read = (fun ~pos:_ -> ());
    on_write = (fun ~pos:_ -> ());
    on_move = (fun ~pos:_ _ -> ());
  }

(* [seek] walks one [move] per cell: |delta| moves, one reversal per
   turn, nothing at all when already there. Moves are counted by an
   observer, so the walk is checked step by step. *)
let test_seek () =
  let moves = ref 0 in
  let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
  Tape.set_observer t
    (Some { null_observer with on_move = (fun ~pos:_ _ -> incr moves) });
  Tape.seek t 4;
  check_int "forward moves" 4 !moves;
  check_int "forward is no turn" 0 (Tape.reversals t);
  Tape.seek t 4;
  check_int "seek in place moves nothing" 4 !moves;
  check_int "seek in place turns nothing" 0 (Tape.reversals t);
  Tape.seek t 1;
  check_int "backward moves" 7 !moves;
  check_int "a turn costs one reversal" 1 (Tape.reversals t);
  Tape.seek t 0;
  check_int "same direction, no new reversal" 1 (Tape.reversals t);
  Tape.seek t 5;
  check_int "turn again" 2 (Tape.reversals t);
  check_int "total moves" 13 !moves;
  Tape.write_at t 2 'x';
  check "write_at" true (Tape.read_at t 2 = 'x');
  check_int "write_at seeks" 2 (Tape.position t);
  check_int "write_at turn" 3 (Tape.reversals t)

let counts t = (Tape.head_moves t, Tape.reads t, Tape.writes t)

let test_rewind_fast_path_parity () =
  let run observed =
    let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
    if observed then Tape.set_observer t (Some null_observer);
    for _ = 1 to 3 do
      ignore (Tape.read t);
      Tape.move t Tape.Right
    done;
    Tape.write t 'x';
    Tape.rewind t;
    ( (Tape.position t, Tape.reversals t, Tape.head_direction t = Tape.Left),
      counts t )
  in
  let ((_, (moves, reads, writes)) as loop) = run true in
  check_int "rewind counts its moves" 6 moves;
  check_int "reads" 3 reads;
  check_int "writes" 1 writes;
  Alcotest.(check (pair (triple int int bool) (triple int int int)))
    "loop path = fast path" loop (run false);
  (* and from a leftward-moving head: no extra reversal either way *)
  let run_leftward observed =
    let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
    if observed then Tape.set_observer t (Some null_observer);
    for _ = 1 to 3 do
      Tape.move t Tape.Right
    done;
    Tape.move t Tape.Left;
    ignore (Tape.read t);
    Tape.rewind t;
    ( (Tape.position t, Tape.reversals t, Tape.head_direction t = Tape.Left),
      counts t )
  in
  Alcotest.(check (pair (triple int int bool) (triple int int int)))
    "leftward head parity" (run_leftward true) (run_leftward false)

let test_rewind_budget_trip_parity () =
  (* a rewind that trips the scan budget must leave the same tape state
     on both paths: reversal charged, direction flipped, head unmoved *)
  let run observed =
    let g =
      Tape.Group.create
        ~budget:{ Tape.Group.max_scans = Some 1; max_internal = None }
        ()
    in
    let t = Tape.Group.tape_of_list g ~name:"t" ~blank:'_' [ 'a'; 'b'; 'c' ] in
    if observed then Tape.set_observer t (Some null_observer);
    for _ = 1 to 2 do
      Tape.write t 'z';
      Tape.move t Tape.Right
    done;
    ignore (Tape.read t);
    let raised =
      try
        Tape.rewind t;
        false
      with Tape.Budget_exceeded _ -> true
    in
    ( raised,
      (Tape.position t, Tape.reversals t, Tape.head_direction t = Tape.Left),
      counts t )
  in
  let ((raised, _, tripped_counts) as loop) = run true in
  check "budget trips" true raised;
  (* the tripping move never completes, so it is not counted *)
  Alcotest.(check (triple int int int))
    "no move counted for the trip" (2, 1, 2) tripped_counts;
  Alcotest.(check (triple bool (triple int int bool) (triple int int int)))
    "trip state parity" loop (run false)

let test_rewind_injection_sees_moves () =
  (* with a fault hook installed the per-cell loop runs, so the plan
     sees every head step of the rewind *)
  let moves = ref 0 in
  let hook =
    {
      Tape.Injection.on_read = (fun ~pos:_ _ -> Tape.Injection.Read_ok);
      on_write = (fun ~pos:_ _ -> Tape.Injection.Write_ok);
      on_move =
        (fun ~pos:_ _ ->
          incr moves;
          Tape.Injection.Move_ok);
    }
  in
  let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd'; 'e' ] in
  for _ = 1 to 4 do
    Tape.move t Tape.Right
  done;
  Tape.set_injection t (Some hook);
  Tape.rewind t;
  check_int "hook saw every step" 4 !moves;
  check_int "rewound" 0 (Tape.position t);
  check_int "one reversal" 1 (Tape.reversals t)

let test_to_list_iter () =
  let t = Tape.of_list ~blank:'_' [ 'x'; 'y' ] in
  Alcotest.(check (list char)) "to_list" [ 'x'; 'y' ] (Tape.to_list t);
  let seen = ref [] in
  Tape.iter_right t (fun c -> seen := c :: !seen);
  Alcotest.(check (list char)) "iter" [ 'y'; 'x' ] !seen;
  (* iter_right from the middle *)
  let t2 = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c' ] in
  Tape.move t2 Tape.Right;
  let seen2 = ref [] in
  Tape.iter_right t2 (fun c -> seen2 := c :: !seen2);
  Alcotest.(check (list char)) "iter from middle" [ 'c'; 'b' ] !seen2

let test_meter () =
  let m = Tape.Meter.create () in
  Tape.Meter.alloc m 5;
  check_int "current" 5 (Tape.Meter.current m);
  Tape.Meter.free m 2;
  check_int "freed" 3 (Tape.Meter.current m);
  check_int "peak" 5 (Tape.Meter.peak m);
  let r = Tape.Meter.with_units m 10 (fun () -> Tape.Meter.current m) in
  check_int "inside" 13 r;
  check_int "after" 3 (Tape.Meter.current m);
  check_int "peak updated" 13 (Tape.Meter.peak m);
  Alcotest.check_raises "underflow" (Invalid_argument "Meter.free: underflow")
    (fun () -> Tape.Meter.free m 100)

let test_group_accounting () =
  let g = Tape.Group.create () in
  let t1 = Tape.Group.tape_of_list g ~name:"a" ~blank:'_' [ 'x'; 'y' ] in
  let t2 = Tape.Group.tape g ~name:"b" ~blank:'_' () in
  check_int "fresh scans" 1 (Tape.Group.scans g);
  Tape.move t1 Tape.Right;
  Tape.move t1 Tape.Left;
  Tape.move t2 Tape.Right;
  Tape.move t2 Tape.Left;
  check_int "two reversals" 2 (Tape.Group.total_reversals g);
  check_int "three scans" 3 (Tape.Group.scans g);
  let r = Tape.Group.report g in
  Alcotest.(check (list (pair string int)))
    "per tape"
    [ ("a", 1); ("b", 1) ]
    (List.map
       (fun (ts : Tape.Group.tape_stats) -> (ts.tape, ts.reversals))
       r.Tape.Group.tapes)

let test_group_budget_scans () =
  let g =
    Tape.Group.create
      ~budget:{ Tape.Group.max_scans = Some 2; max_internal = None }
      ()
  in
  let t = Tape.Group.tape_of_list g ~name:"t" ~blank:'_' [ 'a'; 'b'; 'c' ] in
  Tape.move t Tape.Right;
  Tape.move t Tape.Left (* scan 2: fine *);
  check "raises on third scan" true
    (try
       Tape.move t Tape.Right;
       false
     with Tape.Budget_exceeded _ -> true)

let test_group_budget_internal () =
  let g =
    Tape.Group.create
      ~budget:{ Tape.Group.max_scans = None; max_internal = Some 4 }
      ()
  in
  let m = Tape.Group.meter g in
  Tape.Meter.alloc m 4;
  check "raises past limit" true
    (try
       Tape.Meter.alloc m 1;
       false
     with Tape.Budget_exceeded _ -> true)

let test_double_registration () =
  let g = Tape.Group.create () in
  let t = Tape.Group.tape g ~blank:'_' () in
  Alcotest.check_raises "regrouped" (Invalid_argument "Group.add_tape: tape already grouped")
    (fun () -> Tape.Group.add_tape g t)

let prop_reversals_count_direction_changes =
  (* random walk: reversals = number of adjacent direction changes among
     executed moves *)
  QCheck.Test.make ~name:"reversal counting on random walks" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun dirs ->
      let t = Tape.create ~blank:0 () in
      let expected = ref 0 in
      let last = ref true (* Right *) in
      let executed = ref [] in
      List.iter
        (fun right ->
          let dir = if right then Tape.Right else Tape.Left in
          if (not right) && Tape.at_left_end t then ()
          else begin
            Tape.move t dir;
            executed := right :: !executed;
            if right <> !last then incr expected;
            last := right
          end)
        dirs;
      Tape.reversals t = !expected)

let () =
  Alcotest.run "tape"
    [
      ( "tape",
        [
          Alcotest.test_case "empty" `Quick test_empty_tape;
          Alcotest.test_case "read/write/move" `Quick test_read_write_move;
          Alcotest.test_case "left edge" `Quick test_move_off_left;
          Alcotest.test_case "cells_used" `Quick test_cells_used_grows;
          Alcotest.test_case "rewind" `Quick test_rewind;
          Alcotest.test_case "rewind fast-path parity" `Quick
            test_rewind_fast_path_parity;
          Alcotest.test_case "rewind budget-trip parity" `Quick
            test_rewind_budget_trip_parity;
          Alcotest.test_case "rewind under injection" `Quick
            test_rewind_injection_sees_moves;
          Alcotest.test_case "seek" `Quick test_seek;
          Alcotest.test_case "to_list/iter" `Quick test_to_list_iter;
          QCheck_alcotest.to_alcotest prop_reversals_count_direction_changes;
        ] );
      ( "meter",
        [ Alcotest.test_case "alloc/free/peak" `Quick test_meter ] );
      ( "group",
        [
          Alcotest.test_case "accounting" `Quick test_group_accounting;
          Alcotest.test_case "scan budget" `Quick test_group_budget_scans;
          Alcotest.test_case "internal budget" `Quick test_group_budget_internal;
          Alcotest.test_case "double registration" `Quick test_double_registration;
        ] );
    ]
