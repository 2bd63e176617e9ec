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

(* The constant-time rewind applies only to unhooked tapes; an injection
   hook forces the per-cell loop. Whichever path runs,
   the resulting tape state and the tape's own move/read/write counts
   must be identical. A hook that lets every operation through changes
   nothing but the path. *)
let pass_through =
  {
    Tape.Injection.on_read = (fun ~pos:_ _ -> Tape.Injection.Read_ok);
    on_write = (fun ~pos:_ _ -> Tape.Injection.Write_ok);
    on_move = (fun ~pos:_ _ -> Tape.Injection.Move_ok);
  }

(* [seek] walks one [move] per cell: |delta| moves, one reversal per
   turn, nothing at all when already there. *)
let test_seek () =
  let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
  Tape.seek t 4;
  check_int "forward moves" 4 (Tape.head_moves t);
  check_int "forward is no turn" 0 (Tape.reversals t);
  Tape.seek t 4;
  check_int "seek in place moves nothing" 4 (Tape.head_moves t);
  check_int "seek in place turns nothing" 0 (Tape.reversals t);
  Tape.seek t 1;
  check_int "backward moves" 7 (Tape.head_moves t);
  check_int "a turn costs one reversal" 1 (Tape.reversals t);
  Tape.seek t 0;
  check_int "same direction, no new reversal" 1 (Tape.reversals t);
  Tape.seek t 5;
  check_int "turn again" 2 (Tape.reversals t);
  check_int "total moves" 13 (Tape.head_moves t);
  Tape.write_at t 2 'x';
  check "write_at" true (Tape.read_at t 2 = 'x');
  check_int "write_at seeks" 2 (Tape.position t);
  check_int "write_at turn" 3 (Tape.reversals t)

let counts t = (Tape.head_moves t, Tape.reads t, Tape.writes t)

let test_rewind_fast_path_parity () =
  let run hooked =
    let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
    if hooked then Tape.set_injection t (Some (fun _ -> pass_through));
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
  let run_leftward hooked =
    let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
    if hooked then Tape.set_injection t (Some (fun _ -> pass_through));
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
  let run hooked =
    let g =
      Tape.Group.create
        ~budget:{ Tape.Group.max_scans = Some 1; max_internal = None }
        ()
    in
    let t = Tape.Group.tape_of_list g ~name:"t" ~blank:'_' [ 'a'; 'b'; 'c' ] in
    if hooked then Tape.set_injection t (Some (fun _ -> pass_through));
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
      pass_through with
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
  Tape.set_injection t (Some (fun _ -> hook));
  Tape.rewind t;
  check_int "hook saw every step" 4 !moves;
  check_int "rewound" 0 (Tape.position t);
  check_int "one reversal" 1 (Tape.reversals t)

(* [seek]'s constant-time path against the per-cell loop a
   pass-through hook forces: after any sequence of seeks (each followed
   by a read, a write or nothing) the two tapes agree
   on every piece of state and every count, and under a scan budget
   they trip at the same call and leave the same state behind. *)
let seek_state t =
  ( (Tape.position t, Tape.head_direction t = Tape.Left, Tape.reversals t),
    (Tape.head_moves t, Tape.cells_used t),
    (Tape.reads t, Tape.writes t) )

let run_seeks ~hooked max_scans steps =
  let g =
    Tape.Group.create ~budget:{ Tape.Group.max_scans; max_internal = None } ()
  in
  let t = Tape.Group.tape_of_list g ~name:"t" ~blank:'_' [ 'a'; 'b'; 'c' ] in
  if hooked then Tape.set_injection t (Some (fun _ -> pass_through));
  let rec go k = function
    | [] -> None
    | (target, op) :: rest -> (
        match Tape.seek t target with
        | exception Tape.Budget_exceeded _ -> Some k
        | () ->
            (match op with
            | 0 -> ignore (Tape.read t)
            | 1 -> Tape.write t 'x'
            | _ -> ());
            go (k + 1) rest)
  in
  let tripped = go 0 steps in
  (tripped, seek_state t)

let prop_seek_fast_path_parity =
  QCheck.Test.make ~name:"seek fast path = per-cell loop" ~count:500
    QCheck.(
      pair
        (option (int_range 1 8))
        (list_of_size Gen.(int_range 0 30) (pair (int_range 0 20) (int_range 0 2))))
    (fun (max_scans, steps) ->
      run_seeks ~hooked:false max_scans steps
      = run_seeks ~hooked:true max_scans steps)

(* a negative target takes the loop on both paths: it walks to position
   0, charging the turn and every move, then fails as [move] does *)
let test_seek_negative_target () =
  let run hooked =
    let t = Tape.of_list ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
    if hooked then Tape.set_injection t (Some (fun _ -> pass_through));
    Tape.seek t 3;
    Alcotest.check_raises "seek -1"
      (Invalid_argument "Tape.move: left of position 0") (fun () ->
        Tape.seek t (-1));
    seek_state t
  in
  let ((pos_dir_revs, (moves, _), _) as loop) = run true in
  Alcotest.(check (triple int bool int))
    "walked to 0 and turned once" (0, true, 1) pos_dir_revs;
  check_int "3 right, then 3 left" 6 moves;
  check "fast and hooked tapes agree" true (loop = run false)

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
  let m = Tape.Group.meter (Tape.Group.create ()) in
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
  check_int "three scans: two reversals" 3 (Tape.Group.scans g);
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

(* Cell registers: stored bytes on an unhooked file tape, decoded
   values on a mem tape; both forms must act alike, also against each
   other. *)
let test_registers () =
  let spill =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stlb-test-tape-%d" (Unix.getpid ()))
  in
  let g = Tape.Group.create ~device:(Tape.Device.file_spec spill) () in
  let codec = Tape.Device.Codec.tuple_string ~max_bytes:10 in
  let file = Tape.Group.tape_of_list g ~codec ~blank:"" [ "b\x00"; "a" ] in
  let out = Tape.Group.tape g ~codec ~blank:"" () in
  let mem = Tape.of_list ~blank:"" [ "b"; "" ] in
  let rf = Tape.register file and rm = Tape.register mem in
  let sign_regs () = compare (Tape.compare_registers String.compare rf rm) 0 in
  let sign a b = compare (String.compare a b) 0 in
  Tape.load file rf;
  Tape.load mem rm;
  check_int "bytes vs value" (sign "b\x00" "b") (sign_regs ());
  check_int "loads charged as reads" 1 (Tape.reads file);
  (* a reload after a write sees the new cell, not the held one *)
  Tape.write file "a";
  Tape.load file rf;
  check_int "reload after write" (sign "a" "b") (sign_regs ());
  (* a never-written cell acts as the blank and stores as the blank *)
  Tape.seek file 5;
  Tape.load file rf;
  Tape.seek mem 1;
  Tape.load mem rm;
  check_int "never-written = blank" 0 (sign_regs ());
  Tape.store out rf;
  Alcotest.(check (list string)) "stored blank" [ "" ] (Tape.to_list out);
  (* stored bytes into a file tape, their value into the mem tape *)
  Tape.seek file 1;
  Tape.load file rf;
  Tape.store out rf;
  Tape.seek mem 0;
  Tape.store mem rf;
  Alcotest.(check (list string)) "bytes stored" [ "a" ] (Tape.to_list out);
  Alcotest.(check (list string)) "value stored" [ "a"; "" ] (Tape.to_list mem);
  check_int "stores charged as writes" 2 (Tape.writes out);
  Tape.Group.close_all g;
  Unix.rmdir spill

(* [Group.sibling] derives a working tape from a data tape: its blank,
   its slots (on the group's device when the data tape is on a byte
   device, in RAM otherwise) and its hook maker, applied to the
   sibling's own name. *)
let test_sibling () =
  let spill =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stlb-test-sibling-%d" (Unix.getpid ()))
  in
  List.iter
    (fun (label, device, on_device) ->
      let g = Tape.Group.create ~device () in
      (* "ab" encodes in 4 bytes, "abc" in 5 *)
      let codec = Tape.Device.Codec.tuple_string ~max_bytes:4 in
      let t = Tape.Group.tape g ~name:"data" ~codec ~blank:"_" () in
      let made = ref [] and read_by = ref [] in
      Tape.set_injection t
        (Some
           (fun name ->
             made := name :: !made;
             {
               pass_through with
               Tape.Injection.on_read =
                 (fun ~pos:_ _ ->
                   read_by := name :: !read_by;
                   Tape.Injection.Read_ok);
             }));
      let s = Tape.Group.sibling g t ~name:"data-aux1" in
      let check_str what = Alcotest.(check string) (label ^ ": " ^ what) in
      check_str "name" "data-aux1" (Tape.name s);
      check_str "blank" "_" (Tape.blank s);
      check_str "reads the blank" "_" (Tape.read s);
      Alcotest.(check (list string))
        (label ^ ": maker applied to each tape's name")
        [ "data-aux1"; "data" ] !made;
      Alcotest.(check (list string))
        (label ^ ": the sibling's read went through its own hook")
        [ "data-aux1" ] !read_by;
      Tape.write s "ab";
      check (label ^ ": a 4-byte cell fits") true (Tape.read s = "ab");
      let too_wide =
        try
          Tape.write_at s 1 "abc";
          false
        with Invalid_argument _ -> true
      in
      check (label ^ ": the data tape's slot width") on_device too_wide;
      check_int (label ^ ": backing files")
        (if on_device then 2 else 0)
        (Tape.Group.device_stats g).Tape.Device.backing_files;
      Tape.Group.close_all g)
    [ ("mem", Tape.Device.Mem, false); ("file", Tape.Device.file_spec spill, true) ];
  Unix.rmdir spill

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
          Alcotest.test_case "seek to a negative target" `Quick
            test_seek_negative_target;
          QCheck_alcotest.to_alcotest prop_seek_fast_path_parity;
          Alcotest.test_case "to_list/iter" `Quick test_to_list_iter;
          Alcotest.test_case "registers" `Quick test_registers;
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
          Alcotest.test_case "sibling on mem and file" `Quick test_sibling;
        ] );
    ]
