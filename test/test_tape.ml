(* Tests for the instrumented tape substrate: reversal accounting,
   space accounting, metering, and budget enforcement. *)

let check = Alcotest.(check bool)
let chars = Tape.Device.Codec.tuple_char
let check_int = Alcotest.(check int)

let test_empty_tape () =
  let t = Tape.create ~codec:chars ~blank:'_' () in
  check_int "blank read" (Char.code '_') (Char.code (Tape.read t));
  check_int "pos" 0 (Tape.position t);
  check_int "revs" 0 (Tape.reversals t);
  check "at left end" true (Tape.at_left_end t)

let test_read_write_move () =
  let t = Tape.of_list ~codec:Tape.Device.Codec.tuple_int ~blank:0 [ 10; 20; 30 ] in
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
  let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a' ] in
  Alcotest.check_raises "left of 0" (Invalid_argument "Tape.move: left of position 0")
    (fun () -> Tape.move t Tape.Left)

let test_cells_used_grows () =
  let t = Tape.create ~codec:chars ~blank:'_' () in
  for _ = 1 to 9 do
    Tape.move t Tape.Right
  done;
  check_int "10 cells visited" 10 (Tape.cells_used t);
  Tape.write t 'x';
  check_int "write does not extend past head" 10 (Tape.cells_used t)

let test_rewind () =
  let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c' ] in
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
  let fresh = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b' ] in
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
  let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
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
    let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
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
    let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
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
    let t = Tape.Group.tape_of_list g ~name:"t" ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c' ] in
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
  let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c'; 'd'; 'e' ] in
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
  let t = Tape.Group.tape_of_list g ~name:"t" ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c' ] in
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
    let t = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c'; 'd' ] in
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
  let t = Tape.of_list ~codec:chars ~blank:'_' [ 'x'; 'y' ] in
  Alcotest.(check (list char)) "to_list" [ 'x'; 'y' ] (Tape.to_list t);
  let seen = ref [] in
  Tape.iter_right t (fun c -> seen := c :: !seen);
  Alcotest.(check (list char)) "iter" [ 'y'; 'x' ] !seen;
  (* iter_right from the middle *)
  let t2 = Tape.of_list ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c' ] in
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
  let t1 = Tape.Group.tape_of_list g ~name:"a" ~codec:chars ~blank:'_' [ 'x'; 'y' ] in
  let t2 = Tape.Group.tape g ~name:"b" ~codec:chars ~blank:'_' () in
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
  let t = Tape.Group.tape_of_list g ~name:"t" ~codec:chars ~blank:'_' [ 'a'; 'b'; 'c' ] in
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
  let t = Tape.Group.tape g ~codec:chars ~blank:'_' () in
  Alcotest.check_raises "regrouped" (Invalid_argument "Group.add_tape: tape already grouped")
    (fun () -> Tape.Group.add_tape g t)

(* Cell registers hold stored bytes on every device: a file tape's
   and a mem tape's registers of one codec compare and store across
   the two devices; registers of two codecs do not compare, and a
   store across codecs goes by value. *)
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
  let mem = Tape.of_list ~codec ~blank:"" [ "b"; "" ] in
  let rf = Tape.register file and rm = Tape.register mem in
  let sign_regs () = compare (Tape.compare_registers rf rm) 0 in
  let sign a b = compare (String.compare a b) 0 in
  Tape.load file rf;
  Tape.load mem rm;
  check_int "file bytes vs mem bytes" (sign "b\x00" "b") (sign_regs ());
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
  (* a file cell's bytes into the other file tape and into mem *)
  Tape.seek file 1;
  Tape.load file rf;
  Tape.store out rf;
  Tape.seek mem 0;
  Tape.store mem rf;
  Alcotest.(check (list string)) "bytes stored" [ "a" ] (Tape.to_list out);
  Alcotest.(check (list string)) "bytes stored on mem" [ "a"; "" ] (Tape.to_list mem);
  check_int "stores charged as writes" 2 (Tape.writes out);
  (* another codec: no comparison, and a store by value *)
  let wide = Tape.Device.Codec.tuple_string ~max_bytes:12 in
  let other = Tape.of_list ~codec:wide ~blank:"" [ "c" ] in
  let ro = Tape.register other in
  Tape.load other ro;
  Alcotest.check_raises "two codecs"
    (Invalid_argument "Tape.compare_registers: registers of two codecs") (fun () ->
      ignore (Tape.compare_registers rf ro));
  Tape.store other rf;
  Alcotest.(check (list string)) "stored across codecs" [ "a" ] (Tape.to_list other);
  Alcotest.(check string) "contents" "a" (Tape.contents rf);
  Tape.Group.close_all g;
  Unix.rmdir spill

(* [Group.sibling] derives a working tape from a data tape: its blank,
   its codec (so its slot width, on the group's device) and its hook
   maker, applied to the sibling's own name. *)
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
      check (label ^ ": the data tape's slot width") true too_wide;
      check_int (label ^ ": backing files")
        (if on_device then 2 else 0)
        (Tape.Group.device_stats g).Tape.Device.backing_files;
      Tape.Group.close_all g)
    [ ("mem", Tape.Device.Mem, false); ("file", Tape.Device.file_spec spill, true) ];
  Unix.rmdir spill

(* [copy_run] against the per-cell loop it is charged as. A scenario
   writes cells 0..59 of a source tape (every seventh left
   never-written), then runs [ops]:
   - [`Copy (i, j, len)] copies cells [i, i + len) onto [j, j + len) of
     a second tape, by [copy_run] or by the loop;
   - [`Self (i, j, len)] copies the source onto itself the same way;
   - [`Seek p] seeks the source head;
   - [`Load p] loads source cell [p] into a register of its own, which
     moves the source device's window but not the copy register;
   - [`Peek p] loads cell [p] of the second tape into a register of
     its own and logs it (a register that held the cell before a copy
     overwrote it must see the new cell).
   Blocks of 3 slots and shards of 16 cells make long runs cross
   several blocks, with two lines of cache each, so runs also evict.
   [rot_at] flips a byte of that pread's data, so a fetch raises
   [Corrupt] mid-copy; [dst_codec] gives the second tape a codec of its
   own. The outcome is every tape's counts and head, the op that raised
   and what, the devices' stats, the raw pread/pwrite counts, the copy
   register's cell and the tapes' contents. *)
let copy_spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-copy-run-%d" (Unix.getpid ()))

(* "59" encodes in 4 bytes; 8-byte slots *)
let copy_codec = Tape.Device.Codec.tuple_string ~max_bytes:6

let loop_copy src i dst j len r =
  for k = 0 to len - 1 do
    Tape.seek src (i + k);
    Tape.load src r;
    Tape.seek dst (j + k);
    Tape.store dst r
  done

let copy_devices =
  [
    ("file", fun raw -> Tape.Device.file_spec ~block_bytes:24 ~cache_blocks:2 ~raw copy_spill);
    ("shard", fun raw -> Tape.Device.shard_spec ~shard_bytes:64 ~raw copy_spill);
    ("mem", fun _ -> Tape.Device.Mem);
  ]

let copy_scenario ?(rot_at = -1) ?(dst_codec = copy_codec) ~device ~hooked ~max_scans
    ~copy ops =
  let module R = Tape.Device.Raw in
  let preads = ref 0 and pwrites = ref 0 and rot_at = ref rot_at in
  let raw ~name:_ =
    {
      R.real with
      R.pread =
        (fun fd buf ~pos ~len ~off ->
          incr preads;
          let n = R.real.R.pread fd buf ~pos ~len ~off in
          (* bit rot in transit: the device raises [Corrupt] *)
          if !preads = !rot_at && n > 0 then
            Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0xfe));
          n);
      pwrite =
        (fun fd buf ~pos ~len ~off ->
          incr pwrites;
          R.real.R.pwrite fd buf ~pos ~len ~off);
    }
  in
  let g =
    Tape.Group.create
      ~budget:{ Tape.Group.max_scans; max_internal = None }
      ~device:(device raw) ()
  in
  let src = Tape.Group.tape g ~name:"src" ~codec:copy_codec ~blank:"" () in
  let dst = Tape.Group.tape g ~name:"dst" ~codec:dst_codec ~blank:"" () in
  (* rightward writes: no reversal, so the budget is all the ops' *)
  for p = 0 to 59 do
    if p mod 7 <> 3 then Tape.write_at src p (string_of_int p)
  done;
  if hooked then
    List.iter (fun t -> Tape.set_injection t (Some (fun _ -> pass_through))) [ src; dst ];
  let r = Tape.register src and rs = Tape.register src and rd = Tape.register dst in
  let log = Tape.Group.tape g ~name:"log" ~codec:copy_codec ~blank:"" () in
  let rec go k = function
    | [] -> None
    | op :: rest -> (
        match
          match op with
          | `Copy (i, j, len) -> copy src i dst j len r
          | `Self (i, j, len) -> copy src i src j len r
          | `Seek p -> Tape.seek src p
          | `Load p ->
              Tape.seek src p;
              Tape.load src rs
          | `Peek p ->
              Tape.seek dst p;
              Tape.load dst rd;
              Tape.seek log k;
              Tape.store log rd
        with
        | exception Tape.Budget_exceeded _ -> Some (k, "budget")
        | exception Tape.Device.Corrupt _ -> Some (k, "corrupt")
        | () -> go (k + 1) rest)
  in
  let tripped = go 0 ops in
  rot_at := -1;
  let tape t =
    ( (Tape.reads t, Tape.writes t, Tape.head_moves t),
      (Tape.reversals t, Tape.cells_used t, Tape.position t),
      Tape.head_direction t = Tape.Left )
  in
  let counts = (tape src, tape dst) in
  let stats = Tape.Group.device_stats g in
  let io = (!preads, !pwrites) in
  (* the register's cell, stored on a fresh tape of the group *)
  let held = Tape.Group.tape g ~name:"held" ~codec:copy_codec ~blank:"" () in
  Tape.store held r;
  let contents =
    (Tape.to_list src, Tape.to_list dst, (Tape.to_list held, Tape.to_list log))
  in
  Tape.Group.close_all g;
  (try Unix.rmdir copy_spill with Unix.Unix_error _ -> ());
  (tripped, counts, (stats, io), contents)

let copy_parity ~label ?(max_scans = None) ?rot_at ?dst_codec ops =
  List.iter
    (fun (dev, device) ->
      List.iter
        (fun hooked ->
          let run copy =
            copy_scenario ?rot_at ?dst_codec ~device ~hooked ~max_scans ~copy ops
          in
          check
            (Printf.sprintf "%s, %s%s: copy_run = per-cell loop" label dev
               (if hooked then ", hooked" else ""))
            true
            (run Tape.copy_run = run loop_copy))
        [ false; true ])
    copy_devices

let long_runs =
  [ `Copy (0, 0, 60); `Peek 20; `Copy (1, 30, 45); `Peek 20; `Copy (9, 5, 40);
    `Peek 20; `Copy (0, 61, 20); `Seek 50; `Copy (4, 0, 56); `Peek 20;
    `Copy (40, 100, 30) ]

let test_copy_run () =
  (* lengths 0-3, then long runs from blank-dotted cells, at i <> j,
     forward, backward and onto cells already written *)
  copy_parity ~label:"short runs"
    [ `Copy (0, 0, 0); `Copy (5, 2, 1); `Copy (1, 9, 2); `Copy (20, 4, 3); `Copy (2, 3, 3) ];
  copy_parity ~label:"long runs" long_runs;
  (* a second copy starts at the cell the first one ended on (inside
     a span, on both devices), after another register's loads evicted
     that cell's block: the copy register still holds the cell, so the
     loop reads no block *)
  copy_parity ~label:"reload" [ `Copy (0, 0, 6); `Load 10; `Load 40; `Copy (5, 70, 3) ];
  (* a tape onto itself, and onto a tape of another codec: the loop *)
  copy_parity ~label:"onto itself" [ `Self (0, 20, 30); `Self (30, 2, 25) ];
  copy_parity ~label:"another codec"
    ~dst_codec:(Tape.Device.Codec.tuple_string ~max_bytes:9)
    long_runs;
  (* the scan budget trips at cell 0 (the source head turns back to
     cell 0) and at cell 1 (it turns forward from cell 10); the
     tripped state is compared *)
  copy_parity ~label:"trip at cell 0" ~max_scans:(Some 1) [ `Copy (0, 0, 30) ];
  copy_parity ~label:"trip at cell 1" ~max_scans:(Some 2) [ `Seek 10; `Copy (10, 0, 30) ];
  (* a fetch fails its CRC in the middle of a long copy, on each of the
     first reads *)
  for rot_at = 1 to 12 do
    copy_parity ~label:(Printf.sprintf "rot at pread %d" rot_at) ~rot_at
      [ `Copy (0, 0, 60); `Peek 3; `Copy (2, 1, 58) ]
  done;
  (* the trips happen where they should *)
  let tripped ~max_scans ops =
    let t, _, _, _ =
      copy_scenario ~device:(fun _ -> Tape.Device.Mem) ~hooked:false ~max_scans
        ~copy:Tape.copy_run ops
    in
    t
  in
  let trip = Alcotest.(option (pair int string)) in
  Alcotest.check trip "trips at the copy" (Some (0, "budget"))
    (tripped ~max_scans:(Some 1) [ `Copy (0, 0, 30) ]);
  Alcotest.check trip "trips at the copy, after the seek" (Some (1, "budget"))
    (tripped ~max_scans:(Some 2) [ `Seek 10; `Copy (10, 0, 30) ])

let prop_copy_run_parity =
  let cell = QCheck.Gen.int_range 0 60 in
  let run = QCheck.Gen.(triple cell cell (int_range 0 40)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun r -> `Copy r) run);
          (1, map (fun r -> `Self r) run);
          (1, map (fun p -> `Seek p) cell);
          (1, map (fun p -> `Load p) cell);
          (2, map (fun p -> `Peek p) (int_range 0 100));
        ])
  in
  let show = function
    | `Copy (i, j, n) -> Printf.sprintf "Copy (%d, %d, %d)" i j n
    | `Self (i, j, n) -> Printf.sprintf "Self (%d, %d, %d)" i j n
    | `Seek p -> Printf.sprintf "Seek %d" p
    | `Load p -> Printf.sprintf "Load %d" p
    | `Peek p -> Printf.sprintf "Peek %d" p
  in
  QCheck.Test.make ~name:"copy_run = per-cell loop on random runs" ~count:100
    (QCheck.make
       ~print:(fun (max_scans, rot_at, ops) ->
         Printf.sprintf "max_scans %s, rot_at %d: %s"
           (match max_scans with None -> "-" | Some m -> string_of_int m)
           rot_at
           (String.concat "; " (List.map show ops)))
       QCheck.Gen.(
         triple (opt (int_range 1 6))
           (* about one run in three rots a pread *)
           (int_range (-20) 39)
           (list_size (int_range 1 8) op)))
    (fun (max_scans, rot_at, ops) ->
      List.for_all
        (fun (_, device) ->
          let run copy = copy_scenario ~rot_at ~device ~hooked:false ~max_scans ~copy ops in
          run Tape.copy_run = run loop_copy)
        copy_devices)

(* Word-at-a-time register compare: registers holding raw string bytes
   (a codec that stores a string as itself, on a file tape) compare
   with [String.compare]'s sign, for strings of 0-40 bytes with 0x00
   and high bytes, and common prefixes of every length, so the first
   difference falls on both sides of each 8-byte boundary. The compare
   allocates nothing. *)
let raw_codec =
  Tape.Device.Codec.
    {
      size = String.length;
      write =
        (fun buf pos s ->
          Bytes.blit_string s 0 buf pos (String.length s);
          pos + String.length s);
      value = (fun buf pos limit -> Bytes.sub_string buf pos (limit - pos));
      max_bytes = 40;
    }

let compare_spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-compare-%d" (Unix.getpid ()))

let prop_word_compare =
  let byte =
    QCheck.Gen.(
      frequency
        [ (2, return '\x00'); (2, char_range '\x80' '\xff'); (1, return '\x01'); (3, char_range 'a' 'c') ])
  in
  let pair =
    QCheck.Gen.(
      int_range 0 40 >>= fun common ->
      string_size ~gen:byte (return common) >>= fun prefix ->
      let tail = string_size ~gen:byte (int_range 0 (40 - common)) in
      pair tail tail >|= fun (x, y) -> (prefix ^ x, prefix ^ y))
  in
  QCheck.Test.make ~name:"word compare has String.compare's sign" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%S %S" a b)
       pair)
    (fun (a, b) ->
      let g = Tape.Group.create ~device:(Tape.Device.file_spec compare_spill) () in
      let t = Tape.Group.tape_of_list g ~codec:raw_codec ~blank:"" [ a; b ] in
      let ra = Tape.register t and rb = Tape.register t in
      Tape.load t ra;
      Tape.seek t 1;
      Tape.load t rb;
      let sign x = compare x 0 in
      let ok =
        sign (Tape.compare_registers ra rb) = sign (String.compare a b)
        && sign (Tape.compare_registers rb ra) = sign (String.compare b a)
      in
      let w0 = Gc.minor_words () in
      let acc = ref 0 in
      for _ = 1 to 100 do
        acc := !acc + Tape.compare_registers ra rb
      done;
      let words = Gc.minor_words () -. w0 in
      Tape.Group.close_all g;
      Unix.rmdir compare_spill;
      ok && words = 0. && (!acc = 0) = (a = b))

(* A register acts as [read] and [write] do: on mem, file and shard,
   with no hook and with a hook that answers each operation as scripted
   ([Read_value], [Write_value], [Write_drop], [*_fail] or ok), [load]
   then [contents] returns what [read] returns, and [store] leaves the
   cells and the counters that [write] of the register's [contents]
   leaves. Each op seeks cell [p] of a tape of 12 cells (every third
   never written), then reads it, or stores there cell [q] of a second,
   unhooked tape. *)
let reg_spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-register-%d" (Unix.getpid ()))

let register_run ~device ~hooked ~by_register ops =
  let codec = Tape.Device.Codec.tuple_string ~max_bytes:6 in
  let g = Tape.Group.create ~device () in
  let t = Tape.Group.tape g ~name:"t" ~codec ~blank:"" () in
  let src = Tape.Group.tape_of_list g ~name:"src" ~codec ~blank:"" [ "a"; "bb"; ""; "\x00c" ] in
  for p = 0 to 11 do
    if p mod 3 <> 2 then Tape.write_at t p (string_of_int p)
  done;
  let answer = ref `Ok in
  let module I = Tape.Injection in
  if hooked then
    Tape.set_injection t
      (Some
         (fun _ ->
           {
             I.on_read =
               (fun ~pos:_ _ ->
                 match !answer with
                 | `Ok | `Drop -> I.Read_ok
                 | `Value v -> I.Read_value v
                 | `Fail -> I.Read_fail Exit);
             on_write =
               (fun ~pos:_ _ ->
                 match !answer with
                 | `Ok -> I.Write_ok
                 | `Value v -> I.Write_value v
                 | `Drop -> I.Write_drop
                 | `Fail -> I.Write_fail Exit);
             on_move = (fun ~pos:_ _ -> I.Move_ok);
           }));
  let r = Tape.register t and rs = Tape.register src in
  let step (p, op, a) =
    answer := `Ok;
    Tape.seek t p;
    answer := a;
    match op with
    | `Read -> (
        match if by_register then (Tape.load t r; Tape.contents r) else Tape.read t with
        | v -> v
        | exception Exit -> "raised")
    | `Store q -> (
        Tape.seek src q;
        Tape.load src rs;
        match if by_register then Tape.store t rs else Tape.write t (Tape.contents rs) with
        | () -> "stored"
        | exception Exit -> "raised")
  in
  let log = List.map step ops in
  let rep = Tape.Group.report g in
  let out = (log, Tape.to_list t, (rep.Tape.Group.tapes, Tape.Group.device_stats g)) in
  Tape.Group.close_all g;
  (try Unix.rmdir reg_spill with Unix.Unix_error _ -> ());
  out

let prop_register_is_read_write =
  let open QCheck.Gen in
  let answer =
    frequency
      [ (3, return `Ok); (1, map (fun v -> `Value v) (oneofl [ ""; "v"; "\x00" ]));
        (1, return `Drop); (1, return `Fail) ]
  in
  let op = frequency [ (1, return `Read); (1, map (fun q -> `Store q) (int_range 0 5)) ] in
  QCheck.Test.make ~name:"load/store = read/write, hooked or not, on mem/file/shard"
    ~count:100
    (QCheck.make (list_size (int_range 1 20) (triple (int_range 0 13) op answer)))
    (fun ops ->
      List.for_all
        (fun device ->
          List.for_all
            (fun hooked ->
              let run by_register = register_run ~device ~hooked ~by_register ops in
              run true = run false)
            [ false; true ])
        [
          Tape.Device.Mem;
          Tape.Device.file_spec ~block_bytes:24 ~cache_blocks:2 reg_spill;
          Tape.Device.shard_spec ~shard_bytes:64 reg_spill;
        ])

let prop_reversals_count_direction_changes =
  (* random walk: reversals = number of adjacent direction changes among
     executed moves *)
  QCheck.Test.make ~name:"reversal counting on random walks" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun dirs ->
      let t = Tape.create ~codec:Tape.Device.Codec.tuple_int ~blank:0 () in
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
          QCheck_alcotest.to_alcotest prop_register_is_read_write;
          QCheck_alcotest.to_alcotest prop_word_compare;
          Alcotest.test_case "copy_run = per-cell loop" `Quick test_copy_run;
          QCheck_alcotest.to_alcotest prop_copy_run_parity;
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
