module I = Problems.Instance
module B = Util.Bitstring

type report = {
  n : int;
  scans : int;
  reversals : int;
  register_peak : int;
  tapes : int;
  faults : int;
}

(* Fault plumbing. Every phase below (a distribution pass, a merge
   pass, a comparison scan) is restartable: it re-seeks its tapes and
   rebuilds its registers from scratch, so running it under
   [Faults.phase] survives injected [Faults.Transient_io] failures (and
   storage faults from below the device seam) — and the re-seeks go
   through the ordinary [move] calls, so recovery is charged honest
   reversal costs by the tapes themselves. A fault plan rides on the
   data tapes as their injection maker, and [sort_tape]'s auxiliary
   tapes, created with [Tape.Group.sibling], inherit it. *)

(* Register the decider's private group with the caller's ledger
   recorder: the ledger then covers the data tapes and every auxiliary
   tape the sort adds to the group. *)
let observe_opt obs g =
  match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g

(* A tape's slots are sized to the largest encoding it will hold: the
   items' (a sort only permutes them) and the blank's, so a bitstring
   cell of n characters takes n + 2 bytes, not the 2n + 2 of a string
   that is all 0x00; a sort's auxiliary tapes take the data tape's
   codec. [Tuple] framing is order-preserving, so cells compare
   bytewise exactly as the strings do. *)
let blank_bytes = Tape.Tuple.str_size ""

let codec_for items =
  let max_bytes =
    List.fold_left (fun a s -> max a (Tape.Tuple.str_size s)) blank_bytes items
  in
  Tape.Device.Codec.tuple_string ~max_bytes

(* Read cells [0 .. len-1] in one left-to-right scan: seek once, then
   read/advance cell by cell. Indexed [read_at] reads would re-seek
   from wherever the head was left — correct, but each seek is charged
   head moves, and an application order other than strictly ascending
   turns the readback into O(len · seek). *)
let read_run tp ~len =
  Tape.seek tp 0;
  List.init len (fun i ->
      if i > 0 then Tape.move tp Tape.Right;
      Tape.read tp)

let sort_tape ?retry ?(ways = 2) g t ~len =
  if ways < 2 then invalid_arg "Extsort.sort_tape: ways >= 2";
  let meter = Tape.Group.meter g in
  (* registers: run length, [ways] stream indices and bounds, counters *)
  Tape.Meter.with_units meter (2 + (2 * ways)) (fun () ->
      let aux =
        Array.init ways (fun w ->
            Tape.Group.sibling g t
              ~name:(Printf.sprintf "%s-aux%d" (Tape.name t) (w + 1)))
      in
      let counts = Array.make ways 0 in
      let idx = Array.make ways 0 and hi = Array.make ways 0 in
      (* one cell register per stream; the distribution pass moves its
         cells through the first *)
      let regs = Array.init ways (fun _ -> Tape.register t) in
      let live w = idx.(w) < hi.(w) in
      let head w =
        Tape.seek aux.(w) idx.(w);
        Tape.load aux.(w) regs.(w)
      in
      (* The stream whose head goes out next, or -1 once all are
         exhausted. A lone live stream is taken unread ([lone] is then
         set); otherwise every live head is read, last stream first,
         and the smallest wins, ties to the lower stream. *)
      let lone = ref false in
      let next () =
        let n_live = ref 0 and best = ref (-1) in
        for w = 0 to ways - 1 do
          if live w then begin
            incr n_live;
            best := w
          end
        done;
        lone := !n_live = 1;
        if !n_live > 1 then begin
          best := -1;
          for w = ways - 1 downto 0 do
            if live w then begin
              head w;
              if
                !best < 0
                || Tape.compare_registers regs.(w) regs.(!best)
                   <= 0
              then best := w
            end
          done
        end;
        !best
      in
      let run = ref 1 in
      while !run < len do
        (* distribute runs of length !run round-robin over the aux
           tapes; a retry redistributes from the (unchanged) data tape *)
        Faults.phase ?retry ~label:"sort-distribute" (fun () ->
            Array.fill counts 0 ways 0;
            let i = ref 0 and w = ref 0 in
            while !i < len do
              let n = Int.min !run (len - !i) in
              Tape.copy_run t !i aux.(!w) counts.(!w) n regs.(0);
              counts.(!w) <- counts.(!w) + n;
              i := !i + n;
              w := if !w = ways - 1 then 0 else !w + 1
            done);
        (* merge groups of [ways] runs back onto t; a retry re-merges
           from the (unchanged) aux tapes, rewriting t from position 0 *)
        Faults.phase ?retry ~label:"sort-merge" (fun () ->
            let out = ref 0 and lo = ref 0 in
            while !out < len do
              for w = 0 to ways - 1 do
                idx.(w) <- !lo;
                hi.(w) <- min (!lo + !run) counts.(w)
              done;
              let w = ref (next ()) in
              while !w >= 0 do
                let w' = !w in
                if !lone then begin
                  (* the tail: the rest of [w'] goes out as it stands,
                     charged as the step below would charge it *)
                  let n = hi.(w') - idx.(w') in
                  Tape.copy_run aux.(w') idx.(w') t !out n regs.(w');
                  idx.(w') <- hi.(w');
                  out := !out + n
                end
                else begin
                  head w';
                  Tape.seek t !out;
                  Tape.store t regs.(w');
                  idx.(w') <- idx.(w') + 1;
                  incr out
                end;
                w := next ()
              done;
              lo := !lo + !run
            done);
        run := !run * ways
      done;
      Faults.phase ?retry ~label:"sort-rewind" (fun () -> Tape.seek t 0))

let report_of g n =
  let r = Tape.Group.report g in
  {
    n;
    scans = r.Tape.Group.scans_used;
    reversals = r.Tape.Group.scans_used - 1;
    register_peak = r.Tape.Group.internal_peak_units;
    tapes = List.length r.Tape.Group.tapes;
    faults = Tape.Group.faults_injected g;
  }

let sort ?faults ?obs ?device ?ways items =
  let retry = Faults.policy faults None in
  let g = Tape.Group.create ?device () in
  observe_opt obs g;
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  let t = Tape.Group.tape g ~name:"data" ~codec:(codec_for items) ~blank:"" () in
  Faults.phase ?retry ~label:"preload" (fun () -> Tape.preload t items);
  Option.iter (fun p -> Faults.attach_string p t) faults;
  let len = List.length items in
  if len > 1 then sort_tape ?retry ?ways g t ~len;
  let out =
    Faults.phase ?retry ~label:"sort-readback" (fun () -> read_run t ~len)
  in
  (out, report_of g len)

(* The preload is device-level and idempotent (fixed-position writes of
   fixed values), so it runs under the same retry combinator as the
   scan phases: a below-seam I/O error during the initial spill heals
   by re-preloading. The above-seam plan is attached only afterwards,
   exactly as before, so injection runs never fault their own setup. *)
let instance_tapes ?faults ?retry g inst =
  let xs = I.xs inst and ys = I.ys inst in
  let largest =
    Array.fold_left (fun a v -> max a (Tape.Tuple.str_size (B.to_string v)))
  in
  let codec =
    Tape.Device.Codec.tuple_string ~max_bytes:(largest (largest blank_bytes xs) ys)
  in
  let tx = Tape.Group.tape g ~name:"xs" ~codec ~blank:"" () in
  let ty = Tape.Group.tape g ~name:"ys" ~codec ~blank:"" () in
  let preload tp half =
    Tape.preload_init tp (Array.length half) (fun i -> B.to_string half.(i))
  in
  Faults.phase ?retry ~label:"preload" (fun () ->
      preload tx xs;
      preload ty ys);
  Option.iter (fun p -> List.iter (Faults.attach_string p) [ tx; ty ]) faults;
  (tx, ty)

(* The shell every Corollary 7 decider shares: load the halves, sort
   xs (and ys when [sort_ys]), then run one comparison [scan tx ty m]
   as a restartable phase holding [registers] item registers. *)
let sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys ~registers scan
    inst =
  let retry = Faults.policy faults retry in
  let g = Tape.Group.create ?budget ?device () in
  observe_opt obs g;
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  let m = I.m inst in
  let tx, ty = instance_tapes ?faults ?retry g inst in
  if m > 1 then begin
    sort_tape ?retry g tx ~len:m;
    if sort_ys then sort_tape ?retry g ty ~len:m
  end;
  let ok =
    Tape.Meter.with_units (Tape.Group.meter g) registers (fun () ->
        Faults.phase ?retry ~label:"compare" (fun () -> scan tx ty m))
  in
  (ok, report_of g (I.size inst))

(* move the head to cell [i] and load it into register [r] *)
let load_at tp r i =
  Tape.seek tp i;
  Tape.load tp r

(* Every cell pair is read, with no early exit, so the charges do not
   depend on where the halves first differ. *)
let pointwise_equal tx ty m =
  let rx = Tape.register tx and ry = Tape.register ty in
  let ok = ref true in
  for i = 0 to m - 1 do
    load_at tx rx i;
    load_at ty ry i;
    if Tape.compare_registers rx ry <> 0 then ok := false
  done;
  !ok

(* Compare the deduplicated sorted streams with one carried item each.
   The cells go through registers, so an unhooked tape decodes none of
   them. Each step reads ys before xs: a fault plan's streams and the
   scan budget see the two tapes interleaved in that order. *)
let same_set tx ~nx ty ~ny =
  let cx = Tape.register tx and cy = Tape.register ty in
  let rx = Tape.register tx and ry = Tape.register ty in
  (* first index > i whose item differs from item i, carried in [c] *)
  let next_distinct tp len i c r =
    load_at tp c i;
    let j = ref (i + 1) in
    while
      !j < len
      && begin
           load_at tp r !j;
           Tape.compare_registers r c = 0
         end
    do
      incr j
    done;
    !j
  in
  let rec go i j =
    if i >= nx && j >= ny then true
    else if i >= nx || j >= ny then false
    else begin
      load_at ty ry j;
      load_at tx rx i;
      Tape.compare_registers rx ry = 0
      &&
      let j' = next_distinct ty ny j cy ry in
      let i' = next_distinct tx nx i cx rx in
      go i' j'
    end
  in
  go 0 0

(* one merge scan looking for a common element, ys read before xs *)
let no_common tx ty m =
  let rx = Tape.register tx and ry = Tape.register ty in
  let i = ref 0 and j = ref 0 in
  let shared = ref false in
  while !i < m && !j < m do
    load_at ty ry !j;
    load_at tx rx !i;
    let c = Tape.compare_registers rx ry in
    if c = 0 then begin
      shared := true;
      i := m
    end
    else if c < 0 then incr i
    else incr j
  done;
  not !shared

(* The one configured entry: each problem is [sorted_halves] with its
   own comparison scan. *)
let decide ?budget ?faults ?retry ?obs ?device problem inst =
  let sort_ys, registers, scan =
    match problem with
    | Problems.Decide.Check_sort -> (false, 2, pointwise_equal)
    | Problems.Decide.Multiset_equality -> (true, 2, pointwise_equal)
    | Problems.Decide.Set_equality ->
        (true, 4, fun tx ty m -> same_set tx ~nx:m ty ~ny:m)
  in
  sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys ~registers scan
    inst

let check_sort inst = decide Problems.Decide.Check_sort inst

let multiset_equality ?obs ?device inst =
  decide ?obs ?device Problems.Decide.Multiset_equality inst

let set_equality inst = decide Problems.Decide.Set_equality inst

let disjoint inst = sorted_halves ~sort_ys:true ~registers:3 no_common inst

let theoretical_scan_bound ~n =
  let lg =
    int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))
  in
  (8 * lg) + 16
