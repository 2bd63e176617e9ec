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
   data tapes as their injection maker, and [sort_tape] hands it on to
   the auxiliary tapes it creates. *)

(* Register the decider's private group with the caller's ledger
   recorder: the ledger then covers the data tapes and every auxiliary
   tape the sort adds to the group. *)
let observe_opt obs g =
  match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g

(* A byte-backed device needs a cell codec (a mem group ignores it);
   the items themselves bound the encoded size. [Tuple] framing is
   order-preserving, so cells in a spilled run compare bytewise exactly
   as the in-RAM strings do. *)
let codec_for items =
  let max_len = List.fold_left (fun a s -> max a (String.length s)) 1 items in
  Tape.Device.Codec.tuple_string ~max_len

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

let sort_tape ?retry ?codec ?(ways = 2) g t ~len =
  if ways < 2 then invalid_arg "Extsort.sort_tape: ways >= 2";
  let meter = Tape.Group.meter g in
  (* registers: run length, [ways] stream indices and bounds, counters *)
  Tape.Meter.with_units meter (2 + (2 * ways)) (fun () ->
      let aux =
        Array.init ways (fun w ->
            Tape.Group.tape g
              ~name:(Printf.sprintf "%s-aux%d" (Tape.name t) (w + 1))
              ?codec ~blank:"" ())
      in
      Array.iter (fun tp -> Tape.set_injection tp (Tape.injection t)) aux;
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
         exhausted. A lone live stream is taken unread; otherwise every
         live head is read, last stream first, and the smallest wins,
         ties to the lower stream. *)
      let next () =
        let n_live = ref 0 and best = ref (-1) in
        for w = 0 to ways - 1 do
          if live w then begin
            incr n_live;
            best := w
          end
        done;
        if !n_live > 1 then begin
          best := -1;
          for w = ways - 1 downto 0 do
            if live w then begin
              head w;
              if
                !best < 0
                || Tape.compare_registers String.compare regs.(w) regs.(!best)
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
            for i = 0 to len - 1 do
              Tape.seek t i;
              Tape.load t regs.(0);
              let w = i / !run mod ways in
              Tape.seek aux.(w) counts.(w);
              Tape.store aux.(w) regs.(0);
              counts.(w) <- counts.(w) + 1
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
                head !w;
                Tape.seek t !out;
                Tape.store t regs.(!w);
                idx.(!w) <- idx.(!w) + 1;
                incr out;
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

let sort ?budget ?faults ?retry ?obs ?device ?ways items =
  let retry = Faults.policy faults retry in
  let g = Tape.Group.create ?budget ?device () in
  observe_opt obs g;
  let codec = codec_for items in
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  let t = Tape.Group.tape g ~name:"data" ~codec ~blank:"" () in
  Faults.phase ?retry ~label:"preload" (fun () -> Tape.preload t items);
  Option.iter (fun p -> Faults.attach_string p t) faults;
  let len = List.length items in
  if len > 1 then sort_tape ?retry ~codec ?ways g t ~len;
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
  let longest = Array.fold_left (fun a v -> max a (B.length v)) in
  let codec = Tape.Device.Codec.tuple_string ~max_len:(longest (longest 1 xs) ys) in
  let tx = Tape.Group.tape g ~name:"xs" ~codec ~blank:"" () in
  let ty = Tape.Group.tape g ~name:"ys" ~codec ~blank:"" () in
  let preload tp half =
    Tape.preload_init tp (Array.length half) (fun i -> B.to_string half.(i))
  in
  Faults.phase ?retry ~label:"preload" (fun () ->
      preload tx xs;
      preload ty ys);
  Option.iter (fun p -> List.iter (Faults.attach_string p) [ tx; ty ]) faults;
  (tx, ty, codec)

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
  let tx, ty, codec = instance_tapes ?faults ?retry g inst in
  if m > 1 then begin
    sort_tape ?retry ~codec g tx ~len:m;
    if sort_ys then sort_tape ?retry ~codec g ty ~len:m
  end;
  let ok =
    Tape.Meter.with_units (Tape.Group.meter g) registers (fun () ->
        Faults.phase ?retry ~label:"compare" (fun () -> scan tx ty m))
  in
  (ok, report_of g (I.size inst))

(* Every cell pair is read, with no early exit, so the charges do not
   depend on where the halves first differ. *)
let pointwise_equal tx ty m =
  let rx = Tape.register tx and ry = Tape.register ty in
  let ok = ref true in
  for i = 0 to m - 1 do
    Tape.seek tx i;
    Tape.load tx rx;
    Tape.seek ty i;
    Tape.load ty ry;
    if Tape.compare_registers String.compare rx ry <> 0 then ok := false
  done;
  !ok

(* compare the deduplicated sorted streams with one carried item each *)
let same_set tx ~nx ty ~ny =
  let next_distinct tp len i =
    (* first index > i whose item differs from item at i *)
    let x = Tape.read_at tp i in
    let j = ref (i + 1) in
    while !j < len && String.equal (Tape.read_at tp !j) x do
      incr j
    done;
    !j
  in
  let rec go i j =
    if i >= nx && j >= ny then true
    else if i >= nx || j >= ny then false
    else if not (String.equal (Tape.read_at tx i) (Tape.read_at ty j)) then
      false
    else go (next_distinct tx nx i) (next_distinct ty ny j)
  in
  go 0 0

(* one merge scan looking for a common element *)
let no_common tx ty m =
  let i = ref 0 and j = ref 0 in
  let shared = ref false in
  while !i < m && !j < m do
    let c = String.compare (Tape.read_at tx !i) (Tape.read_at ty !j) in
    if c = 0 then begin
      shared := true;
      i := m
    end
    else if c < 0 then incr i
    else incr j
  done;
  not !shared

let check_sort ?budget ?faults ?retry ?obs ?device inst =
  sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys:false
    ~registers:2 pointwise_equal inst

let multiset_equality ?budget ?faults ?retry ?obs ?device inst =
  sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys:true
    ~registers:2 pointwise_equal inst

let set_equality ?budget ?faults ?retry ?obs ?device inst =
  sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys:true
    ~registers:4
    (fun tx ty m -> same_set tx ~nx:m ty ~ny:m)
    inst

let disjoint ?budget ?faults ?retry ?obs ?device inst =
  sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys:true
    ~registers:3 no_common inst

let decide ?budget ?faults ?retry ?obs ?device problem inst =
  match problem with
  | Problems.Decide.Set_equality ->
      set_equality ?budget ?faults ?retry ?obs ?device inst
  | Problems.Decide.Multiset_equality ->
      multiset_equality ?budget ?faults ?retry ?obs ?device inst
  | Problems.Decide.Check_sort ->
      check_sort ?budget ?faults ?retry ?obs ?device inst

let theoretical_scan_bound ~n =
  let lg =
    int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))
  in
  (8 * lg) + 16
