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
   reversal costs by the tapes themselves. *)

let attach_opt faults tp =
  match faults with None -> () | Some p -> Faults.attach_string p tp

(* Register the decider's private group with the caller's ledger
   recorder: the ledger then covers the data tapes and every auxiliary
   tape the sort adds to the group. *)
let observe_opt obs g =
  match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g

(* A byte-backed device needs a cell codec; the items themselves bound
   the encoded size. [Tuple] framing is order-preserving, so cells in a
   spilled run compare bytewise exactly as the in-RAM strings do. *)
let codec_for g items =
  match Tape.Group.device g with
  | Tape.Device.Mem -> None
  | _ ->
      let max_len =
        List.fold_left (fun a s -> max a (String.length s)) 1 items
      in
      Some (Tape.Device.Codec.tuple_string ~max_len)

(* Read cells [0 .. len-1] in one left-to-right scan: seek once, then
   read/advance cell by cell. Indexed [read_at] reads would re-seek
   from wherever the head was left — correct, but each seek is charged
   head moves, and an application order other than strictly ascending
   turns the readback into O(len · seek). *)
let read_run tp ~len =
  Tape.seek tp 0;
  let out = ref [] in
  for i = 0 to len - 1 do
    if i > 0 then Tape.move tp Tape.Right;
    out := Tape.read tp :: !out
  done;
  List.rev !out

let sort_tape ?faults ?retry ?codec ?(ways = 2) g t ~len =
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
      Array.iter (attach_opt faults) aux;
      let counts = Array.make ways 0 in
      let idx = Array.make ways 0 and hi = Array.make ways 0 in
      let live w = idx.(w) < hi.(w) in
      let head w = Tape.read_at aux.(w) idx.(w) in
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
          let smallest = ref "" in
          best := -1;
          for w = ways - 1 downto 0 do
            if live w then begin
              let x = head w in
              if !best < 0 || String.compare x !smallest <= 0 then begin
                best := w;
                smallest := x
              end
            end
          done
        end;
        !best
      in
      let run = ref 1 in
      while !run < len do
        (* distribute runs of length !run round-robin over the aux
           tapes; a retry redistributes from the (unchanged) data tape *)
        Faults.phase ?faults ?retry ~label:"sort-distribute" (fun () ->
            Array.fill counts 0 ways 0;
            for i = 0 to len - 1 do
              let x = Tape.read_at t i in
              let w = i / !run mod ways in
              Tape.write_at aux.(w) counts.(w) x;
              counts.(w) <- counts.(w) + 1
            done);
        (* merge groups of [ways] runs back onto t; a retry re-merges
           from the (unchanged) aux tapes, rewriting t from position 0 *)
        Faults.phase ?faults ?retry ~label:"sort-merge" (fun () ->
            let out = ref 0 and lo = ref 0 in
            while !out < len do
              for w = 0 to ways - 1 do
                idx.(w) <- !lo;
                hi.(w) <- min (!lo + !run) counts.(w)
              done;
              let w = ref (next ()) in
              while !w >= 0 do
                Tape.write_at t !out (head !w);
                idx.(!w) <- idx.(!w) + 1;
                incr out;
                w := next ()
              done;
              lo := !lo + !run
            done);
        run := !run * ways
      done;
      Faults.phase ?faults ?retry ~label:"sort-rewind" (fun () -> Tape.seek t 0))

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
  let g = Tape.Group.create ?budget ?device () in
  observe_opt obs g;
  let codec = codec_for g items in
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  let t = Tape.Group.tape g ~name:"data" ?codec ~blank:"" () in
  Faults.phase ?faults ?retry ~label:"preload" (fun () -> Tape.preload t items);
  attach_opt faults t;
  let len = List.length items in
  if len > 1 then sort_tape ?faults ?retry ?codec ?ways g t ~len;
  let out =
    Faults.phase ?faults ?retry ~label:"sort-readback" (fun () ->
        read_run t ~len)
  in
  (out, report_of g len)

let items_of half = Array.to_list (Array.map B.to_string half)

(* The preload is device-level and idempotent (fixed-position writes of
   fixed values), so it runs under the same retry combinator as the
   scan phases: a below-seam I/O error during the initial spill heals
   by re-preloading. The above-seam plan is attached only afterwards,
   exactly as before, so injection runs never fault their own setup. *)
let instance_tapes ?faults ?retry g inst =
  let xs = items_of (I.xs inst) and ys = items_of (I.ys inst) in
  let codec = codec_for g (xs @ ys) in
  let tx = Tape.Group.tape g ~name:"xs" ?codec ~blank:"" () in
  let ty = Tape.Group.tape g ~name:"ys" ?codec ~blank:"" () in
  Faults.phase ?faults ?retry ~label:"preload" (fun () ->
      Tape.preload tx xs;
      Tape.preload ty ys);
  attach_opt faults tx;
  attach_opt faults ty;
  (tx, ty, codec)

(* The shell every Corollary 7 decider shares: load the halves, sort
   xs (and ys when [sort_ys]), then run one comparison [scan tx ty m]
   as a restartable phase holding [registers] item registers. *)
let sorted_halves ?budget ?faults ?retry ?obs ?device ~sort_ys ~registers scan
    inst =
  let g = Tape.Group.create ?budget ?device () in
  observe_opt obs g;
  Fun.protect ~finally:(fun () -> Tape.Group.close_all g) @@ fun () ->
  let m = I.m inst in
  let tx, ty, codec = instance_tapes ?faults ?retry g inst in
  if m > 1 then begin
    sort_tape ?faults ?retry ?codec g tx ~len:m;
    if sort_ys then sort_tape ?faults ?retry ?codec g ty ~len:m
  end;
  let ok =
    Tape.Meter.with_units (Tape.Group.meter g) registers (fun () ->
        Faults.phase ?faults ?retry ~label:"compare" (fun () -> scan tx ty m))
  in
  (ok, report_of g (I.size inst))

let pointwise_equal tx ty m =
  let ok = ref true in
  for i = 0 to m - 1 do
    if not (String.equal (Tape.read_at tx i) (Tape.read_at ty i)) then
      ok := false
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
