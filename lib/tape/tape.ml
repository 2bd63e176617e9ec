(* Re-exports: the byte-level cell format and the storage backends live
   in sibling modules; [Tape.Tuple] / [Tape.Device] is their public
   address. *)
module Tuple = Tuple
module Device = Device

type direction = Left | Right

exception Budget_exceeded of string

module Meter = struct
  type t = {
    mutable current : int;
    mutable peak : int;
    mutable limit : int option;
  }

  let create () = { current = 0; peak = 0; limit = None }

  let alloc m n =
    if n < 0 then invalid_arg "Meter.alloc: negative";
    m.current <- m.current + n;
    if m.current > m.peak then begin
      m.peak <- m.current;
      match m.limit with
      | Some lim when m.peak > lim ->
          raise
            (Budget_exceeded
               (Printf.sprintf "internal memory: peak %d > budget %d" m.peak lim))
      | Some _ | None -> ()
    end

  let free m n =
    if n < 0 || n > m.current then invalid_arg "Meter.free: underflow";
    m.current <- m.current - n

  let with_units m n f =
    alloc m n;
    Fun.protect ~finally:(fun () -> free m n) f

  let current m = m.current
  let peak m = m.peak
end

module Injection = struct
  type 'a read_outcome = Read_ok | Read_value of 'a | Read_fail of exn
  type 'a write_outcome = Write_ok | Write_value of 'a | Write_drop | Write_fail of exn
  type move_outcome = Move_ok | Move_fail of exn

  type 'a t = {
    on_read : pos:int -> 'a -> 'a read_outcome;
    on_write : pos:int -> 'a -> 'a write_outcome;
    on_move : pos:int -> direction -> move_outcome;
  }
end

(* A group member of any cell type: the group reads its counters and
   drives its device directly. *)
type member = Member : 'a t -> member

and group_state = {
  mutable members : member list; (* reversed registration order *)
  g_meter : Meter.t;
  max_scans : int option;
  g_device : Device.spec;
}

and 'a t = {
  id : int;
  name : string;
  blank : 'a;
  dev : 'a Device.t;
  mutable epoch : int; (* bumped by every write to the device *)
  mutable used : int; (* highest position visited or written, plus one *)
  mutable pos : int;
  mutable dir : direction;
  mutable revs : int;
  mutable moves : int;
  mutable reads : int;
  mutable writes : int;
  mutable group : group_state option;
  mutable injector : (string -> 'a Injection.t) option;
  mutable injection : 'a Injection.t option; (* [injector] applied to [name] *)
  mutable faults : int;
}

(* atomic: tapes are created from several domains at once under the
   parallel harness, and a plain ref would race *)
let fresh_counter = Atomic.make 0

(* a tape whose cells [spec] stores through [codec] *)
let make ?name spec ~codec ~blank =
  let id = Atomic.fetch_and_add fresh_counter 1 + 1 in
  let name = match name with Some n -> n | None -> Printf.sprintf "tape%d" id
  in
  let dev = Device.instantiate ~codec spec ~blank ~name in
  {
    id;
    name;
    blank;
    dev;
    epoch = 0;
    used = 0;
    pos = 0;
    dir = Right;
    revs = 0;
    moves = 0;
    reads = 0;
    writes = 0;
    group = None;
    injector = None;
    injection = None;
    faults = 0;
  }

let create ?name ~codec ~blank () = make ?name Device.Mem ~codec ~blank

let[@inline] touch tp pos = if pos >= tp.used then tp.used <- pos + 1

(* Device-level fill: no head movement, no reversal, no counted write,
   no injection traffic — the cost-free "the input is
   already on the tape" premise every experiment starts from, at any
   backend. *)
let preload_cell tp i x =
  touch tp i;
  Device.set tp.dev i x

let preload_init tp n f =
  tp.epoch <- tp.epoch + 1;
  for i = 0 to n - 1 do
    preload_cell tp i (f i)
  done

let preload_blit src i tp n =
  let codec = Device.codec src.dev in
  if codec != Device.codec tp.dev then invalid_arg "Tape.preload_blit: two codecs";
  tp.epoch <- tp.epoch + 1;
  let buf = Bytes.create codec.Device.Codec.max_bytes in
  for k = 0 to n - 1 do
    touch tp k;
    Device.store tp.dev k buf (Device.load src.dev (i + k) buf)
  done

let preload tp items =
  tp.epoch <- tp.epoch + 1;
  List.iteri (preload_cell tp) items

let of_list ?name ~codec ~blank items =
  let tp = create ?name ~codec ~blank () in
  preload tp items;
  tp

let name tp = tp.name
let blank tp = tp.blank

let set_injection tp maker =
  tp.injector <- maker;
  tp.injection <- Option.map (fun make -> make tp.name) maker

(* Reads, writes and moves are counted only once the operation has
   completed: an operation aborted by an injected fault is re-counted
   when its phase retries, so these counts are as honest as the
   reversal accounting. *)
let read tp =
  touch tp tp.pos;
  let v = Device.get tp.dev tp.pos in
  match tp.injection with
  | None ->
      tp.reads <- tp.reads + 1;
      v
  | Some h -> (
      match h.Injection.on_read ~pos:tp.pos v with
      | Injection.Read_ok ->
          tp.reads <- tp.reads + 1;
          v
      | Injection.Read_value v' ->
          (* silent read corruption: the cell itself is untouched *)
          tp.faults <- tp.faults + 1;
          tp.reads <- tp.reads + 1;
          v'
      | Injection.Read_fail e ->
          tp.faults <- tp.faults + 1;
          raise e)

let write tp x =
  touch tp tp.pos;
  tp.epoch <- tp.epoch + 1;
  match tp.injection with
  | None ->
      Device.set tp.dev tp.pos x;
      tp.writes <- tp.writes + 1
  | Some h -> (
      match h.Injection.on_write ~pos:tp.pos x with
      | Injection.Write_ok ->
          Device.set tp.dev tp.pos x;
          tp.writes <- tp.writes + 1
      | Injection.Write_value x' ->
          tp.faults <- tp.faults + 1;
          Device.set tp.dev tp.pos x';
          tp.writes <- tp.writes + 1
      | Injection.Write_drop ->
          (* torn write: the old cell content survives *)
          tp.faults <- tp.faults + 1;
          tp.writes <- tp.writes + 1
      | Injection.Write_fail e ->
          tp.faults <- tp.faults + 1;
          raise e)

let total_group_reversals g =
  List.fold_left (fun acc (Member tp) -> acc + tp.revs) 0 g.members

let check_scan_budget tp =
  match tp.group with
  | None -> ()
  | Some g -> (
      match g.max_scans with
      | None -> ()
      | Some lim ->
          let scans = 1 + total_group_reversals g in
          if scans > lim then
            raise
              (Budget_exceeded
                 (Printf.sprintf "scans: %d > budget %d (reversal on %s)" scans
                    lim tp.name)))

let move tp dir =
  (match dir with
  | Left -> if tp.pos = 0 then invalid_arg "Tape.move: left of position 0"
  | Right -> ());
  (match tp.injection with
  | None -> ()
  | Some h -> (
      match h.Injection.on_move ~pos:tp.pos dir with
      | Injection.Move_ok -> ()
      | Injection.Move_fail e ->
          tp.faults <- tp.faults + 1;
          raise e));
  if dir <> tp.dir then begin
    tp.revs <- tp.revs + 1;
    tp.dir <- dir;
    check_scan_budget tp
  end;
  tp.pos <- (match dir with Left -> tp.pos - 1 | Right -> tp.pos + 1);
  touch tp tp.pos;
  tp.moves <- tp.moves + 1

let position tp = tp.pos
let head_direction tp = tp.dir
let at_left_end tp = tp.pos = 0
let reversals tp = tp.revs
let cells_used tp = tp.used
let head_moves tp = tp.moves
let reads tp = tp.reads
let writes tp = tp.writes

(* Fast path: with no injection hook installed, nobody is entitled to
   see the individual moves, so a seek to a position [>= 0] is
   constant-time. It replicates the per-cell loop's accounting exactly,
   including the failure state: the loop's first move charges the
   reversal (if the head turns) and checks the scan budget BEFORE the
   position changes, so on [Budget_exceeded] the head must still be at
   its old position with the new direction, the reversal recorded and
   no move counted. Touching the target alone is enough: [used] only
   grows, and a leftward walk stays below it. A hooked tape takes the
   loop so its hook still sees every step, and a negative target takes
   it so the walk fails at position 0 exactly as [move] does.

   Invariant: a head already at the target - in particular the initial
   head at position 0 - issues no move, so [rewind] there charges no
   reversal and leaves the direction untouched. *)
let[@inline] seek tp target =
  match tp.injection with
  | None when target >= 0 ->
      if target <> tp.pos then begin
        let dir = if target > tp.pos then Right else Left in
        if dir <> tp.dir then begin
          tp.revs <- tp.revs + 1;
          tp.dir <- dir;
          check_scan_budget tp
        end;
        tp.moves <- tp.moves + abs (target - tp.pos);
        tp.pos <- target;
        touch tp target
      end
  | _ ->
      while tp.pos < target do
        move tp Right
      done;
      while tp.pos > target do
        move tp Left
      done

let rewind tp = seek tp 0

let read_at tp pos =
  seek tp pos;
  read tp

let write_at tp pos x =
  seek tp pos;
  write tp x

let to_list tp = List.init tp.used (Device.get tp.dev)

let iter_right tp f =
  (* capture the content boundary first: moving right extends [used] *)
  let stop = tp.used in
  while tp.pos < stop do
    f (read tp);
    move tp Right
  done

(* A cell register: the first [len] bytes of [buf], as [codec] stored
   them. [src, src_pos, src_epoch] name the cell it was loaded from
   (tape id, position, that tape's epoch then); [src = -1] when it
   cannot be trusted to match the device: loaded through an injection
   hook, or not loaded at all. *)
type 'a register = {
  mutable codec : 'a Device.Codec.t;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable src : int;
  mutable src_pos : int;
  mutable src_epoch : int;
}

let register tp =
  let codec = Device.codec tp.dev in
  let buf = Bytes.create codec.Device.Codec.max_bytes in
  let len = codec.Device.Codec.write buf 0 tp.blank in
  { codec; buf; len; src = -1; src_pos = 0; src_epoch = 0 }

let[@inline] load tp r =
  match tp.injection with
  | Some _ ->
      (* the hook sees the value; the register takes what it answers,
         in a buffer grown if a made-up value does not fit the slots *)
      let codec = Device.codec tp.dev and v = read tp in
      let n = codec.Device.Codec.size v in
      if n > Bytes.length r.buf then r.buf <- Bytes.create n;
      r.len <- codec.Device.Codec.write r.buf 0 v;
      r.codec <- codec;
      r.src <- -1
  | None ->
      touch tp tp.pos;
      if r.src <> tp.id || r.src_pos <> tp.pos || r.src_epoch <> tp.epoch
      then begin
        let codec = Device.codec tp.dev in
        let grow = codec.Device.Codec.max_bytes - Bytes.length r.buf in
        if grow > 0 then r.buf <- Bytes.extend r.buf 0 grow;
        (* a device that raises does so before the register changes *)
        r.len <- Device.load tp.dev tp.pos r.buf;
        if r.codec != codec then r.codec <- codec;
        r.src <- tp.id;
        r.src_pos <- tp.pos;
        r.src_epoch <- tp.epoch
      end;
      tp.reads <- tp.reads + 1

let contents r = r.codec.Device.Codec.value r.buf 0 r.len

(* A hooked tape, or a tape of another codec, takes the value through
   [write]. *)
let[@inline] store tp r =
  match tp.injection with
  | None when Device.codec tp.dev == r.codec ->
      touch tp tp.pos;
      tp.epoch <- tp.epoch + 1;
      Device.store tp.dev tp.pos r.buf r.len;
      tp.writes <- tp.writes + 1
  | _ -> write tp (contents r)

let[@inline] copy_step src i dst j r =
  seek src i;
  load src r;
  seek dst j;
  store dst r

(* Cells [i, i + len) of [src] onto [j, j + len) of [dst] through [r],
   charged as a loop of [copy_step]s is. Between two unhooked tapes
   on different devices with one codec, the cells that cross no block
   on either tape are copied as whole slots, and their charges are
   added up:
   - cells 0 and 1 take the loop: only they can turn a head (and so
     check the scan budget); after cell 1 both heads move right;
   - a cell where either tape enters another block takes the loop, so
     every fetch, flush, read-ahead, line allocation and [Corrupt]
     happens in the same order on each device;
   - the cells between lie in the two blocks the last step resolved.
     The step's store made [dst]'s line dirty, so one blit of their
     slots (length, bytes and zero slack) stores them as [store] would;
   - a never-written source slot (length 0) ends the span, since
     [load] gives the blank's encoding for it, not its slot; so does an
     out-of-line slot on either tape (a mem cell too wide for its
     slot), whose bytes are not in the line, and the span runs only
     between devices with slots of one width;
   - [r] is left holding the span's last cell, as the loop would leave
     it, so a step that raises after a span leaves the loop's state. *)
let copy_run src i dst j len r =
  match (src.injection, dst.injection) with
  | None, None
    when Device.codec src.dev == Device.codec dst.dev
         && src.dev != dst.dev
         && Device.slot_bytes src.dev = Device.slot_bytes dst.dev ->
      let sb = Device.slot_bytes src.dev in
      let k = ref 0 in
      while !k < len do
        copy_step src (i + !k) dst (j + !k) r;
        if !k >= 1 && !k < len - 1 then begin
          let sv = Device.view src.dev (i + !k) and dv = Device.view dst.dev (j + !k) in
          let m = Int.min (Int.min sv.Device.vleft dv.Device.vleft - 1) (len - 1 - !k) in
          let soff = sv.Device.voff + sb in
          let doff = dv.Device.voff + sb in
          let n = ref 0 in
          while
            !n < m
            && (let l = Bytes.get_uint16_be sv.Device.vbuf (soff + (!n * sb)) in
                l <> 0 && l <= sb - 2)
            && Bytes.get_uint16_be dv.Device.vbuf (doff + (!n * sb)) <= sb - 2
          do
            incr n
          done;
          let n = !n in
          if n > 0 then begin
            Bytes.blit sv.Device.vbuf soff dv.Device.vbuf doff (n * sb);
            (* the step's load left [r] from [src] at this epoch *)
            let last = soff + ((n - 1) * sb) in
            r.len <- Bytes.get_uint16_be sv.Device.vbuf last;
            Bytes.blit sv.Device.vbuf (last + 2) r.buf 0 r.len;
            r.src_pos <- i + !k + n;
            src.moves <- src.moves + n;
            src.pos <- src.pos + n;
            src.reads <- src.reads + n;
            touch src src.pos;
            dst.moves <- dst.moves + n;
            dst.pos <- dst.pos + n;
            dst.writes <- dst.writes + n;
            dst.epoch <- dst.epoch + n;
            touch dst dst.pos;
            k := !k + n
          end
        end;
        incr k
      done
  | _ ->
      for k = 0 to len - 1 do
        copy_step src (i + k) dst (j + k) r
      done

(* Unsigned lexicographic order of [a[0..la)] and [b[0..lb)], from
   [i]: eight bytes at a time while both have them, then byte by byte.
   A big-endian word orders as its bytes do when read unsigned, and
   adding [min_int] turns the signed [int64] order into that one; the
   words stay unboxed. *)
let rec compare_tail a la b lb i =
  if i = la || i = lb then compare la lb
  else
    let c = Char.code (Bytes.unsafe_get a i) - Char.code (Bytes.unsafe_get b i) in
    if c <> 0 then c else compare_tail a la b lb (i + 1)

let rec compare_bytes a la b lb i =
  if i + 8 <= la && i + 8 <= lb then begin
    let x : int64 = Bytes.get_int64_be a i and y : int64 = Bytes.get_int64_be b i in
    if x = y then compare_bytes a la b lb (i + 8)
    else if Int64.add x Int64.min_int < Int64.add y Int64.min_int then -1
    else 1
  end
  else compare_tail a la b lb i

let[@inline] compare_registers a b =
  if a.codec != b.codec then
    invalid_arg "Tape.compare_registers: registers of two codecs";
  compare_bytes a.buf a.len b.buf b.len 0

module Group = struct
  type t = group_state

  type budget = { max_scans : int option; max_internal : int option }

  let unlimited = { max_scans = None; max_internal = None }

  let create ?(budget = unlimited) ?(device = Device.Mem) () =
    let meter = Meter.create () in
    meter.Meter.limit <- budget.max_internal;
    {
      members = [];
      g_meter = meter;
      max_scans = budget.max_scans;
      g_device = device;
    }

  let add_tape g tp =
    (match tp.group with
    | Some _ -> invalid_arg "Group.add_tape: tape already grouped"
    | None -> ());
    tp.group <- Some g;
    g.members <- Member tp :: g.members

  let tape g ?name ~codec ~blank () =
    let tp = make ?name g.g_device ~codec ~blank in
    add_tape g tp;
    tp

  (* reading [t.injector] first types [t] as a tape *)
  let sibling g t ~name =
    let maker = t.injector in
    let tp = tape g ~name ~codec:(Device.codec t.dev) ~blank:t.blank () in
    set_injection tp maker;
    tp

  let tape_of_list g ?name ~codec ~blank items =
    let tp = tape g ?name ~codec ~blank () in
    preload tp items;
    tp

  let close_all g = List.iter (fun (Member tp) -> Device.close tp.dev) g.members

  let device_stats g =
    List.fold_left
      (fun acc (Member tp) ->
        let s = Device.stats tp.dev in
        Device.
          {
            resident_bytes = acc.resident_bytes + s.resident_bytes;
            io_read_bytes = acc.io_read_bytes + s.io_read_bytes;
            io_write_bytes = acc.io_write_bytes + s.io_write_bytes;
            backing_files = acc.backing_files + s.backing_files;
          })
      Device.zero_stats g.members

  let meter g = g.g_meter
  let total_reversals = total_group_reversals
  let scans g = 1 + total_reversals g
  let internal_peak g = Meter.peak g.g_meter

  type tape_stats = {
    tape : string;
    reversals : int;
    cells : int;
    head_moves : int;
    reads : int;
    writes : int;
    faults : int;
  }

  type report = {
    scans_used : int;
    tapes : tape_stats list;
    internal_peak_units : int;
  }

  let faults_injected g =
    List.fold_left (fun acc (Member tp) -> acc + tp.faults) 0 g.members

  let stats_of (Member tp) =
    {
      tape = tp.name;
      reversals = tp.revs;
      cells = tp.used;
      head_moves = tp.moves;
      reads = tp.reads;
      writes = tp.writes;
      faults = tp.faults;
    }

  let report g =
    {
      scans_used = scans g;
      tapes = List.rev_map stats_of g.members;
      internal_peak_units = internal_peak g;
    }
end
