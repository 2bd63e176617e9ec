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
    mutable fail_fast : bool;
    mutable overruns : int;
  }

  let create () =
    { current = 0; peak = 0; limit = None; fail_fast = true; overruns = 0 }

  let alloc m n =
    if n < 0 then invalid_arg "Meter.alloc: negative";
    m.current <- m.current + n;
    if m.current > m.peak then begin
      m.peak <- m.current;
      match m.limit with
      | Some lim when m.peak > lim ->
          if m.fail_fast then
            raise
              (Budget_exceeded
                 (Printf.sprintf "internal memory: peak %d > budget %d" m.peak lim))
          else m.overruns <- m.overruns + 1
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
  let overruns m = m.overruns
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

module Observer = struct
  type t = {
    on_read : pos:int -> unit;
    on_write : pos:int -> unit;
    on_move : pos:int -> direction -> unit;
  }
end

(* A group member of any cell type: the group reads its counters and
   drives its device directly. *)
type member = Member : 'a t -> member

and group_state = {
  mutable members : member list; (* reversed registration order *)
  g_meter : Meter.t;
  max_scans : int option;
  mutable g_fail_fast : bool;
  mutable scan_overruns : int;
  mutable g_observer : (string -> Observer.t) option;
  g_device : Device.spec;
}

and 'a t = {
  name : string;
  blank : 'a;
  dev : 'a Device.t;
  mutable used : int; (* highest position visited or written, plus one *)
  mutable pos : int;
  mutable dir : direction;
  mutable revs : int;
  mutable moves : int;
  mutable reads : int;
  mutable writes : int;
  mutable group : group_state option;
  mutable injection : 'a Injection.t option;
  mutable faults : int;
  mutable observer : Observer.t option;
}

(* atomic: tapes are created from several domains at once under the
   parallel harness, and a plain ref would race *)
let fresh_counter = Atomic.make 0

let create ?name ?device ~blank () =
  let id = Atomic.fetch_and_add fresh_counter 1 + 1 in
  let name = match name with Some n -> n | None -> Printf.sprintf "tape%d" id
  in
  let dev = match device with Some d -> d | None -> Device.mem ~blank in
  {
    name;
    blank;
    dev;
    used = 0;
    pos = 0;
    dir = Right;
    revs = 0;
    moves = 0;
    reads = 0;
    writes = 0;
    group = None;
    injection = None;
    faults = 0;
    observer = None;
  }

let touch tp pos = if pos >= tp.used then tp.used <- pos + 1

(* Device-level fill: no head movement, no reversal, no counted write,
   no observer or injection traffic — the cost-free "the input is
   already on the tape" premise every experiment starts from, at any
   backend. *)
let preload_seq tp items =
  Seq.iteri
    (fun i x ->
      touch tp i;
      Device.set tp.dev i x)
    items

let preload tp items = preload_seq tp (List.to_seq items)

let of_list ?name ?device ~blank items =
  let tp = create ?name ?device ~blank () in
  preload tp items;
  tp

let name tp = tp.name
let blank tp = tp.blank
let device_kind tp = Device.kind tp.dev
let device_stats tp = Device.stats tp.dev
let sync tp = Device.sync tp.dev
let close tp = Device.close tp.dev

let set_injection tp h = tp.injection <- h
let faults tp = tp.faults
let set_observer tp o = tp.observer <- o

(* Reads, writes and moves are counted (and shown to an observer) only
   once the operation has completed: an operation aborted by an
   injected fault is re-counted when its phase retries, so these counts
   are as honest as the reversal accounting. *)
let count_read tp =
  tp.reads <- tp.reads + 1;
  match tp.observer with None -> () | Some o -> o.Observer.on_read ~pos:tp.pos

let count_write tp =
  tp.writes <- tp.writes + 1;
  match tp.observer with None -> () | Some o -> o.Observer.on_write ~pos:tp.pos

let count_move tp dir =
  tp.moves <- tp.moves + 1;
  match tp.observer with
  | None -> ()
  | Some o -> o.Observer.on_move ~pos:tp.pos dir

let read tp =
  touch tp tp.pos;
  let v = Device.get tp.dev tp.pos in
  match tp.injection with
  | None ->
      count_read tp;
      v
  | Some h -> (
      match h.Injection.on_read ~pos:tp.pos v with
      | Injection.Read_ok ->
          count_read tp;
          v
      | Injection.Read_value v' ->
          (* silent read corruption: the cell itself is untouched *)
          tp.faults <- tp.faults + 1;
          count_read tp;
          v'
      | Injection.Read_fail e ->
          tp.faults <- tp.faults + 1;
          raise e)

let write tp x =
  touch tp tp.pos;
  match tp.injection with
  | None ->
      Device.set tp.dev tp.pos x;
      count_write tp
  | Some h -> (
      match h.Injection.on_write ~pos:tp.pos x with
      | Injection.Write_ok ->
          Device.set tp.dev tp.pos x;
          count_write tp
      | Injection.Write_value x' ->
          tp.faults <- tp.faults + 1;
          Device.set tp.dev tp.pos x';
          count_write tp
      | Injection.Write_drop ->
          (* torn write: the old cell content survives *)
          tp.faults <- tp.faults + 1;
          count_write tp
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
            if g.g_fail_fast then
              raise
                (Budget_exceeded
                   (Printf.sprintf "scans: %d > budget %d (reversal on %s)" scans
                      lim tp.name))
            else g.scan_overruns <- g.scan_overruns + 1)

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
  count_move tp dir

let position tp = tp.pos
let head_direction tp = tp.dir
let at_left_end tp = tp.pos = 0
let reversals tp = tp.revs
let cells_used tp = tp.used
let head_moves tp = tp.moves
let reads tp = tp.reads
let writes tp = tp.writes

(* Invariant: a head already at position 0 — in particular the initial
   head, still moving Right — issues no move, so rewinding it charges no
   reversal and leaves the direction untouched.

   Fast path: with no injection hook and no observer installed, nobody
   is entitled to see the individual [move Left] steps, so the seek is
   constant-time. It replicates the per-cell loop's accounting exactly,
   including the failure state: the loop's first leftward move charges
   the reversal and checks the scan budget BEFORE the position changes,
   so on [Budget_exceeded] the head must still be at its old position
   with [dir = Left], the reversal recorded and no move counted. A
   hooked tape takes the loop so fault plans and observers still see
   every step. *)
let rewind tp =
  if tp.pos > 0 then
    match (tp.injection, tp.observer) with
    | None, None ->
        if tp.dir <> Left then begin
          tp.revs <- tp.revs + 1;
          tp.dir <- Left;
          check_scan_budget tp
        end;
        tp.moves <- tp.moves + tp.pos;
        tp.pos <- 0
    | _ ->
        while tp.pos > 0 do
          move tp Left
        done

let seek tp target =
  while tp.pos < target do
    move tp Right
  done;
  while tp.pos > target do
    move tp Left
  done

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

let tape_create = create

module Group = struct
  type t = group_state

  type budget = { max_scans : int option; max_internal : int option }

  let unlimited = { max_scans = None; max_internal = None }

  let create ?(fail_fast = true) ?(budget = unlimited) ?(device = Device.Mem) ()
      =
    let meter = Meter.create () in
    meter.Meter.limit <- budget.max_internal;
    meter.Meter.fail_fast <- fail_fast;
    {
      members = [];
      g_meter = meter;
      max_scans = budget.max_scans;
      g_fail_fast = fail_fast;
      scan_overruns = 0;
      g_observer = None;
      g_device = device;
    }

  let device g = g.g_device

  let add_tape g tp =
    (match tp.group with
    | Some _ -> invalid_arg "Group.add_tape: tape already grouped"
    | None -> ());
    tp.group <- Some g;
    (match g.g_observer with
    | None -> ()
    | Some factory -> tp.observer <- Some (factory tp.name));
    g.members <- Member tp :: g.members

  let set_observer g factory =
    g.g_observer <- factory;
    List.iter
      (fun (Member tp) -> tp.observer <- Option.map (fun f -> f tp.name) factory)
      g.members

  (* A codec opts the tape into the group's device spec; without one the
     cell type has no byte format, so the tape stays in RAM. *)
  let tape g ?name ?codec ~blank () =
    let tp =
      match (g.g_device, codec) with
      | Device.Mem, _ | _, None -> tape_create ?name ~blank ()
      | spec, Some codec ->
          let id = Atomic.fetch_and_add fresh_counter 1 + 1 in
          let name =
            match name with Some n -> n | None -> Printf.sprintf "tape%d" id
          in
          let dev = Device.instantiate ~codec spec ~blank ~name in
          tape_create ~name ~device:dev ~blank ()
    in
    add_tape g tp;
    tp

  let tape_of_list g ?name ?codec ~blank items =
    let tp = tape g ?name ?codec ~blank () in
    preload tp items;
    tp

  let sync_all g = List.iter (fun (Member tp) -> Device.sync tp.dev) g.members

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
    budget_overruns : int;
  }

  let faults_injected g =
    List.fold_left (fun acc (Member tp) -> acc + tp.faults) 0 g.members

  let budget_overruns g = g.scan_overruns + Meter.overruns g.g_meter

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
      budget_overruns = budget_overruns g;
    }
end
