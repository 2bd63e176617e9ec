type tape_stats = Tape.Group.tape_stats = {
  tape : string;
  reversals : int;
  cells : int;
  head_moves : int;
  reads : int;
  writes : int;
  faults : int;
}

type t = {
  label : string;
  n : int;
  scans : int;
  reversals : int;
  internal_peak : int;
  budget_overruns : int;
  faults_injected : int;
  tapes : tape_stats list;
  counters : Counters.snapshot;
}

let tape_count l = List.length l.tapes

let sum_by f l = List.fold_left (fun acc ts -> acc + f ts) 0 l.tapes

let head_moves l = sum_by (fun ts -> ts.head_moves) l
let reads l = sum_by (fun ts -> ts.reads) l
let writes l = sum_by (fun ts -> ts.writes) l

let pp ppf l =
  Format.fprintf ppf
    "@[<v>ledger %s (N=%d)@,\
     scans: %d  reversals: %d  internal peak: %d@,\
     tapes: %d  head moves: %d  reads: %d  writes: %d@]" l.label l.n l.scans
    l.reversals l.internal_peak (tape_count l) (head_moves l) (reads l)
    (writes l);
  if l.faults_injected > 0 then
    Format.fprintf ppf "@,faults injected: %d" l.faults_injected;
  if l.budget_overruns > 0 then
    Format.fprintf ppf "@,budget overruns: %d" l.budget_overruns

module Recorder = struct
  type t = {
    r_label : string;
    mutable groups : Tape.Group.t list; (* reversed observe order *)
    baseline : Counters.snapshot;
  }

  let create ?(label = "run") () =
    { r_label = label; groups = []; baseline = Counters.snapshot () }

  let observe r g = r.groups <- g :: r.groups

  let ledger ?(n = 0) r =
    let reports = List.rev_map Tape.Group.report r.groups in
    let tapes = List.concat_map (fun rep -> rep.Tape.Group.tapes) reports in
    let reversals =
      List.fold_left (fun acc (ts : tape_stats) -> acc + ts.reversals) 0 tapes
    in
    {
      label = r.r_label;
      n;
      scans = 1 + reversals;
      reversals;
      internal_peak =
        List.fold_left
          (fun acc rep -> max acc rep.Tape.Group.internal_peak_units)
          0 reports;
      budget_overruns =
        List.fold_left
          (fun acc rep -> acc + rep.Tape.Group.budget_overruns)
          0 reports;
      faults_injected =
        List.fold_left (fun acc (ts : tape_stats) -> acc + ts.faults) 0 tapes;
      tapes;
      counters = Counters.diff (Counters.snapshot ()) ~since:r.baseline;
    }

  (* Summed device stats over every observed group — how much backing
     I/O and cache residency the run's tapes cost. Kept out of the
     ledger record so the trace schema (and its pinned goldens) is
     unchanged; E18 emits these through [Trace.emit_device]. *)
  let device_stats r =
    List.fold_left
      (fun acc g ->
        let s = Tape.Group.device_stats g in
        Tape.Device.
          {
            resident_bytes = acc.resident_bytes + s.resident_bytes;
            io_read_bytes = acc.io_read_bytes + s.io_read_bytes;
            io_write_bytes = acc.io_write_bytes + s.io_write_bytes;
            backing_files = acc.backing_files + s.backing_files;
          })
      Tape.Device.zero_stats r.groups
end
