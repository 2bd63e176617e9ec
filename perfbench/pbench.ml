(* Workload driver of the repository benchmark (see README.md in this
   directory). One process runs one workload for a given time, checks
   every output it gets, and prints one JSON line with its metrics.

   The driver only calls the libraries' public functions. Per-layer
   numbers come from timing those calls from the outside: spans wrap
   each call, a timing [Tape.Device.raw_factory] wraps the syscalls,
   and ledger recorders count the tape model costs. No library code is
   changed to measure it.

   Usage (normally through perfbench/run.py, which builds this binary,
   makes the work directory and cleans up after it):

     pbench.exe --workload NAME --seed N --seconds S --trace 0|1
                --workdir DIR --out DIR --stlb PATH [--clk-tck N] [--quick] *)

module I = Problems.Instance
module G = Problems.Generators
module D = Problems.Decide
module Dev = Tape.Device
module F = Serve.Frame
module L = Obs.Ledger

let now () = Monotonic_clock.now ()
let s_of_ns d = Int64.to_float d /. 1e9
let since t0 = s_of_ns (Int64.sub (now ()) t0)

(* ------------------------------------------------------------------ *)
(* arguments                                                           *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  workdir : string;
  out : string;
  stlb : string;
  clk_tck : int;
}

let usage () =
  prerr_endline
    "usage: pbench.exe --workload extsort-file|census-m64|serve-small --seed N \
     --seconds S --trace 0|1 --workdir DIR --out DIR --stlb PATH [--clk-tck N] \
     [--quick]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let quick = ref false in
  let rec go = function
    | "--quick" :: rest ->
        quick := true;
        go rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl k v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds;
    trace =
      (match get "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    quick = !quick;
    workdir = get "--workdir";
    out = get "--out";
    stlb = get "--stlb";
    clk_tck =
      (match Hashtbl.find_opt tbl "--clk-tck" with
      | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> usage ())
      | None -> 100);
  }

(* ------------------------------------------------------------------ *)
(* checks, counts and metrics                                          *)

let attempted = ref 0
let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun s ->
      failures := s :: !failures;
      prerr_endline ("pbench: check failed: " ^ s))
    fmt

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then fail "%s" s) fmt

(* Exact counts: the first value seen for a key is the reference, and
   any later different value is a failed check. run.py compares the
   final set against earlier runs of the same seed. *)
let counts : (string * string) list ref = ref []

let count key v =
  match List.assoc_opt key !counts with
  | None -> counts := (key, v) :: !counts
  | Some v0 -> check (v0 = v) "count %s drifted: %s, then %s" key v0 v

let count_int key n = count key (string_of_int n)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("ops_per_s", "1/s");
  ]

let per_layer =
  [
    ("raw.pread_calls", "count");
    ("raw.pwrite_calls", "count");
    ("raw.fsync_calls", "count");
    ("raw.busy_s", "s");
    ("device.io_read_mb", "MB");
    ("device.io_write_mb", "MB");
    ("device.io_per_input_byte", "ratio");
    ("device.overhead_s", "s");
    ("extsort.file_s", "s");
    ("fingerprint.file_s", "s");
    ("extsort.mem_s", "s");
    ("fingerprint.mem_s", "s");
    ("tape.scans", "count");
    ("tape.reversals", "count");
    ("tape.head_moves", "count");
    ("tape.cell_reads", "count");
    ("tape.cell_writes", "count");
    ("tape.count", "count");
    ("tape.internal_peak", "count");
    ("tape.wall_per_scan_ms", "ms");
    ("plan.build_s", "s");
    ("nlm.run_view_s", "s");
    ("nlm.steps", "count");
    ("skeleton.of_views_s", "s");
    ("skeleton.digest_s", "s");
    ("adversary.collect_s", "s");
    ("adversary.merge_s", "s");
    ("census.machine_runs", "count");
    ("census.canonical_hits", "count");
    ("census.classes", "count");
    ("census.canonical_hit_ratio", "ratio");
    ("frame.encode_us", "us");
    ("frame.decode_us", "us");
    ("decide.fingerprint_us", "us");
    ("decide.sort_us", "us");
    ("decide.nst_us", "us");
    ("serve.overhead_us", "us");
    ("server.cpu_us_per_req", "us");
    ("server.shed", "count");
    ("server.errors", "count");
    ("server.max_queue", "count");
    ("server.bytes_in", "B/req");
    ("server.bytes_out", "B/req");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.allocated_mb", "MB");
    ("counters.retry_attempts", "count");
    ("counters.corrupt_detected", "count");
    ("host.probe_ms", "ms");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set k v = Hashtbl.replace values k v

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest of p99, p90 and p50 with at least ten samples beyond it,
   else p50: a percentile with fewer samples beyond it is one or two
   outliers, not a tail. serve-small's ~400k requests give p99; the
   batch workloads' 10-25 ops give p50. *)
let tail_percentile sorted =
  let n = Array.length sorted in
  let beyond q = n - int_of_float (ceil (q *. float_of_int n)) in
  let q = Option.value ~default:0.5 (List.find_opt (fun q -> beyond q >= 10) [ 0.99; 0.9; 0.5 ]) in
  (q, percentile sorted q)

(* Per-iteration samples of named values; the reported value is the
   median over iterations. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample k v =
  Hashtbl.replace samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples k))

let set_medians () =
  Hashtbl.iter (fun k vs -> set k (median vs)) samples

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

module Span = struct
  type t = {
    id : int;
    parent : int;
    iter : int;
    name : string;
    t0 : int64;
    mutable t1 : int64;
  }

  let on = ref false
  let recorded : t list ref = ref []
  let next_id = ref 0
  let current = ref (-1)
  let iter = ref 0

  (* [timed name f] runs [f] and returns its result with its wall in
     seconds; with tracing on it also records the span. *)
  let timed name f =
    let t0 = now () in
    if not !on then
      let r = f () in
      (r, since t0)
    else begin
      let s = { id = !next_id; parent = !current; iter = !iter; name; t0; t1 = t0 } in
      incr next_id;
      let saved = !current in
      current := s.id;
      let finish () =
        s.t1 <- now ();
        current := saved;
        recorded := s :: !recorded
      in
      match f () with
      | r ->
          finish ();
          (r, s_of_ns (Int64.sub s.t1 s.t0))
      | exception e ->
          finish ();
          raise e
    end

  let record name f = fst (timed name f)
  let dur s = Int64.sub s.t1 s.t0

  (* Self time per span name (total over the run) and, per iteration,
     the share of the "iteration" span no named child covers. *)
  let summarize () =
    let children = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (Int64.add (dur s)
               (Option.value ~default:0L (Hashtbl.find_opt children s.parent))))
      !recorded;
    let self = Hashtbl.create 32 in
    let unattributed = ref [] in
    List.iter
      (fun s ->
        let covered = Option.value ~default:0L (Hashtbl.find_opt children s.id) in
        let own = s_of_ns (Int64.sub (dur s) covered) in
        let total, n =
          Option.value ~default:(0.0, 0) (Hashtbl.find_opt self s.name)
        in
        Hashtbl.replace self s.name (total +. own, n + 1);
        if s.name = "iteration" && dur s > 0L then
          unattributed :=
            (Int64.to_float (Int64.sub (dur s) covered) /. Int64.to_float (dur s))
            :: !unattributed)
      !recorded;
    (self, !unattributed)

  let write path =
    let oc = open_out path in
    let base = List.fold_left (fun b s -> min b s.t0) Int64.max_int !recorded in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"iter\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
          s.id s.parent s.iter s.name (Int64.sub s.t0 base) (Int64.sub s.t1 base))
      (List.rev !recorded);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* process and GC probes                                               *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM of a process, in MB (10^6 bytes) *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' '
         (String.trim (String.sub line 6 (String.length line - 6))))
  in
  float_of_int (Option.get kb) *. 1024.0 /. 1e6

(* The driver's own peak RSS is read after set-up and the first
   [rss_ops] ops. Every op repeats the same work, and a fixed count keeps
   the figure from depending on how many ops fit into the run. *)
let rss_ops = 3
let own_peak = ref None

let note_own_peak k =
  if k + 1 = rss_ops then own_peak := Some (peak_rss_mb "self")

let own_peak_rss () =
  match !own_peak with Some v -> v | None -> peak_rss_mb "self"

(* utime + stime of a process, in clock ticks *)
let cpu_ticks pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let from = String.rindex stat ')' + 2 in
  (* fields after the command name, starting at field 3; utime and
     stime are fields 14 and 15 *)
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat from (String.length stat - from))) in
  int_of_string f.(14 - 3) + int_of_string f.(15 - 3)

type gc_snap = { minor : int; major : int; alloc : float }

let gc_snap () =
  let q = Gc.quick_stat () in
  {
    minor = q.Gc.minor_collections;
    major = q.Gc.major_collections;
    alloc = Gc.allocated_bytes ();
  }

let sample_gc g0 g1 =
  sample "gc.minor_collections" (float_of_int (g1.minor - g0.minor));
  sample "gc.major_collections" (float_of_int (g1.major - g0.major));
  sample "gc.allocated_mb" ((g1.alloc -. g0.alloc) /. 1e6)

let sample_counters (c0 : Obs.Counters.snapshot) (c1 : Obs.Counters.snapshot) =
  let d = Obs.Counters.diff c1 ~since:c0 in
  sample "counters.retry_attempts" (float_of_int d.Obs.Counters.retry_attempts);
  sample "counters.corrupt_detected"
    (float_of_int d.Obs.Counters.device_corrupt_detected);
  check
    (d.Obs.Counters.retry_attempts = 0 && d.Obs.Counters.device_corrupt_detected = 0)
    "retries (%d) or corrupt blocks (%d) during a fault-free run"
    d.Obs.Counters.retry_attempts d.Obs.Counters.device_corrupt_detected

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  try Unix.mkdir path 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* run structure                                                       *)

(* Host speed probe. The benchmark runs on shared machines whose speed
   drifts by up to 2.5x over minutes (other tenants load the shared L3
   and memory): the same census took 0.94 s in one run and 1.76 s in
   another. A fixed kernel owned by the benchmark - a full major GC over
   a fixed live heap, an in-place sort, a 16 MB strided scan, hash-table
   updates and short-lived allocation - is timed before and after the
   measured work and every second in between. Each reported end-to-end
   time is scaled by [probe_reference_s / median of the nearby probes]
   (see [run_for]): the wall it would have taken on a host where the
   probe takes 80 ms (the 2-vCPU Xeon VM this was tuned on, at its usual
   speed). Over ten runs per workload the spread (IQR over median) of
   the op medians fell from 0.12 raw to 0.07 scaled on census-m64 and
   from 0.23 to 0.02 on serve-small.

   The kernel runs in a child process (this executable with --probe),
   one probe at a time while the workload waits, so its memory and GC
   state never mix with the workload's heap or peak RSS. *)
let probe_reference_s = 0.080

let probe_kernel () =
  let a = Array.init (1 lsl 16) (fun i -> (i * 7919) land 0xFFFF) in
  let big = Array.make (2 * 1024 * 1024) 1 in
  let h = Hashtbl.create 65536 in
  for i = 0 to 32767 do
    Hashtbl.replace h i i
  done;
  (* a live heap of small linked records, so a full major GC marks and
     sweeps ~24 MB by pointer chasing, as the workloads' GCs do *)
  let live = Array.init 32 (fun j -> List.init 16_384 (fun i -> (i, j))) in
  fun () ->
    ignore (Sys.opaque_identity live);
    Gc.full_major ();
    for i = 0 to Array.length a - 1 do
      a.(i) <- (i * 7919) land 0xFFFF
    done;
    Array.sort Int.compare a;
    let s = ref 0 in
    for _ = 1 to 2 do
      let i = ref 0 in
      while !i < Array.length big do
        s := !s + big.(!i);
        i := !i + 8
      done
    done;
    for i = 0 to 32767 do
      Hashtbl.replace h i (Hashtbl.find h ((i * 31) land 32767) + 1)
    done;
    for _ = 1 to 500 do
      s := !s + List.length (List.init 100 (fun i -> (i, i)))
    done;
    ignore (Sys.opaque_identity !s)

(* the --probe child: one timed kernel run per input line *)
let probe_child () =
  let run = probe_kernel () in
  try
    while true do
      ignore (input_line stdin);
      let t0 = now () in
      run ();
      Printf.printf "%.9f\n%!" (since t0)
    done
  with End_of_file -> exit 0

let probe_proc = ref None

let probe_channels () =
  match !probe_proc with
  | Some chans -> chans
  | None ->
      let chans =
        Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--probe" |]
      in
      probe_proc := Some chans;
      at_exit (fun () ->
          probe_proc := None;
          try ignore (Unix.close_process chans) with _ -> ());
      chans

let probes = ref []
let last_probe = ref 0L

let probe () =
  let ic, oc = probe_channels () in
  output_string oc "probe\n";
  flush oc;
  probes := float_of_string (input_line ic) :: !probes;
  last_probe := now ()

(* the factor scaling a wall measured between two probes *)
let scale_between p q = probe_reference_s /. ((p +. q) /. 2.0)
let last_probe_s () = List.hd !probes

let setup_reps = 3
let setup_walls = ref []

(* Run [setup] [setup_reps] times between probes, keep the scaled walls
   for setup_s and the last result. *)
let repeated_setup setup =
  let last = ref None in
  probe ();
  for _ = 1 to setup_reps do
    let p = last_probe_s () and t0 = now () in
    let r = setup () in
    let wall = since t0 in
    probe ();
    setup_walls := (wall *. scale_between p (last_probe_s ())) :: !setup_walls;
    last := Some r
  done;
  Option.get !last

type phase = {
  scaled : float list;  (** op walls scaled to the reference host *)
  raw : float list;  (** op walls as measured *)
  elapsed : float;  (** scaled loop time, probes excluded *)
}

(* Call [f k] for k = 0, 1, ... until [seconds] have passed (and at
   least [min_calls] times); each call returns the walls of its
   operations in seconds. A probe runs at the start, whenever a second
   has passed, and at the end. The calls between two probes are scaled
   by the median of the four nearest probes: the two around them and one
   more on each side, as single probes vary by up to 15% from one second
   to the next. Returns (k, scaled walls, raw walls, scaled call wall)
   per call. *)
let run_for ?(min_calls = 1) seconds f =
  let t0 = now () and first = List.length !probes in
  probe ();
  let calls = ref [] in
  let rec go k =
    let before = List.length !probes - 1 and c0 = now () in
    let ops = f k in
    calls := (k, before, ops, since c0) :: !calls;
    if since t0 >= seconds && k + 1 >= min_calls then probe ()
    else begin
      if since !last_probe > 1.0 then probe ();
      go (k + 1)
    end
  in
  go 0;
  let ps = Array.of_list (List.rev !probes) in
  let scale j =
    let lo = max first (j - 1) and hi = min (Array.length ps - 1) (j + 2) in
    probe_reference_s /. median (Array.to_list (Array.sub ps lo (hi - lo + 1)))
  in
  List.rev_map
    (fun (k, j, ops, wall) ->
      let s = scale j in
      (k, List.map (fun o -> o *. s) ops, ops, wall *. s))
    !calls

let phase_of calls =
  {
    scaled = List.concat_map (fun (_, s, _, _) -> s) calls;
    raw = List.concat_map (fun (_, _, r, _) -> r) calls;
    elapsed = List.fold_left (fun acc (_, _, _, w) -> acc +. w) 0.0 calls;
  }

let run_plain seconds f = phase_of (run_for seconds f)

(* A traced run alternates untraced and traced calls, so the tracing
   overhead is measured in one process under the same host conditions.
   Spans are recorded only in the traced calls, numbered k / 2. Returns
   the untraced phase. *)
let run_traced seconds ~plain ~traced =
  let calls =
    run_for ~min_calls:2 seconds (fun k ->
        if k mod 2 = 0 then plain k
        else begin
          Span.on := true;
          Span.iter := k / 2;
          Fun.protect ~finally:(fun () -> Span.on := false) (fun () -> traced (k / 2))
        end)
  in
  let u, t = List.partition (fun (k, _, _, _) -> k mod 2 = 0) calls in
  let u = phase_of u and t = phase_of t in
  set "trace.overhead_pct" ((median t.scaled /. median u.scaled -. 1.0) *. 100.0);
  set "host.probe_ms" (median !probes *. 1e3);
  u

let set_end_to_end ~peak_rss ph =
  let a = Array.of_list ph.scaled in
  Array.sort compare a;
  set "setup_s" (median !setup_walls);
  set "peak_rss_mb" peak_rss;
  set "op_p50_ms" (median ph.scaled *. 1e3);
  let q, tail = tail_percentile a in
  set "op_tail_ms" (tail *. 1e3);
  set "ops_per_s" (float_of_int (Array.length a) /. ph.elapsed);
  let r = Array.of_list ph.raw in
  Array.sort compare r;
  Printf.printf
    "measured: %d ops, median %.6f s, p%.0f %.6f s as measured; host probe \
     median %.6f s over %d probes\n"
    (Array.length r) (median ph.raw) (q *. 100.0) (percentile r q) (median !probes)
    (List.length !probes)

(* ------------------------------------------------------------------ *)
(* extsort-file: both MULTISET-EQ deciders on the file device           *)

type raw_tally = {
  mutable preads : int;
  mutable pwrites : int;
  mutable fsyncs : int;
  mutable removes : int;
  mutable busy_ns : int64;
}

let tally = { preads = 0; pwrites = 0; fsyncs = 0; removes = 0; busy_ns = 0L }

(* The real syscalls, each counted, timed and recorded as a span. *)
let timed_raw : Dev.raw_factory =
 fun ~name:_ ->
  let r = Dev.Raw.real in
  let time name f =
    let t0 = now () in
    let v = Span.record name f in
    tally.busy_ns <- Int64.add tally.busy_ns (Int64.sub (now ()) t0);
    v
  in
  {
    r with
    Dev.Raw.pread =
      (fun fd b ~pos ~len ~off ->
        tally.preads <- tally.preads + 1;
        time "raw.pread" (fun () -> r.Dev.Raw.pread fd b ~pos ~len ~off));
    pwrite =
      (fun fd b ~pos ~len ~off ->
        tally.pwrites <- tally.pwrites + 1;
        time "raw.pwrite" (fun () -> r.Dev.Raw.pwrite fd b ~pos ~len ~off));
    fsync =
      (fun fd ->
        tally.fsyncs <- tally.fsyncs + 1;
        time "raw.fsync" (fun () -> r.Dev.Raw.fsync fd));
    remove =
      (fun path ->
        tally.removes <- tally.removes + 1;
        time "raw.remove" (fun () -> r.Dev.Raw.remove path));
  }

let extsort_file a =
  (* E18's shapes at N ~ 1.5e6: the merge-sort rows many short strings,
     the fingerprint rows few long ones (its field size k = m^3 n log
     must fit a native int, so m stays at 1000). *)
  let target = if a.quick then 10_000 else 1_500_000 in
  let n = 10 in
  let m = target / (2 * (n + 1)) in
  let m_fp = max 2 (min 1000 m) in
  let n_fp = max 1 ((target / (2 * m_fp)) - 1) in
  let spill = Filename.concat a.workdir "spill" in
  let no, yes =
    repeated_setup (fun () ->
        let st = Parallel.Rng.state ~seed:a.seed ~index:0 in
        let no = G.no_instance st D.Multiset_equality ~m ~n in
        let yes = G.yes_instance st D.Multiset_equality ~m:m_fp ~n:n_fp in
        mkdir_p spill;
        (no, yes))
  in
  at_exit (fun () -> remove_tree spill);
  let file ?raw () =
    Dev.file_spec ~block_bytes:(1 lsl 16) ~cache_blocks:16 ?raw spill
  in
  let sort ?obs device = Extsort.multiset_equality ?obs ~device no in
  let fp ?obs device =
    let v, rep, _ =
      Fingerprint.run ?obs ~device (Parallel.Rng.state ~seed:a.seed ~index:1) yes
    in
    (v, rep)
  in
  let check_verdicts vs vf =
    attempted := !attempted + 2;
    check (not vs) "merge-sort decider answered YES on a NO-instance";
    check vf "fingerprint decider answered NO on a YES-instance"
  in
  let count_reports (rs : Extsort.report) (rf : Fingerprint.report) =
    count_int "sort.scans" rs.Extsort.scans;
    count_int "sort.register_peak" rs.Extsort.register_peak;
    count_int "sort.tapes" rs.Extsort.tapes;
    count_int "fingerprint.scans" rf.Fingerprint.scans;
    count_int "fingerprint.internal_bits" rf.Fingerprint.internal_bits;
    count_int "fingerprint.tapes" rf.Fingerprint.tapes
  in
  let spill_clean () =
    match Sys.readdir spill with
    | [||] -> ()
    | files ->
        fail "%d orphan spill file(s) after an iteration" (Array.length files);
        Array.iter (fun f -> remove_tree (Filename.concat spill f)) files
  in
  let plain_iteration k =
    let (vs, rs), ts = Span.timed "sort.file" (fun () -> sort (file ())) in
    let (vf, rf), tf = Span.timed "fingerprint.file" (fun () -> fp (file ())) in
    note_own_peak k;
    check_verdicts vs vf;
    count_reports rs rf;
    spill_clean ();
    [ ts +. tf ]
  in
  let mem_parity () =
    (* E18's backend parity: the model costs are measured above the
       device seam, so the mem backend must report the same ones *)
    let vs, rs = sort Dev.Mem and vf, rf = fp Dev.Mem in
    check_verdicts vs vf;
    count_reports rs rf
  in
  if not a.trace then begin
    let run = run_plain a.seconds plain_iteration in
    set_end_to_end ~peak_rss:(own_peak_rss ()) run;
    mem_parity ()
  end
  else begin
    let traced_iteration _ =
      Span.record "iteration" @@ fun () ->
      let g0 = gc_snap () and c0 = Obs.Counters.snapshot () in
      let p0 = tally.preads and w0 = tally.pwrites and f0 = tally.fsyncs
      and rm0 = tally.removes and b0 = tally.busy_ns in
      let r_sf = L.Recorder.create () and r_ff = L.Recorder.create () in
      let (vs, rs), ts =
        Span.timed "sort.file" (fun () -> sort ~obs:r_sf (file ~raw:timed_raw ()))
      in
      let (vf, rf), tf =
        Span.timed "fingerprint.file" (fun () -> fp ~obs:r_ff (file ~raw:timed_raw ()))
      in
      let g1 = gc_snap () and c1 = Obs.Counters.snapshot () in
      let r_sm = L.Recorder.create () and r_fm = L.Recorder.create () in
      let (vsm, _), tsm = Span.timed "sort.mem" (fun () -> sort ~obs:r_sm Dev.Mem) in
      let (vfm, _), tfm = Span.timed "fingerprint.mem" (fun () -> fp ~obs:r_fm Dev.Mem) in
      Span.record "check" (fun () ->
          check_verdicts vs vf;
          check_verdicts vsm vfm;
          count_reports rs rf;
          let lsf = L.Recorder.ledger r_sf and lff = L.Recorder.ledger r_ff in
          let lsm = L.Recorder.ledger r_sm and lfm = L.Recorder.ledger r_fm in
          List.iter
            (fun (what, (lf : L.t), (lm : L.t)) ->
              check
                (lf.L.scans = lm.L.scans && lf.L.internal_peak = lm.L.internal_peak)
                "%s: file and mem disagree on scans (%d/%d) or internal peak (%d/%d)"
                what lf.L.scans lm.L.scans lf.L.internal_peak lm.L.internal_peak)
            [ ("merge sort", lsf, lsm); ("fingerprint", lff, lfm) ];
          let ds = L.Recorder.device_stats r_sf and dsf = L.Recorder.device_stats r_ff in
          (* the file backend's [backing_files] counts the files a
             device created, closed or not: each must have been removed *)
          let created = ds.Dev.backing_files + dsf.Dev.backing_files in
          check (tally.removes - rm0 = created)
            "%d backing files created but %d removed" created (tally.removes - rm0);
          spill_clean ();
          sample_gc g0 g1;
          sample_counters c0 c1;
          let sum f = f lsf + f lff in
          let tape k v =
            count_int k v;
            sample k (float_of_int v)
          in
          tape "tape.scans" (sum (fun l -> l.L.scans));
          tape "tape.reversals" (sum (fun l -> l.L.reversals));
          tape "tape.head_moves" (sum L.head_moves);
          tape "tape.cell_reads" (sum L.reads);
          tape "tape.cell_writes" (sum L.writes);
          tape "tape.count" (sum L.tape_count);
          tape "tape.internal_peak" (max lsf.L.internal_peak lff.L.internal_peak);
          sample "tape.wall_per_scan_ms"
            ((ts +. tf) *. 1e3 /. float_of_int (sum (fun l -> l.L.scans)));
          let rd = ds.Dev.io_read_bytes + dsf.Dev.io_read_bytes in
          let wr = ds.Dev.io_write_bytes + dsf.Dev.io_write_bytes in
          tape "device.io_read_bytes" rd;
          tape "device.io_write_bytes" wr;
          set "device.io_read_mb" (float_of_int rd /. 1e6);
          set "device.io_write_mb" (float_of_int wr /. 1e6);
          set "device.io_per_input_byte"
            (float_of_int (rd + wr) /. float_of_int (I.size no + I.size yes));
          tape "raw.pread_calls" (tally.preads - p0);
          tape "raw.pwrite_calls" (tally.pwrites - w0);
          tape "raw.fsync_calls" (tally.fsyncs - f0);
          sample "raw.busy_s" (s_of_ns (Int64.sub tally.busy_ns b0));
          sample "extsort.file_s" ts;
          sample "fingerprint.file_s" tf;
          sample "extsort.mem_s" tsm;
          sample "fingerprint.mem_s" tfm;
          sample "device.overhead_s" (ts +. tf -. (tsm +. tfm)));
      [ ts +. tf ]
    in
    ignore (run_traced a.seconds ~plain:plain_iteration ~traced:traced_iteration)
  end

(* ------------------------------------------------------------------ *)
(* census-m64: the Lemma 21 adversary census                           *)

let census a =
  Parallel.Pool.set_default_domains 1;
  let m = if a.quick then 8 else 64 in
  (* the census fingerprints ROADMAP pins for seed 42 *)
  let pin = match m with 8 -> Some 0xe95ee6596467b13cL | 64 -> Some 0xa51ca65585bbf958L | _ -> None in
  let staircase space =
    Listmachine.Machines.staircase_checkphi ~space
      ~chains:(Listmachine.Machines.chains_needed ~space - 1)
      ~optimistic:true
  in
  let state () = Random.State.make [| a.seed |] in
  let space =
    repeated_setup (fun () ->
        (* a small census first, so heap growth and lazy set-up are not
           charged to the first measured census *)
        let wm = min m 16 in
        let wspace = G.Checkphi.default_space ~m:wm ~n:(2 * wm) in
        ignore
          (Stcore.Adversary.attack_census (state ()) ~space:wspace
             ~machine:(staircase wspace) ());
        G.Checkphi.default_space ~m ~n:(2 * m))
  in
  let check_census machine (c : Stcore.Adversary.census) =
    incr attempted;
    let fp = Printf.sprintf "0x%016Lx" c.Stcore.Adversary.fingerprint in
    (match pin with
    | Some p when a.seed = 42 ->
        check (c.Stcore.Adversary.fingerprint = p)
          "census fingerprint %s differs from the pinned 0x%016Lx" fp p
    | _ -> ());
    count "census.fingerprint" fp;
    count_int "census.classes" c.Stcore.Adversary.classes;
    count_int "census.machine_runs" c.Stcore.Adversary.machine_runs;
    count_int "census.canonical_hits" c.Stcore.Adversary.canonical_hits;
    match c.Stcore.Adversary.outcome with
    | Stcore.Adversary.Contract_violated _ ->
        fail "the staircase machine violated the (1/2,0) contract"
    | Stcore.Adversary.Fooled _ as o ->
        check
          (Stcore.Adversary.verify_fooled ~space ~machine o)
          "the fooling input does not re-validate"
    | Stcore.Adversary.Not_fooled _ -> ()
  in
  let plain_iteration k =
    let (machine, c), t =
      Span.timed "census" (fun () ->
          let machine = staircase space in
          (machine, Stcore.Adversary.attack_census (state ()) ~space ~machine ()))
    in
    note_own_peak k;
    check_census machine c;
    [ t ]
  in
  if not a.trace then begin
    let run = run_plain a.seconds plain_iteration in
    set_end_to_end ~peak_rss:(own_peak_rss ()) run
  end
  else begin
    let traced_iteration _ =
      Span.record "iteration" @@ fun () ->
      let g0 = gc_snap () and c0 = Obs.Counters.snapshot () in
      let machine, tb = Span.timed "plan.build" (fun () -> staircase space) in
      let root = Parallel.Rng.seed_of_state (state ()) in
      let ev, tc =
        Span.timed "adversary.collect" (fun () ->
            Stcore.Adversary.Shard.collect ~root ~space ~machine ~shard:1 ~of_:1 ())
      in
      let c, tm =
        Span.timed "adversary.merge" (fun () ->
            Stcore.Adversary.Shard.merge ~space ~machine [ ev ])
      in
      let g1 = gc_snap () and c1 = Obs.Counters.snapshot () in
      (* one machine run on the first sample, the census's inner kernel *)
      let inst = G.Checkphi.yes (Parallel.Rng.state ~seed:root ~index:0) space in
      let fuel = max 200_000 (2 * machine.Listmachine.Nlm.state_count) in
      let vt, tv =
        Span.timed "nlm.run_view" (fun () ->
            Listmachine.Nlm.run_view ~fuel machine
              ~values:(Array.append (I.xs inst) (I.ys inst))
              ~choices:(fun _ -> 0))
      in
      let sk, ts =
        Span.timed "skeleton.of_views" (fun () -> Listmachine.Skeleton.of_views vt)
      in
      let dg, td =
        Span.timed "skeleton.digest" (fun () -> Listmachine.Skeleton.digest sk)
      in
      Span.record "check" (fun () ->
          check_census machine c;
          count_int "nlm.steps" (Array.length vt.Listmachine.Nlm.views);
          count "skeleton.digest" (Printf.sprintf "0x%016Lx" dg);
          sample_gc g0 g1;
          sample_counters c0 c1;
          sample "plan.build_s" tb;
          sample "adversary.collect_s" tc;
          sample "adversary.merge_s" tm;
          sample "nlm.run_view_s" tv;
          sample "skeleton.of_views_s" ts;
          sample "skeleton.digest_s" td;
          set "nlm.steps" (float_of_int (Array.length vt.Listmachine.Nlm.views));
          let runs = c.Stcore.Adversary.machine_runs
          and hits = c.Stcore.Adversary.canonical_hits in
          set "census.machine_runs" (float_of_int runs);
          set "census.canonical_hits" (float_of_int hits);
          set "census.classes" (float_of_int c.Stcore.Adversary.classes);
          set "census.canonical_hit_ratio"
            (float_of_int hits /. float_of_int (max 1 (hits + runs))));
      [ tb +. tc +. tm ]
    in
    ignore (run_traced a.seconds ~plain:plain_iteration ~traced:traced_iteration)
  end

(* ------------------------------------------------------------------ *)
(* serve-small: one closed-loop connection to `stlb serve -j 1`        *)

(* The server's decide path for the loadgen mix, replayed in process:
   same seed rule, same deciders, same audit. *)
let replay ~server_seed ~id (d : F.decide_body) =
  match I.decode d.F.instance with
  | exception Invalid_argument msg -> (Error ("bad instance: " ^ msg), None)
  | inst -> (
      let st = Parallel.Rng.request_state ~server_seed ~request_id:id in
      let r = L.Recorder.create () in
      let audited ~verdict ~scans ~internal ~tapes spec =
        let l = L.Recorder.ledger ~n:(I.size inst) r in
        let o = Obs.Audit.check spec l in
        if o.Obs.Audit.ok then
          (Ok { F.verdict; audited = true; scans; internal; tapes }, Some l)
        else (Error "audit failed", Some l)
      in
      match (d.F.problem, d.F.algorithm) with
      | F.Core problem, F.Sort ->
          let v, rep = Extsort.decide ~obs:r problem inst in
          audited ~verdict:v ~scans:rep.Extsort.scans
            ~internal:rep.Extsort.register_peak ~tapes:rep.Extsort.tapes
            Obs.Audit.mergesort_spec
      | F.Core D.Multiset_equality, F.Fingerprint ->
          let v, rep, _ = Fingerprint.run ~obs:r st inst in
          audited ~verdict:v ~scans:rep.Fingerprint.scans
            ~internal:rep.Fingerprint.internal_bits ~tapes:rep.Fingerprint.tapes
            Obs.Audit.fingerprint_spec
      | F.Core problem, F.Nst -> (
          match Nst.decide_with_prover ~obs:r problem inst with
          | v, Some rp ->
              audited ~verdict:v ~scans:rp.Nst.scans
                ~internal:rp.Nst.internal_registers ~tapes:rp.Nst.tapes
                Obs.Audit.nst_spec
          | v, None ->
              ( Ok { F.verdict = v; audited = false; scans = 0; internal = 0; tapes = 0 },
                None ))
      | _ -> (Error "not in the loadgen mix", None))

(* the integer field [key] of a flat JSON object *)
let json_int json key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat in
  let rec find i =
    if i + lp > String.length json then None
    else if String.sub json i lp = pat then
      let j = ref (i + lp) in
      while !j < String.length json && (json.[!j] = '-' || (json.[!j] >= '0' && json.[!j] <= '9')) do
        incr j
      done;
      int_of_string_opt (String.sub json (i + lp) (!j - i - lp))
    else find (i + 1)
  in
  match find 0 with Some v -> v | None -> failwith ("STATS has no field " ^ key)

let server_pid = ref None

let kill_server () =
  match !server_pid with
  | None -> ()
  | Some pid ->
      server_pid := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Wait up to [timeout] seconds for the server to exit; kill it after. *)
let wait_server pid ~timeout =
  let t0 = now () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when since t0 < timeout ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ -> None
    | _, status ->
        server_pid := None;
        Some status
  in
  go ()

let serve_small a =
  let k = if a.quick then 64 else 512 in
  let warm_passes = if a.quick then 1 else 4 in
  let socket = Filename.concat a.workdir "s.sock" in
  (* at_exit runs last-registered first: kill the server, then remove
     the socket a killed server leaves behind *)
  at_exit (fun () -> try Sys.remove socket with Sys_error _ -> ());
  at_exit kill_server;
  let verdicts = Array.make k None and responses = Array.make k None in
  let frames = ref [||] in
  let spawn () =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process a.stlb
        [| a.stlb; "serve"; "--socket=" ^ socket; "--seed=" ^ string_of_int a.seed; "-j"; "1" |]
        null null null
    in
    Unix.close null;
    server_pid := Some pid;
    pid
  in
  let connect pid =
    let t0 = now () in
    let rec go () =
      match Serve.Client.connect ~retries:0 socket with
      | c -> c
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _ ->
              server_pid := None;
              failwith "stlb serve exited before listening");
          if since t0 > 30.0 then failwith "stlb serve did not listen within 30 s";
          Unix.sleepf 0.002;
          go ()
    in
    go ()
  in
  (* one request round trip, checked against the first answer to the
     same request; returns its wall in seconds *)
  let rtt c i =
    let (id, _, bytes) = !frames.(i) in
    let resp, t =
      Span.timed "serve.rtt" (fun () ->
          Serve.Client.send_raw c bytes;
          Serve.Client.read_response c)
    in
    incr attempted;
    (match resp with
    | { F.id = rid; payload = F.Response (F.Verdict v) } when rid = id -> (
        match verdicts.(i) with
        | None ->
            verdicts.(i) <- Some v;
            responses.(i) <- Some resp
        | Some v0 -> check (v = v0) "request %d: verdict changed between passes" id)
    | r -> fail "request %d: unexpected response %s" id (F.describe r));
    t
  in
  let pass c = Array.init k (fun i -> rtt c i) in
  let stop pid c =
    Serve.Client.shutdown c ~id:(F.max_id - 1);
    Serve.Client.close c;
    match wait_server pid ~timeout:10.0 with
    | Some (Unix.WEXITED 0) -> ()
    | Some _ -> fail "stlb serve did not exit cleanly after SHUTDOWN"
    | None ->
        fail "stlb serve did not exit within 10 s of SHUTDOWN";
        kill_server ()
  in
  (* set-up: generate the frames, start the server, warm it up; the
     first servers are shut down again, the last one is measured *)
  let reps = ref 0 in
  let pid, c =
    repeated_setup (fun () ->
        incr reps;
        frames :=
          Array.init k (fun id ->
              let body = Serve.Loadgen.mixed_item ~seed:a.seed ~m:6 ~n:8 ~id in
              (id, body, F.encode { F.id; payload = F.Request (F.Decide body) }));
        let pid = spawn () in
        let c = connect pid in
        for _ = 1 to warm_passes do
          ignore (pass c)
        done;
        if !reps < setup_reps then begin
          stop pid c;
          (0, None)
        end
        else (pid, Some c))
  in
  let c = Option.get c in
  (* request i's replayed outcome against its served verdict *)
  let check_replayed i res =
    match (res, verdicts.(i)) with
    | Ok v, Some v0 ->
        check (v = v0) "request %d: served verdict differs from the in-process replay" i
    | Error e, _ -> fail "request %d: replay failed: %s" i e
    | _, None -> ()
  in
  let check_replay () =
    Array.iteri
      (fun i (id, body, _) -> check_replayed i (fst (replay ~server_seed:a.seed ~id body)))
      !frames
  in
  let ticks0 = cpu_ticks pid in
  let requests0 = !attempted in
  let plain_pass _ = Array.to_list (pass c) in
  let resp_bytes = lazy (Array.map (fun r -> F.encode (Option.get r)) responses) in
  let traced_pass _ =
    let resp_bytes = Lazy.force resp_bytes in
    Span.record "iteration" @@ fun () ->
    let g0 = gc_snap () in
    let ts = pass c in
    let g1 = gc_snap () in
    let (), te =
      Span.timed "frame.encode" (fun () ->
          Array.iteri
            (fun i (id, body, _) ->
              ignore (F.encode { F.id; payload = F.Request (F.Decide body) });
              ignore (F.encode (Option.get responses.(i))))
            !frames)
    in
    let (), td =
      Span.timed "frame.decode" (fun () ->
          Array.iteri
            (fun i (_, _, bytes) ->
              ignore (F.decode bytes ~pos:0);
              ignore (F.decode resp_bytes.(i) ~pos:0))
            !frames)
    in
    let kinds = Hashtbl.create 4 in
    let ledgers = ref [] in
    let results =
      Span.record "replay" (fun () ->
          Array.mapi
            (fun i (id, body, _) ->
              let kind = F.algorithm_name body.F.algorithm in
              let (res, l), t =
                Span.timed ("decide." ^ kind) (fun () ->
                    replay ~server_seed:a.seed ~id body)
              in
              let tot, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt kinds kind) in
              Hashtbl.replace kinds kind (tot +. t, n + 1);
              Option.iter (fun l -> ledgers := l :: !ledgers) l;
              (i, res))
            !frames)
    in
    Span.record "check" (fun () ->
        Array.iter (fun (i, res) -> check_replayed i res) results;
        sample_gc g0 g1;
        let n = float_of_int k in
        sample "frame.encode_us" (te *. 1e6 /. n);
        sample "frame.decode_us" (td *. 1e6 /. n);
        let total = ref 0.0 in
        Hashtbl.iter
          (fun kind (t, cnt) ->
            total := !total +. t;
            sample ("decide." ^ kind ^ "_us") (t *. 1e6 /. float_of_int cnt))
          kinds;
        sample "decide.mean_us" (!total *. 1e6 /. n);
        let sum f = List.fold_left (fun acc l -> acc + f l) 0 !ledgers in
        let tape key v =
          count_int key v;
          sample key (float_of_int v)
        in
        tape "tape.scans" (sum (fun l -> l.L.scans));
        tape "tape.reversals" (sum (fun l -> l.L.reversals));
        tape "tape.head_moves" (sum L.head_moves);
        tape "tape.cell_reads" (sum L.reads);
        tape "tape.cell_writes" (sum L.writes);
        tape "tape.count" (sum L.tape_count);
        tape "tape.internal_peak"
          (List.fold_left (fun acc l -> max acc l.L.internal_peak) 0 !ledgers));
    Array.to_list ts
  in
  let untraced =
    if a.trace then run_traced a.seconds ~plain:plain_pass ~traced:traced_pass
    else run_plain a.seconds plain_pass
  in
  let served = !attempted - requests0 in
  let cpu_s = float_of_int (cpu_ticks pid - ticks0) /. float_of_int a.clk_tck in
  let stats = Serve.Client.stats c ~id:(F.max_id - 2) in
  let rss = peak_rss_mb (string_of_int pid) in
  stop pid c;
  if not a.trace then check_replay ();
  (* every decide frame of the mix has the same length, and so has
     every verdict frame: the per-request byte counts are exact *)
  let decides = json_int stats "decides" in
  let stats_frame = String.length (F.encode { F.id = 0; payload = F.Request F.Stats }) in
  let bytes_in = json_int stats "bytes_in" and bytes_out = json_int stats "bytes_out" in
  let per_in = (bytes_in - stats_frame) / max 1 decides
  and per_out = bytes_out / max 1 decides in
  let (_, _, f0) = !frames.(0) in
  check (per_in * decides + stats_frame = bytes_in && per_in = String.length f0)
    "server bytes_in %d is not %d decide frames of %d bytes plus one STATS frame"
    bytes_in decides (String.length f0);
  check (per_out * decides = bytes_out) "server bytes_out %d is not %d equal verdict frames"
    bytes_out decides;
  count_int "server.bytes_in" per_in;
  count_int "server.bytes_out" per_out;
  let shed = json_int stats "shed" in
  let errors =
    List.fold_left (fun acc key -> acc + json_int stats key) 0
      [ "malformed"; "audit_failures"; "budget_errors"; "internal_errors" ]
  in
  let retries = json_int stats "retry_attempts"
  and corrupt = json_int stats "device_corrupt_detected" in
  check (shed = 0 && errors = 0) "server shed %d and failed %d requests" shed errors;
  check (retries = 0 && corrupt = 0) "server retried %d times, saw %d corrupt blocks" retries corrupt;
  if not a.trace then set_end_to_end ~peak_rss:rss untraced
  else begin
    set "serve.overhead_us"
      (median untraced.raw *. 1e6 -. median (Hashtbl.find samples "decide.mean_us"));
    set "server.cpu_us_per_req" (cpu_s *. 1e6 /. float_of_int (max 1 served));
    set "server.shed" (float_of_int shed);
    set "server.errors" (float_of_int errors);
    set "server.max_queue" (float_of_int (json_int stats "max_queue"));
    set "server.bytes_in" (float_of_int per_in);
    set "server.bytes_out" (float_of_int per_out);
    set "counters.retry_attempts" (float_of_int retries);
    set "counters.corrupt_detected" (float_of_int corrupt)
  end

(* ------------------------------------------------------------------ *)
(* output                                                              *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then probe_child ();
  let a = parse_args () in
  let quit _ = exit 130 in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle quit))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  mkdir_p a.workdir;
  mkdir_p a.out;
  let workload =
    match a.workload with
    | "extsort-file" -> extsort_file
    | "census-m64" -> census
    | "serve-small" -> serve_small
    | w ->
        prerr_endline ("pbench: unknown workload " ^ w);
        exit 2
  in
  (try workload a with
  | e ->
      fail "workload raised %s" (Printexc.to_string e));
  set_medians ();
  let catalogue = if a.trace then per_layer else end_to_end in
  let self_line = ref "" in
  if a.trace then begin
    let self, unattributed = Span.summarize () in
    set "trace.unattributed_share" (median unattributed);
    let iterations = max 1 (List.length unattributed) in
    let rows = Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) self [] in
    let rows = List.sort (fun (_, t1, _) (_, t2, _) -> compare t2 t1) rows in
    print_endline "self time per span, per traced iteration:";
    List.iter
      (fun (name, t, n) ->
        Printf.printf "  %-22s %12.6f s  (%d spans)\n" name (t /. float_of_int iterations) n)
      rows;
    self_line :=
      String.concat ","
        (List.map
           (fun (name, t, _) ->
             Printf.sprintf "%s:%s" (json_string name)
               (json_float (t /. float_of_int iterations)))
           rows);
    Span.write
      (Filename.concat a.out
         (Printf.sprintf "%s-seed%d%s-spans.jsonl" a.workload a.seed
            (if a.quick then "-quick" else "")))
  end;
  List.iter
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt values name) in
      Printf.printf "  %-28s %16.6f %s\n" name v unit)
    catalogue;
  let metrics =
    String.concat ","
      (List.map
         (fun (name, unit) ->
           let v = Option.value ~default:0.0 (Hashtbl.find_opt values name) in
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
             (json_float v) (json_string unit))
         catalogue)
  in
  let failed = List.length !failures in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\"counts\":{%s},\"self_s\":{%s},\"failures\":[%s]}\n%!"
    (failed = 0) (max 1 !attempted) failed metrics
    (String.concat ","
       (List.map
          (fun (k, v) -> json_string k ^ ":" ^ json_string v)
          (List.sort compare !counts)))
    !self_line
    (String.concat "," (List.map json_string (List.rev !failures)));
  exit (if failed = 0 then 0 else 1)
