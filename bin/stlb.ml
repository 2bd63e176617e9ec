(* stlb - command-line driver for the randomized-external-memory
   lower-bound reproduction.

   Subcommands:
     gen         generate problem instances
     decide      run a decider (reference / sort / fingerprint / nst)
     adversary   run the Lemma 21 attack on a staircase list machine
     experiment  run one (or all) of the E1..E22 experiment tables,
                 optionally journaling/resuming via --checkpoint and
                 emitting a JSONL event trace via --trace
     serve       expose the deciders over a Unix-domain socket (stlb/1,
                 PROTOCOL.md); per-request verdicts depend only on
                 (--seed, request id) - replayable across restarts
     loadgen     drive a deterministic mixed workload against serve and
                 report throughput + latency percentiles
     classes     print the paper's classification table
     sortedness  sortedness of the reverse-binary permutation

   A run that trips an enforced resource budget (Tape.Budget_exceeded,
   e.g. decide --max-scans) exits with status 10 and a one-line
   diagnostic instead of an uncaught backtrace. A decide instance that
   is missing, empty or malformed exits 123; an algorithm that does not
   decide the problem exits 124. An experiment table whose parity
   verdict disagrees exits 4, like a query-fuzz discrepancy. *)

open Cmdliner

module D = Problems.Decide
module G = Problems.Generators
module I = Problems.Instance
module F = Serve.Frame

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for Monte Carlo trial fan-out (default: the \
     $(b,STLB_DOMAINS) environment variable, else the hardware). Results \
     are bit-identical for every worker count; $(b,-j 1) forces the \
     sequential path."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | Some d when d >= 1 -> Parallel.Pool.set_default_domains d
  | Some _ | None -> ()

let m_arg default =
  let doc = "Number of strings per half (m)." in
  Arg.(value & opt int default & info [ "m" ] ~docv:"M" ~doc)

let n_arg default =
  let doc = "Length of each string (n)." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let problem_arg =
  let conv_problem =
    Arg.enum
      [
        ("set-eq", D.Set_equality);
        ("multiset-eq", D.Multiset_equality);
        ("check-sort", D.Check_sort);
      ]
  in
  let doc = "Problem: set-eq, multiset-eq or check-sort." in
  Arg.(
    value & opt conv_problem D.Multiset_equality & info [ "problem"; "p" ] ~docv:"PROBLEM" ~doc)

let state_of seed = Random.State.make [| seed |]

let trace_arg =
  let doc =
    "Append-free JSONL event trace: (re)create $(docv) and write one JSON \
     object per line - $(b,table) events (status start/done/replayed), \
     $(b,ledger) events (measured per-run cost: scans, reversals, internal \
     peak, per-tape head movements) and $(b,audit) events \
     (measured-vs-theorem budget checks). Events carry no timestamps and \
     no worker-count-dependent fields, so traces are bit-identical for \
     $(b,-j) 1/2/4."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace path f =
  match path with
  | None -> f ()
  | Some p -> Obs.Trace.with_sink (Obs.Trace.open_file p) f

let budget_exit =
  Cmd.Exit.info 10
    ~doc:
      "an enforced resource limit ended the run: a tripped budget (e.g. \
       $(b,decide --max-scans)), a full or read-only disk (ENOSPC/EROFS) \
       or retries exhausted on persistent corruption; the diagnostic is \
       printed on stderr."

let scrub_exit =
  Cmd.Exit.info 12
    ~doc:"$(b,scrub) found corruption, torn frames or orphan files."

let crash_exit =
  Cmd.Exit.info 70
    ~doc:"$(b,decide --crash-at) fired: the process _exited abruptly."

let exits = budget_exit :: scrub_exit :: crash_exit :: Cmd.Exit.defaults

let differential_exit =
  Cmd.Exit.info 4
    ~doc:
      "a differential check disagreed: $(b,query --fuzz) found a compiled \
       plan that differs from the naive oracle (the shrunk counterexample \
       is in the report), or an $(b,experiment) table's parity verdict \
       reported DIVERGED, MISMATCH or NOT CAUGHT (the table is printed in \
       full but not journaled)."

let differential_exits = differential_exit :: exits

(* The tape device flags, shared by decide, serve, query and repl:
   --device picks the backend, --block-size its block (a file tape
   caches 16 blocks; a shard is 16 blocks, 2 cached), --spill-dir where
   the backing files go. Spill files are scratch: tapes delete them on
   close, so the directory is left holding at most the empty dir. *)
type device_opts = {
  kind : [ `Mem | `File | `Shard ];
  block_size : int;
  spill_dir : string option;
}

let device_term ~users =
  let device_arg =
    let doc =
      Printf.sprintf
        "Tape cell storage for %s: $(b,mem) (in-RAM, the default), $(b,file) \
         (block-cached flat files) or $(b,shard) (a sharded run directory). \
         Results, scan counts and audit verdicts are backend-independent; \
         only the I/O traffic differs."
        users
    in
    Arg.(
      value
      & opt (Arg.enum [ ("mem", `Mem); ("file", `File); ("shard", `Shard) ]) `Mem
      & info [ "device" ] ~docv:"DEV" ~doc)
  in
  let block_size_arg =
    let doc =
      "Cache block size in bytes for $(b,--device file) (each tape caches 16 \
       blocks) and $(b,--device shard) (a shard is 16 blocks, 2 cached)."
    in
    Arg.(value & opt int 65536 & info [ "block-size" ] ~docv:"BYTES" ~doc)
  in
  let spill_dir_arg =
    let doc =
      "Directory for device backing files (default: a per-process \
       directory under the system temp dir). Files are deleted when the \
       tapes close."
    in
    Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR" ~doc)
  in
  Term.(
    const (fun kind block_size spill_dir -> { kind; block_size; spill_dir })
    $ device_arg $ block_size_arg $ spill_dir_arg)

(* [None] for the mem backend *)
let device_spec ~tag ?raw d =
  let spill () =
    match d.spill_dir with
    | Some dir -> dir
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "stlb-%s-spill-%d" tag (Unix.getpid ()))
  in
  match d.kind with
  | `Mem -> None
  | `File ->
      Some
        (Tape.Device.file_spec ~block_bytes:d.block_size ~cache_blocks:16 ?raw
           (spill ()))
  | `Shard ->
      Some (Tape.Device.shard_spec ~shard_bytes:(16 * d.block_size) ?raw (spill ()))

(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run seed problem m n label =
    let st = state_of seed in
    let inst =
      match label with
      | `Yes -> G.yes_instance st problem ~m ~n
      | `No -> G.no_instance st problem ~m ~n
    in
    print_endline (I.encode inst)
  in
  let label_arg =
    let doc = "Generate a yes- or no-instance." in
    Arg.(value & opt (Arg.enum [ ("yes", `Yes); ("no", `No) ]) `Yes
         & info [ "label" ] ~docv:"LABEL" ~doc)
  in
  let doc = "Generate a problem instance (the {0,1,#} encoding, on stdout)." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ seed_arg $ problem_arg $ m_arg 8 $ n_arg 12 $ label_arg)

exception Bad_instance of string

(* The instance on the first line of [file] (stdin if [None]); a
   missing file, an empty first line or a bad symbol is Bad_instance. *)
let read_instance file =
  let first ic = try String.trim (input_line ic) with End_of_file -> "" in
  let line =
    match file with
    | None -> first stdin
    | Some path -> (
        try In_channel.with_open_text path first
        with Sys_error m -> raise (Bad_instance m))
  in
  if line = "" then raise (Bad_instance "empty instance");
  try I.decode line
  with Invalid_argument m -> raise (Bad_instance ("bad instance: " ^ m))

let decide_cmd =
  let run seed problem algorithm file max_scans trace dev storage_seed bit_rot
      storage_eio enospc_at crash_at checkpoint =
    let inst = read_instance file in
    with_trace trace @@ fun () ->
    let st = state_of seed in
    (* Storage-fault flags build a seeded below-seam plan injected at
       the Device.Raw syscall layer of the file/shard backends. The
       crash hook is an abrupt _exit(70): no cleanup runs, leaving the
       torn spill the crash-matrix test recovers from with scrub. *)
    let storage_plan =
      if
        bit_rot > 0.0 || storage_eio > 0.0 || enospc_at <> None
        || crash_at <> None
      then
        Some
          (Faults.Storage.Plan.create ?enospc_after:enospc_at
             ?crash_at
             ~crash:(fun _op -> Unix._exit 70)
             ~seed:storage_seed
             ~rates:
               {
                 Faults.Storage.zero with
                 Faults.Storage.bit_rot;
                 io_error = storage_eio;
               }
             ())
      else None
    in
    let raw = Option.map Faults.Storage.raw_for storage_plan in
    let retry =
      match storage_plan with
      | None -> None
      | Some _ ->
          Some { Faults.Retry.default with Faults.Retry.attempts = 8 }
    in
    let device = device_spec ~tag:"decide" ?raw dev in
    let budget =
      Option.map
        (fun s -> { Tape.Group.max_scans = Some s; max_internal = None })
        max_scans
    in
    let decide_once () =
      (* With --trace, a ledger recorder records the decider's tape
         groups, and the run's measured ledger plus its theorem-budget
         audit land in the trace. *)
      let obs =
        Option.map
          (fun _ -> Obs.Ledger.Recorder.create ~label:(F.algorithm_name algorithm) ())
          trace
      in
      let { Serve.Decider.verdict; cost; spec; _ } =
        Serve.Decider.run ?budget ?retry ?obs ?device st (F.Core problem) algorithm
          inst
      in
      (match (obs, spec) with
      | Some r, Some spec ->
          let l, o = Serve.Decider.audit r inst spec in
          Obs.Trace.ledger_current l;
          Obs.Trace.audit_current o
      | _ -> ());
      let resources =
        match (cost, spec) with
        | Some { Serve.Decider.scans; internal; tapes }, _ ->
            Printf.sprintf "scans=%d %s=%d tapes=%d" scans
              (if algorithm = F.Fingerprint then "internal-bits" else "registers")
              internal tapes
        | None, None -> "(in-memory reference)"
        | None, Some _ -> "(no witness: every branch rejects)"
      in
      Printf.printf "%s: %s  %s\n" (D.problem_name problem)
        (if verdict then "YES" else "NO")
        resources
    in
    (* --checkpoint journals the decide's entire stdout keyed by the
       run parameters: a run killed by --crash-at recomputes on the
       next invocation, while a completed run replays byte-identically
       without touching the tapes at all. *)
    match checkpoint with
    | None -> decide_once ()
    | Some dir ->
        let name =
          Printf.sprintf "decide-%s-%s-seed%d" (D.problem_name problem)
            (F.algorithm_name algorithm) seed
        in
        Harness.Checkpoint.run
          (Some (Harness.Checkpoint.open_dir dir))
          ~name decide_once
  in
  let algorithm_arg =
    let doc = "Algorithm: reference, sort (Cor 7), fingerprint (Thm 8a), nst (Thm 8b)." in
    let algorithms = F.[ Reference; Sort; Fingerprint; Nst ] in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (F.algorithm_name a, a)) algorithms)) F.Sort
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let file_arg =
    let doc = "Instance file (first line, {0,1,#} encoding); stdin if omitted." in
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let max_scans_arg =
    let doc =
      "Enforce a scan budget on the sort decider: exceeding $(docv) scans \
       aborts with exit status 10 (the O(log N) bound, made falsifiable). \
       Pick $(docv) at least $(b,24*ceil(log2 N\\) + 48) (the Corollary 7 \
       audit allowance) for a run that should succeed."
    in
    Arg.(value & opt (some int) None & info [ "max-scans" ] ~docv:"R" ~doc)
  in
  let storage_seed_arg =
    let doc = "Seed for the below-seam storage fault plan." in
    Arg.(value & opt int 0 & info [ "storage-seed" ] ~docv:"SEED" ~doc)
  in
  let bit_rot_arg =
    let doc =
      "Per-pread probability of flipping one random bit of the bytes read \
       back from a $(b,file)/$(b,shard) device. The CRC framing detects \
       every flip; the decider quarantines, re-reads and re-scans (paying \
       honest reversals) or gives up loudly - it never mis-decides."
    in
    Arg.(value & opt float 0.0 & info [ "bit-rot" ] ~docv:"RATE" ~doc)
  in
  let storage_eio_arg =
    let doc = "Per-syscall probability of EIO from the raw pread/pwrite." in
    Arg.(value & opt float 0.0 & info [ "storage-eio" ] ~docv:"RATE" ~doc)
  in
  let enospc_at_arg =
    let doc =
      "Make the $(docv)-th and every later raw write fail with ENOSPC (a \
       full disk stays full). Fatal by classification: the run aborts with \
       exit status 10 and leaves no orphan spill files."
    in
    Arg.(value & opt (some int) None & info [ "enospc-at" ] ~docv:"K" ~doc)
  in
  let crash_at_arg =
    let doc =
      "Abruptly _exit(70) at the $(docv)-th raw device syscall - no \
       cleanup, no atexit - simulating a crash mid-run. Recover with \
       $(b,stlb scrub --fix) on the spill directory, then re-run."
    in
    Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"K" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Journal the decide's output under $(docv) (created if missing) and \
       replay it verbatim if already journaled - the crash-matrix resume \
       protocol."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)
  in
  let doc = "Decide an instance and report the measured resources." in
  Cmd.v (Cmd.info "decide" ~doc ~exits)
    Term.(
      const run $ seed_arg $ problem_arg $ algorithm_arg $ file_arg
      $ max_scans_arg $ trace_arg
      $ device_term
          ~users:
            "the sort and fingerprint deciders ($(b,reference) and $(b,nst) \
             are in-memory by construction)"
      $ storage_seed_arg $ bit_rot_arg $ storage_eio_arg
      $ enospc_at_arg $ crash_at_arg $ checkpoint_arg)

(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path the server listens on." in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run socket seed jobs dev max_scans max_frame max_batch queue_bound
      max_requests trace =
    (* The server's memory envelope (OPERATIONS.md §1). With the default
       2 MiB minor heap and space_overhead 120 its peak RSS grows ~40 %
       under steady load; a 256 KiB minor heap and a tighter major heap
       hold it. Set here, not in [Server.run]: in-process servers keep
       their host's GC settings. *)
    Gc.set { (Gc.get ()) with minor_heap_size = 32_768; space_overhead = 40 };
    with_trace trace @@ fun () ->
    let device = device_spec ~tag:"serve" dev in
    let domains = match jobs with Some d when d >= 1 -> d | _ -> 1 in
    let cfg =
      {
        (Serve.Server.default ~socket) with
        Serve.Server.seed;
        domains;
        device;
        max_scans;
        max_frame;
        max_batch;
        queue_bound;
        max_requests;
      }
    in
    Printf.printf
      "stlb serve: listening on %s (seed %d, %d domain(s), device %s)\n%!"
      socket seed domains
      (match dev.kind with `Mem -> "mem" | `File -> "file" | `Shard -> "shard");
    Serve.Server.run cfg;
    Printf.printf "stlb serve: shut down cleanly\n%!"
  in
  let max_frame_arg =
    let doc = "Largest accepted frame payload in bytes (bigger frames are \
               answered with a TOO_LARGE error)." in
    Arg.(value & opt int (1 lsl 20) & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let max_batch_arg =
    let doc = "Decide items accepted per BATCH frame (bigger batches are \
               shed with an OVERLOADED error)." in
    Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"K" ~doc)
  in
  let queue_bound_arg =
    let doc =
      "Pending-request bound: frames arriving while $(docv) requests are \
       already queued are shed with an OVERLOADED error instead of \
       stalling the read loop."
    in
    Arg.(value & opt int 128 & info [ "queue-bound" ] ~docv:"K" ~doc)
  in
  let max_requests_arg =
    let doc =
      "Stop serving after $(docv) frames (the smoke-test safety net); \
       default: run until a SHUTDOWN frame."
    in
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"K" ~doc)
  in
  let max_scans_arg =
    let doc =
      "Enforce a scan budget on sort requests for the core problems: \
       exceeding $(docv) scans reports a BUDGET error for that request \
       (the server keeps running)."
    in
    Arg.(value & opt (some int) None & info [ "max-scans" ] ~docv:"R" ~doc)
  in
  let doc =
    "Serve the deciders over a Unix-domain socket (the stlb/1 protocol, \
     PROTOCOL.md). Every verdict is a function of ($(b,--seed), request \
     id) only - identical across worker counts, batching, devices and \
     restarts."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(
      const run $ socket_arg $ seed_arg $ jobs_arg
      $ device_term ~users:"sort, fingerprint and relalg-symdiff requests"
      $ max_scans_arg $ max_frame_arg $ max_batch_arg $ queue_bound_arg
      $ max_requests_arg $ trace_arg)

let loadgen_cmd =
  let run socket seed requests batch first_id m n shutdown =
    (* --requests 0 --shutdown is the documented pure-stop command *)
    if requests > 0 then begin
      let s =
        Serve.Loadgen.run ~socket ~requests ~batch ~first_id ~m ~n ~seed ()
      in
      Serve.Loadgen.print_summary s
    end;
    if shutdown then begin
      let c = Serve.Client.connect socket in
      Serve.Client.shutdown c ~id:(first_id + requests);
      Serve.Client.close c
    end
  in
  let requests_arg =
    let doc =
      "Decide requests to send (ids first-id .. first-id+$(docv)-1); 0 \
       skips the load phase (useful with $(b,--shutdown))."
    in
    Arg.(value & opt int 100 & info [ "requests" ] ~docv:"K" ~doc)
  in
  let batch_arg =
    let doc = "Group requests into BATCH frames of $(docv) (1 = singleton \
               DECIDE frames)." in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"K" ~doc)
  in
  let first_id_arg =
    let doc = "First request id." in
    Arg.(value & opt int 0 & info [ "first-id" ] ~docv:"ID" ~doc)
  in
  let shutdown_arg =
    let doc = "Send a SHUTDOWN frame after the run (stops the server)." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let doc =
    "Drive a deterministic mixed decider workload (fingerprint, sort, nst \
     across all three problems) against a running $(b,stlb serve) and \
     report requests/s with p50/p99 latency. Same ($(b,--seed), \
     $(b,--first-id), $(b,--requests)) + same server seed = the same \
     workload fingerprint, bit for bit."
  in
  Cmd.v (Cmd.info "loadgen" ~doc ~exits)
    Term.(
      const run $ socket_arg $ seed_arg $ requests_arg $ batch_arg
      $ first_id_arg $ m_arg 6 $ n_arg 8 $ shutdown_arg)

(* ------------------------------------------------------------------ *)

let scrub_cmd =
  let run fix dir =
    let rep = Tape.Device.Scrub.dir ~fix dir in
    let count what =
      List.length
        (List.filter
           (fun (f : Tape.Device.Scrub.finding) -> f.Tape.Device.Scrub.what = what)
           rep.Tape.Device.Scrub.findings)
    in
    Printf.printf
      "scrub %s: %d file(s), %d block(s) checked\n\
      \  crc-mismatch %d   torn %d   orphan %d   missing %d   bad-header %d\n"
      dir rep.Tape.Device.Scrub.files_checked rep.Tape.Device.Scrub.blocks_checked
      (count "crc-mismatch") (count "torn") (count "orphan") (count "missing")
      (count "bad-header");
    List.iter
      (fun (f : Tape.Device.Scrub.finding) ->
        Printf.printf "  %-12s %s%s\n" f.Tape.Device.Scrub.what
          f.Tape.Device.Scrub.path
          (if f.Tape.Device.Scrub.offset >= 0 then
             Printf.sprintf " @%d" f.Tape.Device.Scrub.offset
           else ""))
      rep.Tape.Device.Scrub.findings;
    if fix then Printf.printf "  removed %d file(s)\n" rep.Tape.Device.Scrub.removed;
    if rep.Tape.Device.Scrub.findings <> [] then exit 12
  in
  let fix_arg =
    let doc = "Remove every flagged file and prune emptied shard dirs." in
    Arg.(value & flag & info [ "fix" ] ~doc)
  in
  let dir_arg =
    let doc = "Spill directory to verify (as passed to --spill-dir)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let doc =
    "Verify the CRC of every tape block and shard in a spill directory \
     (exit 12 if corruption, torn frames or orphans were found; with \
     $(b,--fix), also remove them so a crashed run's survivors reopen \
     cleanly)."
  in
  Cmd.v (Cmd.info "scrub" ~doc ~exits) Term.(const run $ fix_arg $ dir_arg)

let adversary_cmd =
  let print_outcome ~space ~machine outcome =
    match outcome with
    | Stcore.Adversary.Fooled { input; i0; skeleton_classes; yes_acceptance; _ } as o ->
        Printf.printf
          "FOOLED: the machine accepts the following CHECK-phi NO-instance\n\
           (uncompared index i0=%d, %d skeleton class(es), yes-acceptance %.2f):\n%s\n\
           independent re-validation: %b\n"
          i0 skeleton_classes yes_acceptance (I.encode input)
          (Stcore.Adversary.verify_fooled ~space ~machine o)
    | Stcore.Adversary.Not_fooled { reason; yes_acceptance; _ } ->
        Printf.printf "not fooled: %s (yes-acceptance %.2f)\n" reason yes_acceptance
    | Stcore.Adversary.Contract_violated { yes_acceptance } ->
        Printf.printf
          "contract violated: the machine accepts only %.2f of yes-instances\n\
           (a (1/2,0)-solver must accept at least half)\n"
          yes_acceptance
  in
  let print_census ~space ~machine (c : Stcore.Adversary.census) =
    print_outcome ~space ~machine c.Stcore.Adversary.outcome;
    Printf.printf "census fingerprint: 0x%016Lx (seed=%d hits=%d/%d classes=%d)\n"
      c.Stcore.Adversary.fingerprint c.Stcore.Adversary.chosen_seed
      c.Stcore.Adversary.hits c.Stcore.Adversary.samples
      c.Stcore.Adversary.classes;
    Printf.printf "census work: machine-runs=%d canonical-hits=%d shards-merged=%d\n"
      c.Stcore.Adversary.machine_runs c.Stcore.Adversary.canonical_hits
      c.Stcore.Adversary.shards_merged;
    Obs.Trace.emit_current ~event:"census"
      [
        ("fingerprint", Obs.Trace.String (Printf.sprintf "0x%016Lx" c.Stcore.Adversary.fingerprint));
        ("seed", Obs.Trace.Int c.Stcore.Adversary.chosen_seed);
        ("hits", Obs.Trace.Int c.Stcore.Adversary.hits);
        ("samples", Obs.Trace.Int c.Stcore.Adversary.samples);
        ("classes", Obs.Trace.Int c.Stcore.Adversary.classes);
        ("shards_merged", Obs.Trace.Int c.Stcore.Adversary.shards_merged);
      ]
  in
  let run seed jobs m chains optimistic canon shard out merges trace =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let st = state_of seed in
    let space = G.Checkphi.default_space ~m ~n:(2 * m) in
    let needed = Listmachine.Machines.chains_needed ~space in
    let chains = match chains with Some c -> c | None -> needed - 1 in
    let machine =
      Listmachine.Machines.staircase_checkphi ~space ~chains ~optimistic
    in
    match merges with
    | _ :: _ ->
        (* fold shard evidence files into the single-process verdict *)
        let read_evidence path =
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          Stcore.Adversary.Shard.of_string s
        in
        Printf.printf "machine: %s (complete coverage needs %d chains)\n"
          machine.Listmachine.Nlm.name needed;
        print_census ~space ~machine
          (Stcore.Adversary.Shard.merge ~space ~machine
             (List.map read_evidence merges))
    | [] -> (
        let i, k = shard in
        if k = 1 && out = None then begin
          (* the direct path: collect 1/1 + merge, one process *)
          Printf.printf "machine: %s (complete coverage needs %d chains)\n"
            machine.Listmachine.Nlm.name needed;
          print_census ~space ~machine
            (Stcore.Adversary.attack_census ~canon st ~space ~machine ())
        end
        else begin
          (* collect one shard's evidence; merge happens in --merge mode *)
          let root = Parallel.Rng.seed_of_state st in
          let ev =
            Stcore.Adversary.Shard.collect ~canon ~root ~space ~machine
              ~shard:i ~of_:k ()
          in
          let s = Stcore.Adversary.Shard.to_string ev in
          match out with
          | None -> print_string s
          | Some path ->
              let oc = open_out_bin path in
              output_string oc s;
              close_out oc;
              Printf.printf
                "shard %d/%d: accepted-records=%d classes=%d machine-runs=%d \
                 canonical-hits=%d fingerprint=0x%016Lx -> %s\n"
                i k
                (Array.fold_left
                   (fun a t -> a + Array.length t)
                   0 ev.Stcore.Adversary.Shard.accepted)
                (Array.length ev.Stcore.Adversary.Shard.classes)
                ev.Stcore.Adversary.Shard.machine_runs
                ev.Stcore.Adversary.Shard.canonical_hits
                (Stcore.Adversary.Shard.fingerprint ev)
                path
        end)
  in
  let chains_arg =
    let doc = "Verified chains (default: one fewer than needed for completeness)." in
    Arg.(value & opt (some int) None & info [ "chains" ] ~docv:"K" ~doc)
  in
  let optimistic_arg =
    let doc = "Accept unverified pairs (default true; the honest-but-wrong mode)." in
    Arg.(value & opt bool true & info [ "optimistic" ] ~doc)
  in
  let canon_arg =
    let doc =
      "Memoize machine runs modulo value renaming (default true; sound for \
       machines that only compare values for equality - all machines here). \
       Never changes the verdict, only the number of machine runs."
    in
    Arg.(value & opt bool true & info [ "canon" ] ~doc)
  in
  let shard_arg =
    let parse s =
      match String.split_on_char '/' s with
      | [ i; k ] -> (
          match (int_of_string_opt i, int_of_string_opt k) with
          | Some i, Some k when 1 <= i && i <= k -> Ok (i, k)
          | _ -> Error (`Msg "expected I/K with 1 <= I <= K"))
      | _ -> Error (`Msg "expected I/K, e.g. 2/4")
    in
    let print ppf (i, k) = Format.fprintf ppf "%d/%d" i k in
    let doc =
      "Census only the sample indices owned by shard $(b,I) of $(b,K) \
       (1-based; ownership is index mod K) and emit mergeable evidence \
       instead of a verdict - to stdout, or to --out. Fold a complete set \
       back with --merge."
    in
    Arg.(
      value
      & opt (Arg.conv (parse, print)) (1, 1)
      & info [ "shard" ] ~docv:"I/K" ~doc)
  in
  let out_arg =
    let doc = "Write this shard's evidence to $(docv) (with a summary line on stdout)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let merge_arg =
    let doc =
      "Merge shard evidence files (repeatable; pass one per shard) into the \
       exact single-process verdict and fingerprint."
    in
    Arg.(value & opt_all string [] & info [ "merge" ] ~docv:"FILE" ~doc)
  in
  let doc = "Run the Lemma 21 adversary against a staircase CHECK-phi machine." in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(
      const run $ seed_arg $ jobs_arg $ m_arg 8 $ chains_arg $ optimistic_arg
      $ canon_arg $ shard_arg $ out_arg $ merge_arg $ trace_arg)

let experiment_cmd =
  let run jobs checkpoint trace name =
    apply_jobs jobs;
    with_trace trace @@ fun () ->
    let checkpoint = Option.map Harness.Checkpoint.open_dir checkpoint in
    try
      match name with
      | "all" -> Harness.Experiments.run_all ?checkpoint ()
      | name -> (
          match List.assoc_opt name Harness.Experiments.all with
          | Some f -> Harness.Checkpoint.run checkpoint ~name f
          | None ->
              Printf.eprintf "unknown experiment %S (exp1..exp22 or all)\n"
                name;
              exit 1)
    with Harness.Experiments.Table_failed lines ->
      List.iter (Printf.eprintf "stlb experiment: check failed: %s\n") lines;
      exit 4
  in
  let name_arg =
    let doc = "Experiment name: exp1..exp22, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"NAME" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Journal each completed table under $(docv) (created if missing) and \
       replay journaled tables verbatim on the next run - an interrupted \
       sweep resumes where it was killed with byte-identical output. \
       Corrupt journal entries are detected by checksum, discarded with a \
       warning, and recomputed."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)
  in
  let doc = "Run reproduction experiments (the EXPERIMENTS.md tables)." in
  Cmd.v (Cmd.info "experiment" ~doc ~exits:differential_exits)
    Term.(const run $ jobs_arg $ checkpoint_arg $ trace_arg $ name_arg)

let classes_cmd =
  let run () =
    let t =
      Util.Table.create ~title:"Paper classification results"
        ~columns:[ "problem"; "class"; "member"; "provenance" ]
    in
    List.iter
      (fun m ->
        Util.Table.add_row t
          [
            m.Stcore.Classes.problem;
            m.Stcore.Classes.class_label;
            (if m.Stcore.Classes.member then "yes" else "NO");
            m.Stcore.Classes.provenance;
          ])
      Stcore.Classes.paper_results;
    Util.Table.print t
  in
  let doc = "Print every membership/non-membership the paper proves." in
  Cmd.v (Cmd.info "classes" ~doc) Term.(const run $ const ())

let sortedness_cmd =
  let run m random seed =
    if random then begin
      let st = state_of seed in
      let p = Util.Permutation.random st m in
      Printf.printf "sortedness(random permutation of %d) = %d\n" m
        (Util.Permutation.sortedness p)
    end
    else begin
      let p = Util.Permutation.reverse_binary m in
      Printf.printf "sortedness(phi_%d) = %d   (bound 2*sqrt(m)-1 = %.1f)\n" m
        (Util.Permutation.sortedness p)
        ((2.0 *. sqrt (float_of_int m)) -. 1.0)
    end
  in
  let random_arg =
    let doc = "Use a uniformly random permutation instead of phi_m." in
    Arg.(value & flag & info [ "random" ] ~doc)
  in
  let doc = "Sortedness (Definition 19) of phi_m (Remark 20) or a random permutation." in
  Cmd.v (Cmd.info "sortedness" ~doc) Term.(const run $ m_arg 1024 $ random_arg $ seed_arg)

let trace_cmd =
  let run seed m chains steps =
    let st = state_of seed in
    let space = G.Checkphi.default_space ~m ~n:(2 * m) in
    let machine =
      Listmachine.Machines.staircase_checkphi ~space ~chains ~optimistic:true
    in
    let inst = G.Checkphi.yes st space in
    Printf.printf "instance: %s\n\n" (I.encode inst);
    let values = Array.append (I.xs inst) (I.ys inst) in
    let tr = Listmachine.Nlm.run machine ~values ~choices:(fun _ -> 0) in
    print_string (Listmachine.Render.trace_to_string ~max_steps:steps tr);
    print_newline ();
    print_string
      (Listmachine.Render.skeleton_summary (Listmachine.Skeleton.of_trace tr))
  in
  let chains_arg =
    let doc = "Chains to verify." in
    Arg.(value & opt int 1 & info [ "chains" ] ~docv:"K" ~doc)
  in
  let steps_arg =
    let doc = "Steps to render before eliding." in
    Arg.(value & opt int 8 & info [ "steps" ] ~docv:"S" ~doc)
  in
  let doc = "Render a list machine run (Figure 2 style) and its skeleton." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ seed_arg $ m_arg 4 $ chains_arg $ steps_arg)

let simulate_cmd =
  let run inputs =
    let tm = Turing.Zoo.pair_equality () in
    let inputs =
      match inputs with
      | [] -> [| "0110"; "0110" |]
      | l -> Array.of_list l
    in
    let r = Simulation.simulate tm ~inputs ~choices:(fun _ -> 0) in
    Printf.printf
      "machine: %s on %s\n\
       verdict: %b (TM and LM agree: %b)\n\
       TM reversals: %d   LM reversals: %d   block crossings: %d\n\n"
      tm.Turing.Machine.name
      (String.concat "#" (Array.to_list inputs))
      r.Simulation.lm_trace.Listmachine.Nlm.accepted r.Simulation.agreement
      r.Simulation.tm_ext_reversals r.Simulation.lm_reversals
      r.Simulation.crossings;
    print_string
      (Listmachine.Render.trace_to_string ~max_steps:10 r.Simulation.lm_trace)
  in
  let inputs_arg =
    let doc = "Input segments v1 v2 ... (default: 0110 0110)." in
    Arg.(value & pos_all string [] & info [] ~docv:"SEGMENTS" ~doc)
  in
  let doc = "Run the Lemma 16 TM->list-machine simulation and render the LM run." in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ inputs_arg)

(* ------------------------------------------------------------------ *)

let query_device = device_term ~users:"compiled query plans"

let query_cmd =
  let run seed jobs program file fuzz iters report_file inject dev trace
      no_budget =
    let device = device_spec ~tag:"query" dev in
    if inject then Query.Compile.swap_compose := true;
    if fuzz then begin
      let pool =
        match jobs with
        | Some d when d > 1 -> Some (Parallel.Pool.create ~domains:d ())
        | _ -> None
      in
      let c = Query.Fuzz.run_campaign ?pool ?device ~seed ~iters () in
      let rep = Query.Fuzz.report c in
      print_string rep;
      (match report_file with
      | None -> ()
      | Some f ->
          Out_channel.with_open_text f (fun oc -> output_string oc rep));
      if c.Query.Fuzz.mismatches > 0 then exit 4
    end
    else begin
      let src =
        match (program, file) with
        | Some p, _ -> p
        | None, Some f -> In_channel.with_open_text f In_channel.input_all
        | None, None -> In_channel.input_all stdin
      in
      let st =
        Query.Repl.create
          ~device:(Option.value device ~default:Tape.Device.Mem)
          ~out:(Buffer.output_buffer stdout) ()
      in
      (match trace with
      | None -> ()
      | Some p -> st.Query.Repl.trace <- Some (Obs.Trace.open_file p));
      if no_budget then st.Query.Repl.budget <- false;
      Query.Repl.do_program st src;
      Query.Repl.close st;
      if st.Query.Repl.failed then exit 1
    end
  in
  let program_arg =
    let doc =
      "Program text: statements separated by $(b,;) (e.g. \
       'r = [<1,10>, <2,20>]; [ <y> | <x,y> <- r, x == 1 ]'). \
       Read from $(b,--file), else stdin, if omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let file_arg =
    let doc = "Read the program from $(docv)." in
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let fuzz_arg =
    let doc =
      "Run the differential fuzzer instead of a program: generate seeded \
       random (environment, query) cases, run each compiled plan on the \
       tape substrate and cross-check the naive in-memory oracle. Any \
       mismatch is shrunk to a minimal self-contained program and the run \
       exits 4. The campaign fingerprint is bit-identical for every \
       $(b,-j) and device."
    in
    Arg.(value & flag & info [ "fuzz" ] ~doc)
  in
  let iters_arg =
    let doc = "Fuzz cases to run." in
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let report_arg =
    let doc = "Also write the fuzz campaign report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let inject_arg =
    let doc =
      "Deliberately miscompile composition (swapped operands) - the \
       negative control proving the fuzzer catches a planted planner bug."
    in
    Arg.(value & flag & info [ "inject-swap-compose" ] ~doc)
  in
  let no_budget_arg =
    let doc =
      "Report per-node audit failures without failing the run (the \
       default treats any node over its Theorem 11-13 scan budget as an \
       error)."
    in
    Arg.(value & flag & info [ "no-budget" ] ~doc)
  in
  let doc =
    "Evaluate a list-relation query program on the tape substrate (every \
     plan node audited against its theorem budget, every result \
     cross-checked against a naive oracle), or fuzz the compiler with \
     $(b,--fuzz)."
  in
  Cmd.v (Cmd.info "query" ~doc ~exits:differential_exits)
    Term.(
      const run $ seed_arg $ jobs_arg $ program_arg $ file_arg $ fuzz_arg
      $ iters_arg $ report_arg $ inject_arg $ query_device $ trace_arg
      $ no_budget_arg)

let repl_cmd =
  let run batch dev =
    let device =
      Option.value (device_spec ~tag:"repl" dev) ~default:Tape.Device.Mem
    in
    let st =
      Query.Repl.create ~device ~out:(Buffer.output_buffer stdout) ()
    in
    let tty = (not batch) && Unix.isatty Unix.stdin in
    (* piped input always echoes, so a transcript is self-contained *)
    Query.Repl.drive st ~echo:(not tty) ~prompt:tty stdin;
    if st.Query.Repl.failed then exit 1
  in
  let batch_arg =
    let doc =
      "Force batch mode even on a tty: no prompt is printed eagerly; \
       instead every input line is echoed after a $(b,query> ) prefix, \
       making the output a self-contained transcript (what the golden \
       tests diff)."
    in
    Arg.(value & flag & info [ "batch" ] ~doc)
  in
  let doc =
    "Interactive query session. Directives: $(b,:load FILE), $(b,:budget \
     on|off), $(b,:trace FILE|off), $(b,:env), $(b,:help), $(b,:quit)."
  in
  Cmd.v (Cmd.info "repl" ~doc ~exits)
    Term.(const run $ batch_arg $ query_device)

let () =
  let doc =
    "Randomized computations on large data sets: tight lower bounds (PODS'06) \
     - executable reproduction"
  in
  let info = Cmd.info "stlb" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        gen_cmd; decide_cmd; query_cmd; repl_cmd; adversary_cmd;
        experiment_cmd; serve_cmd; loadgen_cmd; classes_cmd; sortedness_cmd;
        trace_cmd; simulate_cmd; scrub_cmd;
      ]
  in
  (* a tripped resource budget, a full disk, exhausted retries on
     persistent corruption, a bad decide instance and an unsupported
     decide pair are diagnosed outcomes, not crashes *)
  try exit (Cmd.eval ~catch:false group) with
  | Tape.Budget_exceeded msg ->
      Printf.eprintf "stlb: budget exceeded: %s\n" msg;
      exit 10
  | Unix.Unix_error (((Unix.ENOSPC | Unix.EROFS) as e), fn, _) ->
      Printf.eprintf "stlb: fatal storage error: %s in %s\n"
        (Unix.error_message e) fn;
      exit 10
  | Faults.Retry.Gave_up { label; attempts; last } ->
      Printf.eprintf "stlb: gave up after %d attempts in %s: %s\n" attempts
        label (Printexc.to_string last);
      exit 10
  | Bad_instance msg ->
      Printf.eprintf "stlb: %s\n" msg;
      exit 123
  | Serve.Decider.Unsupported msg ->
      Printf.eprintf "stlb: %s\n" msg;
      exit 124
