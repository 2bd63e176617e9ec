(* Micro-benchmark driver and bench-trajectory writer.

   Usage:
     dune exec bench/main.exe -- micro                 - micro-benchmarks
     dune exec bench/main.exe -- micro --json PATH     - benches + serve
                                                         scenarios + per-
                                                         table wall clock,
                                                         as JSON
     dune exec bench/main.exe -- micro --json PATH --quick

   The experiment tables themselves run under `stlb experiment [all |
   expN]` (with -j, --checkpoint and --trace). Here the Domain pool is
   sized by STLB_DOMAINS, else the hardware. [micro --json PATH] writes
   the bench trajectory (Bechamel ns/run per micro-benchmark, serve
   throughput and latency, wall-clock seconds per experiment table) so
   future perf PRs can diff against a committed baseline; [--quick]
   shrinks the Bechamel quota and skips the table sweep - the
   @bench-smoke alias uses it to catch driver bitrot in seconds. *)

open Bechamel
open Toolkit

let micro_tests () =
  let st = Random.State.make [| 123 |] in
  let module G = Problems.Generators in
  let module D = Problems.Decide in
  let fp_inst = G.yes_instance st D.Multiset_equality ~m:64 ~n:12 in
  let sort_items =
    List.init 256 (fun i -> Printf.sprintf "%05d" ((i * 7919) mod 256))
  in
  (* file- and shard-backed variants of the merge sort: same items,
     cells on 64 KiB-block-cached spill files or in 64 KiB shards
     (created and deleted every run - the backend's setup cost is part
     of what is being measured) *)
  let spill =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stlb-bench-spill-%d" (Unix.getpid ()))
  in
  let file_device =
    Tape.Device.file_spec ~block_bytes:(1 lsl 16) ~cache_blocks:16 spill
  in
  let shard_device = Tape.Device.shard_spec ~shard_bytes:(1 lsl 16) spill in
  let tuples =
    List.init 1000 (fun i ->
        Tape.Tuple.[ Str (Printf.sprintf "cell-%04d" i); Int ((i * 7919) - 500) ])
  in
  let cs_inst = G.yes_instance st D.Check_sort ~m:128 ~n:10 in
  let space = G.Checkphi.default_space ~m:8 ~n:16 in
  let lm =
    Listmachine.Machines.staircase_checkphi ~space
      ~chains:(Listmachine.Machines.chains_needed ~space)
      ~optimistic:false
  in
  let lm_values =
    let i = G.Checkphi.yes st space in
    Array.append (Problems.Instance.xs i) (Problems.Instance.ys i)
  in
  let ra_db = Relalg.instance_db (G.yes_instance st D.Set_equality ~m:64 ~n:10) in
  let xml_stream =
    Xmlq.Doc.serialize
      (Xmlq.Doc.of_instance (G.yes_instance st D.Set_equality ~m:32 ~n:10))
  in
  let tm = Turing.Zoo.pair_equality () in
  let pool4 = Parallel.Pool.create ~domains:4 () in
  (* the full Lemma 21 pipeline (sample, sweep, census, compose) at
     m=16 against the one-chain-short staircase — the FOOLED case; a
     1-domain pool and a pinned seed keep the measured work fixed *)
  let adv_space = G.Checkphi.default_space ~m:16 ~n:32 in
  let adv_machine =
    Listmachine.Machines.staircase_checkphi ~space:adv_space
      ~chains:(Listmachine.Machines.chains_needed ~space:adv_space - 1)
      ~optimistic:true
  in
  let adv_pool = Parallel.Pool.create ~domains:1 () in
  (* the same pipeline at m=32 — the scale the canonical-form reduction
     unlocked (each census sweep collapses to one machine run per rank
     pattern); tracks the cost of the big-m frontier the E4 table pins *)
  let adv32_space = G.Checkphi.default_space ~m:32 ~n:64 in
  let adv32_machine =
    Listmachine.Machines.staircase_checkphi ~space:adv32_space
      ~chains:(Listmachine.Machines.chains_needed ~space:adv32_space - 1)
      ~optimistic:true
  in
  (* the Plan pilot alone: building the one-chain-short staircase at
     m=64, the machine the census-m64 benchmark attacks. Every written
     cell of the pilot unions its components' position sets; the
     adversary micros build their machines outside the timed closure *)
  let plan64_space = G.Checkphi.default_space ~m:64 ~n:128 in
  let plan64_chains = Listmachine.Machines.chains_needed ~space:plan64_space - 1 in
  (* one 64 KiB block round-trip through the CRC framing: a 1-block
     cache bounces between two blocks, so every iteration pays two
     evict-flushes (checksum + pwrite) and two loads (pread + verify).
     This is the per-block integrity overhead the file backend charges;
     the mem backend has none (the guard's 25% gate pins that). *)
  let crc_dev =
    Tape.Device.instantiate ~codec:Tape.Device.Codec.tuple_char
      (Tape.Device.file_spec ~block_bytes:(1 lsl 16) ~cache_blocks:1 spill)
      ~blank:'_' ~name:"crc-bench"
  in
  let crc_slots = (1 lsl 16) / 4 in
  (* the cell codec alone: set then get every slot of one cached
     64 KiB block of short strings - no eviction, so no CRC and no
     syscall after the first run *)
  let cell_codec = Tape.Device.Codec.tuple_string ~max_bytes:26 in
  let cell_dev =
    Tape.Device.instantiate ~codec:cell_codec
      (Tape.Device.file_spec ~block_bytes:(1 lsl 16) ~cache_blocks:1 spill)
      ~blank:"" ~name:"cell-bench"
  in
  let cells =
    Array.init
      ((1 lsl 16) / (cell_codec.Tape.Device.Codec.max_bytes + 2))
      (Printf.sprintf "cell-%04d")
  in
  (* the two long-lived bench devices own backing files; the sorts
     remove their own *)
  at_exit (fun () ->
      Tape.Device.close crc_dev;
      Tape.Device.close cell_dev;
      try Unix.rmdir spill with Unix.Unix_error _ -> ());
  (* the query front-end: a join-shaped comprehension over two 24-row
     binary relations, measured at each stage - parse alone, the full
     compile + tape execution + per-node audit, the naive in-memory
     oracle it is differentially checked against, and one complete
     fuzz case (generate env + query, run both sides, compare) *)
  let q_env : Query.Naive.env =
    let rows tag =
      List.init 24 (fun i ->
          [ Printf.sprintf "%s%02d" tag (i mod 12); string_of_int (i * 7 mod 24) ])
    in
    [
      ("qr", (2, List.sort_uniq compare (rows "a")));
      ("qs", (2, List.sort_uniq compare (List.map List.rev (rows "b"))));
    ]
  in
  let q_src = "(qr o qs) + [ <y, x> | <x, y> <- qr, x == \"a01\" ]" in
  let q_expr =
    match Query.Parser.parse_expr_string q_src with
    | Ok e -> e
    | Error _ -> assert false
  in
  [
    Test.make ~name:"fingerprint-multiset-eq-m64"
      (Staged.stage (fun () -> ignore (Fingerprint.run st fp_inst)));
    Test.make ~name:"device-crc-block-64k"
      (Staged.stage (fun () ->
           Tape.Device.set crc_dev 0 'x';
           ignore (Tape.Device.get crc_dev crc_slots);
           Tape.Device.set crc_dev crc_slots 'y';
           ignore (Tape.Device.get crc_dev 0)));
    Test.make ~name:"device-file-cell-rw-64k"
      (Staged.stage (fun () ->
           Array.iteri (Tape.Device.set cell_dev) cells;
           Array.iteri (fun i _ -> ignore (Tape.Device.get cell_dev i)) cells));
    Test.make ~name:"tape-merge-sort-256"
      (Staged.stage (fun () -> ignore (Extsort.sort sort_items)));
    Test.make ~name:"tape-file-merge-sort-64k"
      (Staged.stage (fun () ->
           ignore (Extsort.sort ~device:file_device sort_items)));
    Test.make ~name:"tape-shard-merge-sort-64k"
      (Staged.stage (fun () ->
           ignore (Extsort.sort ~device:shard_device sort_items)));
    Test.make ~name:"tuple-encode-decode-1k"
      (Staged.stage (fun () ->
           List.iter
             (fun t -> ignore (Tape.Tuple.unpack (Tape.Tuple.pack t)))
             tuples));
    Test.make ~name:"checksort-decider-m128"
      (Staged.stage (fun () -> ignore (Extsort.check_sort cs_inst)));
    Test.make ~name:"staircase-lm-run-m8"
      (Staged.stage (fun () ->
           ignore (Listmachine.Nlm.run lm ~values:lm_values ~choices:(fun _ -> 0))));
    Test.make ~name:"staircase-plan-m64"
      (Staged.stage (fun () ->
           ignore
             (Listmachine.Machines.staircase_checkphi ~space:plan64_space
                ~chains:plan64_chains ~optimistic:true)));
    Test.make ~name:"adversary-census-m16"
      (Staged.stage (fun () ->
           ignore
             (Stcore.Adversary.attack ~pool:adv_pool ~seed:7 st ~space:adv_space
                ~machine:adv_machine ())));
    Test.make ~name:"adversary-census-m32"
      (Staged.stage (fun () ->
           ignore
             (Stcore.Adversary.attack ~pool:adv_pool ~seed:7 st
                ~space:adv32_space ~machine:adv32_machine ())));
    Test.make ~name:"sortedness-phi-4096"
      (Staged.stage (fun () ->
           ignore (Util.Permutation.sortedness (Util.Permutation.reverse_binary 4096))));
    Test.make ~name:"relalg-symdiff-m64"
      (Staged.stage (fun () ->
           ignore (Relalg.eval_streaming ra_db (Relalg.symmetric_difference "R1" "R2"))));
    Test.make ~name:"xml-stream-filter-m32"
      (Staged.stage (fun () -> ignore (Xmlq.Stream_filter.figure1_filter xml_stream)));
    Test.make ~name:"tm-pair-equality-n32"
      (Staged.stage (fun () ->
           ignore
             (Turing.Machine.run_deterministic tm
                ~input:(String.make 32 '0' ^ "#" ^ String.make 32 '0' ^ "#"))));
    Test.make ~name:"random-prime-le-k66560"
      (Staged.stage (fun () -> ignore (Numtheory.random_prime_le st 66_560)));
    Test.make ~name:"pool-monte-carlo-j4-100"
      (Staged.stage (fun () ->
           ignore
             (Parallel.Pool.monte_carlo_count pool4 ~trials:100 ~seed:7
                (fun st -> Random.State.bool st))));
    Test.make ~name:"query-parse-compose-join"
      (Staged.stage (fun () -> ignore (Query.Parser.parse_expr_string q_src)));
    Test.make ~name:"query-exec-compose-join"
      (Staged.stage (fun () -> ignore (Query.Exec.run ~env:q_env q_expr)));
    Test.make ~name:"query-naive-oracle"
      (Staged.stage (fun () -> ignore (Query.Naive.eval q_env q_expr)));
    Test.make ~name:"query-fuzz-case"
      (Staged.stage (fun () ->
           ignore (Query.Fuzz.run_case ~seed:11 ~index:0 ())));
  ]

(* (name, ns/run estimate) per micro-benchmark *)
let micro_estimates ~quota =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Some est
            | Some _ | None -> None
          in
          (name, est) :: acc)
        analyzed [])
    (List.map
       (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ])
       (micro_tests ()))

let print_estimates estimates =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock, ns/run):";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-34s %14.1f ns/run\n" name est
      | None -> Printf.printf "  %-34s (no estimate)\n" name)
    estimates

(* (name, loadgen summary) per serve scenario: an in-process
   [Serve.Server] on its own domain driven by the deterministic mixed
   workload, so the trajectory tracks request throughput and tail
   latency alongside the micro ns/run numbers. Scenarios stay small
   (sub-second); tools/bench_guard.sh warns when p99 regresses. *)
let serve_estimates ~quick () =
  let requests = if quick then 80 else 400 in
  let scenarios =
    [ ("serve/singleton-j1", 1, 1); ("serve/batch8-j2", 2, 8) ]
  in
  List.mapi
    (fun i (name, jobs, batch) ->
      let socket =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "stlb-bench-%d-%d.sock" (Unix.getpid ()) i)
      in
      let cfg =
        { (Serve.Server.default ~socket) with Serve.Server.seed = 42;
          domains = jobs }
      in
      let ready = Atomic.make false in
      let srv =
        Domain.spawn (fun () ->
            Serve.Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
      in
      while not (Atomic.get ready) do
        Unix.sleepf 0.002
      done;
      let s =
        Serve.Loadgen.run ~socket ~requests ~batch ~m:6 ~n:8 ~seed:7 ()
      in
      let c = Serve.Client.connect socket in
      Serve.Client.shutdown c ~id:requests;
      Serve.Client.close c;
      Domain.join srv;
      (name, s))
    scenarios

let print_serve serve =
  print_endline "Serve scenarios (loadgen over a Unix-domain socket):";
  List.iter
    (fun (name, (s : Serve.Loadgen.summary)) ->
      Printf.printf "  %-34s %10.1f req/s   p50 %8.1f us   p99 %8.1f us\n"
        name s.Serve.Loadgen.rps s.Serve.Loadgen.p50_us s.Serve.Loadgen.p99_us)
    serve

let time_tables () =
  List.map
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      f ();
      print_newline ();
      (name, Unix.gettimeofday () -. t0))
    Harness.Experiments.all

let json_string s = "\"" ^ Util.Json.escape s ^ "\""

let write_trajectory ~path ~quick ~estimates ~serve ~tables =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"stlb-bench-trajectory/1\",\n";
  out "  \"domains\": %d,\n" (Parallel.Pool.default_domains ());
  out "  \"quick\": %b,\n" quick;
  out "  \"ocaml\": %s,\n" (json_string Sys.ocaml_version);
  out "  \"micro\": [\n";
  List.iteri
    (fun i (name, est) ->
      out "    {\"name\": %s, \"ns_per_run\": %s}%s\n" (json_string name)
        (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null")
        (if i = List.length estimates - 1 then "" else ","))
    estimates;
  out "  ],\n";
  out "  \"serve\": [\n";
  List.iteri
    (fun i (name, (s : Serve.Loadgen.summary)) ->
      out
        "    {\"name\": %s, \"rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": \
         %.1f, \"fingerprint\": \"0x%016Lx\"}%s\n"
        (json_string name) s.Serve.Loadgen.rps s.Serve.Loadgen.p50_us
        s.Serve.Loadgen.p99_us s.Serve.Loadgen.fingerprint
        (if i = List.length serve - 1 then "" else ","))
    serve;
  out "  ],\n";
  out "  \"tables\": [\n";
  List.iteri
    (fun i (name, wall) ->
      out "    {\"name\": %s, \"wall_s\": %.3f}%s\n" (json_string name) wall
        (if i = List.length tables - 1 then "" else ","))
    tables;
  out "  ]\n";
  out "}\n";
  close_out oc

let run_micro ?json ~quick () =
  let quota = if quick then 0.05 else 0.5 in
  match json with
  | None -> print_estimates (micro_estimates ~quota)
  | Some path ->
      (* the table sweep is the expensive half of the trajectory; the
         smoke path skips it. Time it before Bechamel churns the heap
         so the wall clocks track the standalone runs. *)
      let tables = if quick then [] else time_tables () in
      let estimates = micro_estimates ~quota in
      print_estimates estimates;
      (* after Bechamel so the socket servers see a settled heap *)
      let serve = serve_estimates ~quick () in
      print_serve serve;
      write_trajectory ~path ~quick ~estimates ~serve ~tables;
      Printf.printf "wrote bench trajectory to %s\n" path

let usage () =
  prerr_endline "usage: main.exe micro [--json PATH] [--quick]";
  exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "micro" :: opts ->
      let rec parse json quick = function
        | "--json" :: path :: rest -> parse (Some path) quick rest
        | "--quick" :: rest -> parse json true rest
        | [] -> (json, quick)
        | _ -> usage ()
      in
      let json, quick = parse None false opts in
      run_micro ?json ~quick ()
  | _ -> usage ()
