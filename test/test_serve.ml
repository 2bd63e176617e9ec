(* Tests for the serve layer: the stlb/1 frame codec (qcheck round-trip
   and the PROTOCOL.md conformance vectors — the document's hex
   examples are executed against the real codec, so the spec cannot
   drift), the per-request seed rule, verdict determinism across server
   restarts / worker counts / batching (in-process and against the real
   `stlb serve` binary), backpressure (bounded queue and
   batch/frame size limits shed loudly), a malformed-frame fuzz pass
   that the server must survive, the client's and the server's receive
   paths (one reused buffer each, frames split and joined on the wire),
   and the decider table itself. *)

module F = Serve.Frame
module D = Problems.Decide

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* frame codec: qcheck round-trip *)

let gen_id =
  (* small ids plus the full 62-bit range *)
  QCheck.Gen.(oneof [ int_bound 1000; map (fun i -> i land max_int) int ])

let gen_instance = QCheck.Gen.(string_size (int_range 0 40))

let gen_decide =
  QCheck.Gen.(
    map3
      (fun problem algorithm instance -> { F.problem; algorithm; instance })
      (oneofl
         [
           F.Core D.Set_equality; F.Core D.Multiset_equality;
           F.Core D.Check_sort; F.Relalg_symdiff; F.Xpath_filter;
         ])
      (oneofl [ F.Reference; F.Sort; F.Fingerprint; F.Nst ])
      gen_instance)

let gen_verdict =
  QCheck.Gen.(
    map
      (fun (verdict, audited, scans, internal, tapes) ->
        { F.verdict; audited; scans; internal; tapes })
      (tup5 bool bool (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) (int_bound 64)))

let gen_error_code =
  QCheck.Gen.oneofl
    [
      F.Bad_version; F.Bad_type; F.Malformed; F.Too_large; F.Overloaded;
      F.Budget; F.Audit_failed; F.Internal;
    ]

let gen_payload =
  QCheck.Gen.(
    oneof
      [
        return (F.Request F.Ping);
        map (fun d -> F.Request (F.Decide d)) gen_decide;
        map
          (fun ds -> F.Request (F.Batch ds))
          (list_size (int_range 0 5) gen_decide);
        return (F.Request F.Stats);
        return (F.Request F.Health);
        return (F.Request F.Shutdown);
        return (F.Response F.Pong);
        map (fun v -> F.Response (F.Verdict v)) gen_verdict;
        map
          (fun vs -> F.Response (F.Batch_verdict vs))
          (list_size (int_range 0 5) gen_verdict);
        map (fun s -> F.Response (F.Stats_json s)) (string_size (int_range 0 60));
        map (fun s -> F.Response (F.Health_json s)) (string_size (int_range 0 60));
        return (F.Response F.Bye);
        map2
          (fun code message -> F.Response (F.Error { code; message }))
          gen_error_code
          (string_size (int_range 0 40));
      ])

let arb_msg =
  QCheck.make ~print:F.describe
    QCheck.Gen.(map2 (fun id payload -> { F.id; payload }) gen_id gen_payload)

let prop_frame_round_trip =
  QCheck.Test.make ~name:"frame encode/decode round-trip" ~count:1000 arb_msg
    (fun m ->
      let wire = F.encode m in
      match F.decode wire ~pos:0 with
      | F.Complete (m', consumed) -> m' = m && consumed = String.length wire
      | F.Incomplete | F.Broken _ -> false)

let prop_frame_streaming =
  (* two frames back to back in one buffer, decoded from moving [pos];
     every strict prefix of a frame is Incomplete, never Broken *)
  QCheck.Test.make ~name:"framing survives concatenation and prefixes"
    ~count:300
    (QCheck.pair arb_msg arb_msg)
    (fun (a, b) ->
      let wa = F.encode a and wb = F.encode b in
      let buf = wa ^ wb in
      let first_ok =
        match F.decode buf ~pos:0 with
        | F.Complete (m, c) -> m = a && c = String.length wa
        | _ -> false
      in
      let second_ok =
        match F.decode buf ~pos:(String.length wa) with
        | F.Complete (m, c) -> m = b && c = String.length wb
        | _ -> false
      in
      let prefixes_ok =
        let all = ref true in
        for cut = 0 to String.length wa - 1 do
          match F.decode (String.sub wa 0 cut) ~pos:0 with
          | F.Incomplete -> ()
          | _ -> all := false
        done;
        !all
      in
      first_ok && second_ok && prefixes_ok)

(* ------------------------------------------------------------------ *)
(* PROTOCOL.md conformance: execute the document's worked examples *)

let strip_prefix ~prefix s =
  let s = String.trim s in
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then Some (String.trim (String.sub s (String.length prefix)
                            (String.length s - String.length prefix)))
  else None

let bytes_of_hex hex =
  let digits =
    String.to_seq hex
    |> Seq.filter (fun c -> c <> ' ')
    |> List.of_seq
  in
  if List.length digits mod 2 <> 0 then failwith "odd hex digit count";
  let b = Buffer.create (List.length digits / 2) in
  let rec go = function
    | [] -> ()
    | hi :: lo :: rest ->
        let v c =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> failwith (Printf.sprintf "bad hex digit %c" c)
        in
        Buffer.add_char b (Char.chr ((v hi lsl 4) lor v lo));
        go rest
    | [ _ ] -> assert false
  in
  go digits;
  Buffer.contents b

let protocol_examples () =
  let ic = open_in "../PROTOCOL.md" in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let rec scan acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        match strip_prefix ~prefix:"frame-hex:" line with
        | None -> scan acc rest
        | Some hex -> (
            match rest with
            | expect :: rest' -> (
                match
                  ( strip_prefix ~prefix:"parses-as:" expect,
                    strip_prefix ~prefix:"breaks-as:" expect )
                with
                | Some p, _ -> scan ((hex, `Parses p) :: acc) rest'
                | _, Some b -> scan ((hex, `Breaks b) :: acc) rest'
                | None, None ->
                    failwith
                      ("frame-hex: line not followed by parses-as:/breaks-as:: "
                     ^ hex))
            | [] -> failwith "frame-hex: at end of document"))
  in
  scan [] (List.rev !lines)

let test_protocol_conformance () =
  let examples = protocol_examples () in
  check "PROTOCOL.md carries worked examples" true (List.length examples >= 8);
  List.iter
    (fun (hex, expect) ->
      let wire = bytes_of_hex hex in
      match (F.decode wire ~pos:0, expect) with
      | F.Complete (msg, consumed), `Parses p ->
          check_string ("describe: " ^ p) p (F.describe msg);
          check_int "consumed the whole frame" (String.length wire) consumed;
          (* re-encoding the parsed message must reproduce the
             document's bytes exactly — the codec has one canonical
             encoding and the doc records it *)
          check "re-encode is byte-identical" true (F.encode msg = wire)
      | F.Broken { code; message; _ }, `Breaks b ->
          check_string ("breaks: " ^ b) b (F.error_code_name code ^ " " ^ message)
      | F.Complete (msg, _), `Breaks b ->
          Alcotest.failf "expected broken %S, decoded %s" b (F.describe msg)
      | F.Broken { code; message; _ }, `Parses p ->
          Alcotest.failf "expected %S, broke with %s %s" p
            (F.error_code_name code) message
      | F.Incomplete, _ -> Alcotest.failf "example truncated: %s" hex)
    examples

let test_seed_rule () =
  (* PROTOCOL.md §5: the per-request state IS the pool's chunk
     derivation with the request id as index *)
  List.iter
    (fun (seed, id) ->
      let a = Parallel.Rng.request_state ~server_seed:seed ~request_id:id in
      let b = Parallel.Rng.state ~seed ~index:id in
      for _ = 1 to 16 do
        check_int "same draw" (Random.State.full_int a 1_000_000)
          (Random.State.full_int b 1_000_000)
      done)
    [ (42, 0); (42, 1); (42, 12345); (0x5EED, 7); (1, F.max_id) ]

(* ------------------------------------------------------------------ *)
(* a live server, in-process *)

let sock_ctr = ref 0

let fresh_socket () =
  incr sock_ctr;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-ts-%d-%d.sock" (Unix.getpid ()) !sock_ctr)

let with_server ?(seed = 42) ?(domains = 1) ?(queue_bound = 128)
    ?(max_batch = 64) ?(max_frame = F.default_max_frame) f =
  let socket = fresh_socket () in
  let cfg =
    {
      (Serve.Server.default ~socket) with
      Serve.Server.seed;
      domains;
      queue_bound;
      max_batch;
      max_frame;
    }
  in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Serve.Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Serve.Client.connect ~retries:3 socket in
         Serve.Client.shutdown c ~id:0;
         Serve.Client.close c
       with _ -> ());
      Domain.join srv)
    (fun () -> f socket)

let workload_ids = [ 0; 1; 2; 3; 4; 5; 6; 7; 11; 19 ]

let collect socket =
  let c = Serve.Client.connect socket in
  let rs =
    List.map
      (fun id ->
        let d = Serve.Loadgen.mixed_item ~seed:7 ~m:4 ~n:6 ~id in
        ( id,
          Serve.Client.decide c ~id ~problem:d.F.problem
            ~algorithm:d.F.algorithm ~instance:d.F.instance ))
      workload_ids
  in
  Serve.Client.close c;
  rs

let test_determinism_across_restarts_and_workers () =
  let runs =
    List.map
      (fun domains -> with_server ~seed:42 ~domains collect)
      [ 1; 3; 1 (* third run = a restart with the same seed *) ]
  in
  match runs with
  | [ a; b; c ] ->
      check "restart + worker-count parity" true (a = b && b = c);
      (* every sort/fingerprint verdict passed its theorem-budget audit
         server-side; NST may be an unaudited no-witness rejection *)
      List.iter
        (fun (id, r) ->
          match r with
          | Ok v ->
              let d = Serve.Loadgen.mixed_item ~seed:7 ~m:4 ~n:6 ~id in
              if d.F.algorithm = F.Sort || d.F.algorithm = F.Fingerprint then
                check "audited" true v.F.audited
          | Error (code, m) ->
              Alcotest.failf "request %d errored: %s %s" id
                (F.error_code_name code) m)
        a
  | _ -> assert false

(* The real `stlb serve` binary, one process per worker count (so the
   second is also a restart): the loadgen fingerprint must equal the
   in-process server's, and each process must exit 0 after SHUTDOWN. *)
let stlb =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/stlb.exe"

let test_real_process_parity () =
  let load socket =
    (Serve.Loadgen.run ~socket ~requests:80 ~batch:4 ~seed:7 ())
      .Serve.Loadgen.fingerprint
  in
  let expected = with_server ~seed:42 load in
  List.iter
    (fun jobs ->
      let socket = fresh_socket () in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process stlb
          [|
            stlb; "serve"; "--socket"; socket; "--seed"; "42"; "-j";
            string_of_int jobs;
          |]
          Unix.stdin devnull Unix.stderr
      in
      Unix.close devnull;
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then (
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)))
        (fun () ->
          let fp = load socket in
          let c = Serve.Client.connect socket in
          Serve.Client.shutdown c ~id:80;
          Serve.Client.close c;
          let _, status = Unix.waitpid [] pid in
          reaped := true;
          check (Printf.sprintf "-j %d exits 0 after SHUTDOWN" jobs) true
            (status = Unix.WEXITED 0);
          Alcotest.(check int64)
            (Printf.sprintf "-j %d fingerprint = in-process" jobs)
            expected fp))
    [ 1; 4 ]

let test_batching_equivalence () =
  with_server ~seed:42 @@ fun socket ->
  let base = 100 in
  let items =
    List.map
      (fun i -> Serve.Loadgen.mixed_item ~seed:7 ~m:4 ~n:6 ~id:(base + i))
      [ 0; 1; 2; 3; 4 ]
  in
  let c = Serve.Client.connect socket in
  let batched =
    match Serve.Client.batch c ~id:base items with
    | Ok vs -> vs
    | Error (code, m) ->
        Alcotest.failf "batch errored: %s %s" (F.error_code_name code) m
  in
  let singles =
    List.mapi
      (fun i (d : F.decide_body) ->
        match
          Serve.Client.decide c ~id:(base + i) ~problem:d.F.problem
            ~algorithm:d.F.algorithm ~instance:d.F.instance
        with
        | Ok v -> v
        | Error (code, m) ->
            Alcotest.failf "singleton %d errored: %s %s" (base + i)
              (F.error_code_name code) m)
      items
  in
  Serve.Client.close c;
  check "batch item i = singleton with id base+i" true (batched = singles)

(* ------------------------------------------------------------------ *)
(* the query-layer wire problems (0x04 relalg-symdiff, 0x05 xpath-filter) *)

let test_query_problems_on_the_wire () =
  with_server ~seed:42 @@ fun socket ->
  let c = Serve.Client.connect socket in
  let st = Random.State.make [| 0x94 |] in
  let cases =
    (* (problem, instance, expected verdict): relalg-symdiff is YES iff
       the halves are equal as sets; xpath-filter is YES iff some set1
       string is missing from set2 — opposite polarity on the same
       yes/no generator pairs *)
    let yes = Problems.Generators.yes_instance st D.Set_equality ~m:4 ~n:6 in
    let no = Problems.Generators.no_instance st D.Set_equality ~m:4 ~n:6 in
    [
      (F.Relalg_symdiff, yes, true);
      (F.Relalg_symdiff, no, false);
      (F.Xpath_filter, yes, false);
      (F.Xpath_filter, no, true);
    ]
  in
  List.iteri
    (fun i (problem, inst, expected) ->
      let instance = Problems.Instance.encode inst in
      (* reference and sort agree, and the sort run is audited against
         its Theorem 11(b)/Theorem 13 budget server-side *)
      let reference =
        match
          Serve.Client.decide c ~id:(10 + i) ~problem ~algorithm:F.Reference
            ~instance
        with
        | Ok v -> v
        | Error (code, m) ->
            Alcotest.failf "reference errored: %s %s" (F.error_code_name code) m
      in
      let sort =
        match
          Serve.Client.decide c ~id:(20 + i) ~problem ~algorithm:F.Sort
            ~instance
        with
        | Ok v -> v
        | Error (code, m) ->
            Alcotest.failf "sort errored: %s %s" (F.error_code_name code) m
      in
      check "expected verdict" true (reference.F.verdict = expected);
      check "reference/sort parity" true (sort.F.verdict = expected);
      check "reference unaudited" true (not reference.F.audited);
      check "sort audited" true sort.F.audited;
      check "sort did tape work" true (sort.F.scans > 0))
    cases;
  (* the query problems reject the multiset algorithms loudly *)
  let inst =
    Problems.Instance.encode
      (Problems.Generators.yes_instance st D.Set_equality ~m:3 ~n:4)
  in
  List.iter
    (fun (problem, algorithm) ->
      match Serve.Client.decide c ~id:77 ~problem ~algorithm ~instance:inst with
      | Error (F.Malformed, _) -> ()
      | Error (code, m) ->
          Alcotest.failf "expected MALFORMED, got %s %s"
            (F.error_code_name code) m
      | Ok _ -> Alcotest.fail "fingerprint/nst accepted a query problem")
    [
      (F.Relalg_symdiff, F.Fingerprint); (F.Relalg_symdiff, F.Nst);
      (F.Xpath_filter, F.Fingerprint); (F.Xpath_filter, F.Nst);
    ];
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* the decider table, called directly *)

let test_decider_table () =
  let st = Random.State.make [| 0x17 |] in
  let problems =
    F.
      [
        Core D.Set_equality; Core D.Multiset_equality; Core D.Check_sort;
        Relalg_symdiff; Xpath_filter;
      ]
  in
  let unsupported = ref [] in
  List.iter
    (fun problem ->
      (* the query problems take SET-EQUALITY instances *)
      let core = match problem with F.Core p -> p | _ -> D.Set_equality in
      List.iter
        (fun make ->
          let inst = make st core ~m:3 ~n:4 in
          let run algorithm = Serve.Decider.run st problem algorithm inst in
          let expected = (run F.Reference).Serve.Decider.verdict in
          List.iter
            (fun algorithm ->
              let name =
                F.problem_name problem ^ "/" ^ F.algorithm_name algorithm
              in
              match run algorithm with
              | exception Serve.Decider.Unsupported _ ->
                  unsupported := name :: !unsupported
              | { Serve.Decider.verdict; cost; spec; drawn } ->
                  (* NST with no witness never runs its verifier *)
                  let on_tapes =
                    algorithm <> F.Reference && (algorithm <> F.Nst || verdict)
                  in
                  check (name ^ " verdict") expected verdict;
                  check (name ^ " cost") on_tapes (cost <> None);
                  check (name ^ " spec") (algorithm <> F.Reference) (spec <> None);
                  check (name ^ " drawn") (algorithm = F.Fingerprint) (drawn <> None))
            F.[ Reference; Sort; Fingerprint; Nst ])
        Problems.Generators.[ yes_instance; no_instance ])
    problems;
  check_int "unsupported runs (6 pairs x yes/no)" 12 (List.length !unsupported);
  Alcotest.(check (list string))
    "unsupported pairs"
    [
      "CHECK-SORT/fingerprint"; "RELALG-SYMDIFF/fingerprint"; "RELALG-SYMDIFF/nst";
      "SET-EQUALITY/fingerprint"; "XPATH-FILTER/fingerprint"; "XPATH-FILTER/nst";
    ]
    (List.sort_uniq compare !unsupported)

(* ------------------------------------------------------------------ *)
(* backpressure *)

let test_queue_bound_sheds_loudly () =
  with_server ~queue_bound:2 @@ fun socket ->
  let c = Serve.Client.connect socket in
  let burst = 50 in
  let wire = Buffer.create 1024 in
  for id = 1 to burst do
    Buffer.add_string wire (F.encode { F.id; payload = F.Request F.Ping })
  done;
  (* one write: the server's next read ingests the whole burst before
     the queue drains, so everything past the bound must be shed *)
  Serve.Client.send_raw c (Buffer.contents wire);
  let pongs = ref 0 and shed = ref 0 in
  for _ = 1 to burst do
    match (Serve.Client.read_response c).F.payload with
    | F.Response F.Pong -> incr pongs
    | F.Response (F.Error { code = F.Overloaded; _ }) -> incr shed
    | p -> Alcotest.failf "unexpected response %s" (F.describe { id = 0; payload = p })
  done;
  Serve.Client.close c;
  check_int "every frame answered" burst (!pongs + !shed);
  check "some pings served" true (!pongs >= 2);
  check "overload shed loudly" true (!shed >= 1)

let test_oversized_batch_rejected () =
  with_server ~max_batch:4 @@ fun socket ->
  let c = Serve.Client.connect socket in
  let items =
    List.init 6 (fun i -> Serve.Loadgen.mixed_item ~seed:7 ~m:4 ~n:6 ~id:i)
  in
  (match Serve.Client.batch c ~id:9 items with
  | Error (F.Overloaded, _) -> ()
  | Error (code, m) ->
      Alcotest.failf "expected OVERLOADED, got %s %s" (F.error_code_name code) m
  | Ok _ -> Alcotest.fail "oversized batch accepted");
  (* the connection survives: the batch was shed, not the socket *)
  check "connection still serves" true (Serve.Client.ping c ~id:10);
  Serve.Client.close c

let test_oversized_frame_closes_connection () =
  with_server ~max_frame:256 @@ fun socket ->
  let c = Serve.Client.connect socket in
  let big =
    {
      F.id = 3;
      payload =
        F.Request
          (F.Decide
             {
               F.problem = F.Core D.Multiset_equality;
               algorithm = F.Reference;
               instance = String.make 1000 '0';
             });
    }
  in
  Serve.Client.send_raw c (F.encode big);
  (match (Serve.Client.read_response c).F.payload with
  | F.Response (F.Error { code = F.Too_large; _ }) -> ()
  | p -> Alcotest.failf "expected TOO_LARGE, got %s"
           (F.describe { id = 0; payload = p }));
  Serve.Client.close c;
  (* framing was unrecoverable, so that connection is gone — but the
     server is not: a fresh connection works *)
  let c2 = Serve.Client.connect socket in
  check "server survived" true (Serve.Client.ping c2 ~id:4);
  Serve.Client.close c2

(* ------------------------------------------------------------------ *)
(* malformed-frame fuzz: the server never crashes *)

let test_malformed_fuzz_never_kills_server () =
  with_server @@ fun socket ->
  let st = Random.State.make [| 0xF422 |] in
  for _ = 1 to 60 do
    let c = Serve.Client.connect socket in
    let len = 1 + Random.State.int st 64 in
    let garbage =
      String.init len (fun _ -> Char.chr (Random.State.int st 256))
    in
    Serve.Client.send_raw c garbage;
    Serve.Client.close c
  done;
  (* structured near-misses: valid header shapes with broken payloads *)
  let near_misses =
    [
      (* announced payload shorter than the 10-byte header *)
      "\x00\x00\x00\x04\x01\x01\x00\x00";
      (* wrong version byte *)
      "\x00\x00\x00\x0a\x02\x01\x00\x00\x00\x00\x00\x00\x00\x07";
      (* unknown type byte *)
      "\x00\x00\x00\x0a\x01\x7f\x00\x00\x00\x00\x00\x00\x00\x07";
      (* PING with a non-empty body *)
      "\x00\x00\x00\x0b\x01\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00";
      (* id with bit 63 set *)
      "\x00\x00\x00\x0a\x01\x01\x80\x00\x00\x00\x00\x00\x00\x07";
    ]
  in
  List.iter
    (fun wire ->
      let c = Serve.Client.connect socket in
      Serve.Client.send_raw c wire;
      (* each of these is answered with an ERROR frame, not silence *)
      (match (Serve.Client.read_response c).F.payload with
      | F.Response (F.Error _) -> ()
      | p ->
          Alcotest.failf "expected an error response, got %s"
            (F.describe { id = 0; payload = p }));
      Serve.Client.close c)
    near_misses;
  let c = Serve.Client.connect socket in
  check "server alive after fuzz" true (Serve.Client.ping c ~id:99);
  Serve.Client.close c

(* ------------------------------------------------------------------ *)
(* the client's and the server's receive paths *)

(* Words this domain allocated directly in the major heap. On OCaml 5
   [Gc.counters] belongs to the calling domain, so the server's domain
   is not counted. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A connection reads into the one buffer it owns: a round trip must
   not allocate a fresh 64 KiB chunk (8,193 words straight in the major
   heap) per response. *)
let test_client_reuses_receive_buffer () =
  with_server @@ fun socket ->
  let c = Serve.Client.connect socket in
  ignore (Serve.Client.ping c ~id:0);
  let trips = 1000 in
  let before = direct_major_words () in
  for id = 1 to trips do
    ignore (Serve.Client.ping c ~id)
  done;
  let words = direct_major_words () -. before in
  Serve.Client.close c;
  check
    (Printf.sprintf "%.0f direct major words over %d pings" words trips)
    true
    (words < 64. *. float_of_int trips)

(* The server reads every connection into the one buffer it owns. It
   runs on this domain, so the direct major words counted here are its
   own: a round trip must not cost a fresh 64 KiB chunk per read. *)
let test_server_reuses_receive_buffer () =
  let socket = fresh_socket () in
  let ready = Atomic.make false in
  let trips = 1000 in
  let client =
    Domain.spawn (fun () ->
        while not (Atomic.get ready) do
          Unix.sleepf 0.002
        done;
        let c = Serve.Client.connect socket in
        Fun.protect
          ~finally:(fun () ->
            (try Serve.Client.shutdown c ~id:0 with _ -> ());
            Serve.Client.close c)
          (fun () ->
            List.for_all
              (fun id -> Serve.Client.ping c ~id)
              (List.init trips succ)))
  in
  let before = direct_major_words () in
  Serve.Server.run
    ~on_ready:(fun () -> Atomic.set ready true)
    (Serve.Server.default ~socket);
  let words = direct_major_words () -. before in
  check "every ping answered" true (Domain.join client);
  check
    (Printf.sprintf "%.0f direct major words over %d round trips" words
       (trips + 1))
    true
    (words < 64. *. float_of_int (trips + 1))

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* A raw client splits and joins frames the ways a stream socket may
   deliver them to the server: a PING one byte per write, two PINGs in
   one write, a DECIDE larger than the server's 64 KiB receive buffer
   with a PING in the same write, and half a frame before a close. *)
let test_server_framing_edge_cases () =
  with_server @@ fun socket ->
  let ping id = F.encode { F.id; payload = F.Request F.Ping } in
  let big = Serve.Loadgen.mixed_item ~seed:7 ~m:1000 ~n:50 ~id:4 in
  let big_frame = F.encode { F.id = 4; payload = F.Request (F.Decide big) } in
  check "DECIDE frame outgrows the receive buffer" true
    (String.length big_frame > 65536);
  let c = Serve.Client.connect socket in
  String.iter
    (fun ch ->
      Serve.Client.send_raw c (String.make 1 ch);
      Unix.sleepf 0.0005)
    (ping 1);
  Serve.Client.send_raw c (ping 2 ^ ping 3);
  Serve.Client.send_raw c (big_frame ^ ping 5);
  List.iter
    (fun id ->
      let got = Serve.Client.read_response c in
      check (Printf.sprintf "response id=%d in order" id) true (got.F.id = id);
      match got.F.payload with
      | F.Response F.Pong when id <> 4 -> ()
      | F.Response (F.Verdict v) when id = 4 ->
          check "big DECIDE audited" true v.F.audited
      | p ->
          Alcotest.failf "id=%d: unexpected %s" id
            (F.describe { id; payload = p }))
    [ 1; 2; 3; 4; 5 ];
  Serve.Client.close c;
  let half = ping 6 in
  let c = Serve.Client.connect socket in
  Serve.Client.send_raw c (String.sub half 0 (String.length half / 2));
  Serve.Client.close c;
  let c = Serve.Client.connect socket in
  check "a new connection is answered after the close" true
    (Serve.Client.ping c ~id:7);
  Serve.Client.close c

(* A fake peer splits and joins responses the ways a stream socket may
   deliver them: one byte per write, two responses in one write, and a
   response larger than the client's 64 KiB receive buffer with the
   next response in the same write. *)
let test_client_framing_edge_cases () =
  let path = fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let pong id = { F.id; payload = F.Response F.Pong } in
  let big =
    {
      F.id = 4;
      payload = F.Response (F.Stats_json (String.make 200_000 'x'));
    }
  in
  let expected = [ pong 1; pong 2; pong 3; big; pong 5 ] in
  let peer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept lfd in
        String.iter
          (fun ch ->
            write_all fd (String.make 1 ch);
            Unix.sleepf 0.0005)
          (F.encode (pong 1));
        write_all fd (F.encode (pong 2) ^ F.encode (pong 3));
        write_all fd (F.encode big ^ F.encode (pong 5));
        Unix.close fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join peer;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Serve.Client.connect path in
      List.iter
        (fun want ->
          let got = Serve.Client.read_response c in
          check (Printf.sprintf "response id=%d in order" want.F.id) true
            (got = want))
        expected;
      (match Serve.Client.read_response c with
      | m -> Alcotest.failf "read past the peer's close: %s" (F.describe m)
      | exception Failure _ -> ());
      Serve.Client.close c)

(* ------------------------------------------------------------------ *)
(* stats / health *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_stats_and_health () =
  with_server ~seed:13 @@ fun socket ->
  let c = Serve.Client.connect socket in
  ignore (Serve.Client.ping c ~id:1);
  let d = Serve.Loadgen.mixed_item ~seed:7 ~m:4 ~n:6 ~id:2 in
  ignore
    (Serve.Client.decide c ~id:2 ~problem:d.F.problem ~algorithm:d.F.algorithm
       ~instance:d.F.instance);
  let s = Serve.Client.stats c ~id:3 in
  List.iter
    (fun needle -> check ("stats has " ^ needle) true (contains ~needle s))
    [ "\"pings\":1"; "\"decides\":1"; "\"counters\":{" ];
  let h = Serve.Client.health c ~id:4 in
  List.iter
    (fun needle -> check ("health has " ^ needle) true (contains ~needle h))
    [ "\"status\":\"ok\""; "\"seed\":13"; "\"device\":\"mem\"" ];
  Serve.Client.close c

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest prop_frame_round_trip;
          QCheck_alcotest.to_alcotest prop_frame_streaming;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "PROTOCOL.md hex examples execute" `Quick
            test_protocol_conformance;
          Alcotest.test_case "seed rule = pool chunk derivation" `Quick
            test_seed_rule;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "restarts and worker counts" `Slow
            test_determinism_across_restarts_and_workers;
          Alcotest.test_case "real stlb serve processes" `Slow
            test_real_process_parity;
          Alcotest.test_case "batching equivalence" `Quick
            test_batching_equivalence;
          Alcotest.test_case "query problems on the wire" `Quick
            test_query_problems_on_the_wire;
        ] );
      ( "decider",
        [
          Alcotest.test_case "all 20 problem x algorithm pairs" `Quick
            test_decider_table;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "queue bound sheds loudly" `Quick
            test_queue_bound_sheds_loudly;
          Alcotest.test_case "oversized batch rejected" `Quick
            test_oversized_batch_rejected;
          Alcotest.test_case "oversized frame closes connection" `Quick
            test_oversized_frame_closes_connection;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "malformed frames never kill the server" `Quick
            test_malformed_fuzz_never_kills_server;
        ] );
      ( "client",
        [
          Alcotest.test_case "one receive buffer per connection" `Quick
            test_client_reuses_receive_buffer;
          Alcotest.test_case "split and joined responses" `Quick
            test_client_framing_edge_cases;
        ] );
      ( "server",
        [
          Alcotest.test_case "one receive buffer per server" `Quick
            test_server_reuses_receive_buffer;
          Alcotest.test_case "split and joined requests" `Quick
            test_server_framing_edge_cases;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats and health JSON" `Quick
            test_stats_and_health;
        ] );
    ]
