(* The query front-end: parser/pretty round-trip laws, compiled-vs-
   naive semantics, the differential fuzzer's determinism contract
   (bit-identical campaigns for -j 1/2/4 and mem/file/shard devices),
   the injected-bug negative control, and the pinned regression corpus
   of shrunk counterexample programs. *)

module Q = Query

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* helpers *)

let parse_expr s =
  match Q.Parser.parse_expr_string s with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse error: %s" (Q.Parser.error_to_string e)

(* execute the last statement of [src] through the tape pipeline and
   compare against the naive oracle *)
let differential ?device src =
  match Q.Parser.parse_program src with
  | Error e -> Alcotest.failf "parse error: %s" (Q.Parser.error_to_string e)
  | Ok stmts ->
      let env = ref [] in
      let outcome = ref None in
      List.iter
        (fun stmt ->
          match stmt with
          | Q.Ast.Bind (x, e) ->
              let k, rows = Q.Naive.eval !env e in
              env := (x, (k, rows)) :: !env
          | Q.Ast.Eval e -> (
              let _, want = Q.Naive.eval !env e in
              match Q.Exec.run ?device ~env:!env e with
              | Error m -> Alcotest.failf "exec error: %s" m
              | Ok o ->
                  check "compiled = naive" true (o.Q.Exec.rows = want);
                  outcome := Some o))
        stmts;
      match !outcome with
      | Some o -> o
      | None -> Alcotest.fail "program had no Eval statement"

let spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-query-%d" (Unix.getpid ()))

let device_specs () =
  [
    ("mem", Tape.Device.Mem);
    ("file", Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:2 spill);
    ("shard", Tape.Device.shard_spec ~shard_bytes:256 spill);
  ]

(* ------------------------------------------------------------------ *)
(* parsing and printing *)

let test_parse_shapes () =
  (match parse_expr "r1 + r2 - r3" with
  | Q.Ast.Diff (Q.Ast.Union _, _) -> ()
  | _ -> Alcotest.fail "sum ops associate left");
  (match parse_expr "r1 o r2 o r3" with
  | Q.Ast.Compose (Q.Ast.Compose _, _) -> ()
  | _ -> Alcotest.fail "compose associates left");
  (match parse_expr "r1 + r2 o r3" with
  | Q.Ast.Union (_, Q.Ast.Compose _) -> ()
  | _ -> Alcotest.fail "compose binds tighter than sum");
  match parse_expr "[<1, 10>, <2, 20>]" with
  | Q.Ast.Lit [ [ "1"; "10" ]; [ "2"; "20" ] ] -> ()
  | _ -> Alcotest.fail "literal tuples"

let test_parse_comprehension () =
  match parse_expr "[ <x, z> | <x, y> <- r3, <y2, z> <- r4, y == y2, x != \"0\" ]" with
  | Q.Ast.Comp ([ Q.Ast.Svar "x"; Q.Ast.Svar "z" ], [ _; _; _; _ ]) -> ()
  | _ -> Alcotest.fail "comprehension shape"

let test_parse_errors_located () =
  let cases =
    [ "r1 +"; "[<1,2>"; "[<1,2> <3>]"; "<1>"; "xfilter(r1"; "\"unterminated";
      "[ <x> | ]"; "r1 ++ r2"; "!"; "[<1,\x01>]" ]
  in
  List.iter
    (fun src ->
      match Q.Parser.parse_program src with
      | Ok _ -> Alcotest.failf "expected parse error for %S" src
      | Error e ->
          check ("line positive for " ^ src) true (e.Q.Parser.line >= 1);
          check ("col positive for " ^ src) true (e.Q.Parser.col >= 1))
    cases

let test_parse_never_raises_qcheck =
  QCheck.Test.make ~count:2000 ~name:"parse total on arbitrary bytes"
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun src ->
      match Q.Parser.parse_program src with Ok _ -> true | Error _ -> true)

let test_deep_nesting_is_error () =
  let src = String.make 5000 '(' ^ "r1" ^ String.make 5000 ')' in
  match Q.Parser.parse_program src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected depth-cap error"

(* the fuzzer's generator as a qcheck generator *)
let gen_ast_expr =
  QCheck.make
    ~print:(fun e -> Q.Pretty.expr e)
    (fun st ->
      let g = { Q.Fuzz.rng = st; vars = 0 } in
      let arity = 1 + Random.State.int st 2 in
      let depth = 2 + Random.State.int st 2 in
      Q.Fuzz.gen_expr g ~arity ~depth ~wb:4)

let test_roundtrip_qcheck =
  QCheck.Test.make ~count:500 ~name:"parse (pretty_print e) = e" gen_ast_expr
    (fun e ->
      match Q.Parser.parse_expr_string (Q.Pretty.expr e) with
      | Ok e' -> Q.Ast.equal_expr e e'
      | Error err ->
          QCheck.Test.fail_reportf "re-parse failed: %s on %s"
            (Q.Parser.error_to_string err) (Q.Pretty.expr e))

(* ------------------------------------------------------------------ *)
(* semantics: compiled pipeline vs naive oracle *)

let test_set_ops () =
  let o =
    differential
      "a = [<1>, <2>, <3>]; b = [<2>, <4>]; (a - b) + (b - a) & (a + b)"
  in
  check "symdiff rows" true (o.Q.Exec.rows = [ [ "1" ]; [ "3" ]; [ "4" ] ])

let test_compose () =
  let o =
    differential "r = [<1, 10>, <2, 20>]; s = [<10, 100>, <20, 200>]; r o s"
  in
  check "compose rows" true
    (o.Q.Exec.rows = [ [ "1"; "100" ]; [ "2"; "200" ] ])

let test_comprehension_join () =
  let o =
    differential
      "e = [<\"a\", \"b\">, <\"b\", \"c\">, <\"c\", \"d\">]; [ <x, z> | <x, y> \
       <- e, <y2, z> <- e, y == y2 ]"
  in
  check "two-step paths" true (o.Q.Exec.rows = [ [ "a"; "c" ]; [ "b"; "d" ] ])

let test_comprehension_guards_consts () =
  let o =
    differential
      "r = [<0, \"a\">, <1, \"b\">, <1, \"c\">]; [ <\"hit\", y> | <1, y> <- r, \
       y != \"c\" ]"
  in
  check "const pattern + guard + const head" true
    (o.Q.Exec.rows = [ [ "hit"; "b" ] ])

let test_xfilter_xeq () =
  let o = differential "a = [<1>, <2>]; b = [<1>]; xfilter(a, b)" in
  check "xfilter true" true (o.Q.Exec.rows = [ [ "true" ] ]);
  let o = differential "a = [<1>, <2>]; b = [<2>, <1>, <1>]; xeq(a, b)" in
  check "xeq true" true (o.Q.Exec.rows = [ [ "true" ] ]);
  let o = differential "a = [<1>, <2>]; b = [<1>]; xeq(a, b)" in
  check "xeq false" true (o.Q.Exec.rows = []);
  let o = differential "a = []; b = [<1>]; xfilter(a, b)" in
  check "xfilter empty lhs" true (o.Q.Exec.rows = [])

let test_empty_literal_is_unary () =
  let o = differential "[] + [<9>]" in
  check_int "arity 1" 1 o.Q.Exec.arity;
  check "rows" true (o.Q.Exec.rows = [ [ "9" ] ])

let test_type_errors () =
  let env = [ ("r1", (1, [ [ "1" ] ])) ] in
  let expect_err src =
    let e = parse_expr src in
    match Q.Exec.run ~env e with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected type error for %S" src
  in
  expect_err "r1 + [<1, 2>]";
  expect_err "r1 o r1";
  expect_err "nosuch";
  expect_err "xfilter(r1, [<1, 2>])";
  expect_err "[ <x, x> | <x> <- r1 ]";
  expect_err "[ <y> | <x> <- r1 ]";
  expect_err "[ <1> | 1 == 1 ]"

let test_audits_pass_on_devices () =
  List.iter
    (fun (name, device) ->
      let o =
        differential ~device
          "e = [<\"a\", \"b\">, <\"b\", \"c\">, <\"c\", \"d\">, <\"d\", \
           \"e\">]; xeq([ <y> | <x, y> <- e o e ], [ <\"c\">, <\"d\">, \
           <\"e\"> ]) + ([ <z> | <z, w> <- e, w < \"c\" ] - [<\"a\">])"
      in
      check (name ^ ": audit ok") true o.Q.Exec.audit_ok;
      check (name ^ ": nodes audited") true (List.length o.Q.Exec.nodes > 5))
    (device_specs ())

(* scan counts are device-blind (the E18 property, inherited here) *)
let test_scans_backend_blind () =
  let outcomes =
    List.map
      (fun (_, device) ->
        let o =
          differential ~device
            "r = [<1, 10>, <2, 20>, <3, 10>]; s = [<10, 9>, <20, 8>]; r o s"
        in
        (o.Q.Exec.scans, o.Q.Exec.rows))
      (device_specs ())
  in
  match outcomes with
  | (s0, r0) :: rest ->
      List.iter
        (fun (s, r) ->
          check_int "same scans" s0 s;
          check "same rows" true (r = r0))
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* the differential fuzzer *)

let campaign_fingerprint ?pool ?device ~seed ~iters () =
  let c = Q.Fuzz.run_campaign ?pool ?device ~seed ~iters () in
  if c.Q.Fuzz.mismatches > 0 || c.Q.Fuzz.audit_failures > 0 then
    print_string (Q.Fuzz.report c);
  check_int "no mismatches" 0 c.Q.Fuzz.mismatches;
  check_int "no audit failures" 0 c.Q.Fuzz.audit_failures;
  c.Q.Fuzz.fingerprint

let test_campaign_deterministic_workers () =
  let base = campaign_fingerprint ~seed:42 ~iters:25 () in
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains () in
      let fp = campaign_fingerprint ~pool ~seed:42 ~iters:25 () in
      Alcotest.(check int64)
        (Printf.sprintf "-j %d fingerprint" domains)
        base fp)
    [ 1; 2; 4 ]

let test_campaign_deterministic_devices () =
  let base = campaign_fingerprint ~seed:43 ~iters:15 () in
  List.iter
    (fun (name, device) ->
      let fp = campaign_fingerprint ~device ~seed:43 ~iters:15 () in
      Alcotest.(check int64) (name ^ " fingerprint") base fp)
    (device_specs ())

let test_injected_bug_caught () =
  (* the hidden compiler fault: composition operands swapped. The
     differential check must find a witness within 200 iterations. *)
  Q.Compile.swap_compose := true;
  Fun.protect
    ~finally:(fun () -> Q.Compile.swap_compose := false)
    (fun () ->
      let caught = ref None in
      let index = ref 0 in
      while !caught = None && !index < 200 do
        let r = Q.Fuzz.run_case ~seed:7 ~index:!index () in
        if not r.Q.Fuzz.c_ok then caught := Some (!index, r);
        incr index
      done;
      match !caught with
      | None -> Alcotest.fail "swapped-compose bug survived 200 iterations"
      | Some (_, r) -> (
          match r.Q.Fuzz.c_discrepancy with
          | None -> Alcotest.fail "mismatch without discrepancy record"
          | Some d ->
              (* the shrunk program must itself be a replayable witness *)
              check "shrunk program parses" true
                (match Q.Parser.parse_program d.Q.Fuzz.d_program with
                | Ok _ -> true
                | Error _ -> false)))

let test_fuzz_case_deterministic () =
  let a = Q.Fuzz.run_case ~seed:5 ~index:3 () in
  let b = Q.Fuzz.run_case ~seed:5 ~index:3 () in
  Alcotest.(check int64)
    "case fingerprint stable" a.Q.Fuzz.c_fingerprint b.Q.Fuzz.c_fingerprint;
  check "distinct indices differ" true
    (a.Q.Fuzz.c_fingerprint
    <> (Q.Fuzz.run_case ~seed:5 ~index:4 ()).Q.Fuzz.c_fingerprint)

(* ------------------------------------------------------------------ *)
(* regression corpus: shrunk counterexamples found during development.
   Each entry replays a program that once exposed a planner bug; the
   compiled pipeline must agree with the oracle forever after. *)

let corpus =
  [
    (* swapped-compose family: shrunk by the fuzzer from injected-bug
       campaigns (stlb query --fuzz --inject-swap-compose, seeds 7, 13,
       21, 34). Compose is the one operator whose operand order the
       lowering must get right end-to-end. *)
    "r3 = [<10, \"a\">]; r3 o [<0, 10>]";
    "r3 = [<7, 2>]; [<0, 7>] o r3";
    "r3 = [<2, \"00\">]; r3 o [<\"00\", 0>, <\"00\", \"b\">]";
    "r4 = [<0, \"a\">, <\"a\", \"ab\">]; r4 o r4 o [<10, 1>, <\"ab\", \"01\">]";
    "r4 = [<\"ab\", 10>]; ([<\"a\", 11>] + [<11, \"ab\">, <\"ba\", \"01\">]) o (r4 + [<1, 10>])";
    "r3 = [<\"b\", 7>]; r3 o ([<0, \"00\">, <\"01\", 0>, <\"ba\", \"01\">] + [<7, \"01\">, <\"ba\", \"b\">] - ([<11, 1>] & r3))";
    "r3 = [<\"ba\", \"a\">]; [<\"a\", \"01\">, <\"ab\", \"b\">] o (r3 & [<1, 11>, <11, \"ab\">, <\"ba\", \"a\">])";
    "r1 = [<\"ab\">]; [ <v2, 7> | <v2> <- [<10>, <7>] ] o [ <v1, 10> | <v1> <- r1, <\"ab\"> <- r1 ]";
    "r1 = [<2>]; [<10, 10>] o [ <10, v1> | <_, _> <- [ <7, 1> | <_> <- r1 ], <v1> <- r1 - [<\"01\">, <\"b\">], v1 < 7 ]";
    "r1 = [<\"ba\">]; r4 = [<\"b\", 7>]; [<\"00\", \"a\">, <2, 11>, <\"ba\", 0>] o [ <10, v3> | <v2> <- [ <v1> | <v1, _> <- r4 ], <v3> <- r1 + [] ]";
    "r3 = [<\"ba\", 7>]; (r3 - [<1, \"00\">, <1, 10>, <11, \"ab\">]) o [ <\"00\", \"ba\"> | <7> <- [<7>, <\"ab\">, <\"ba\">] ]";
    (* empty-literal family: [] is the empty *unary* relation; during
       development the generator emitted it in arity-2 positions, and
       these pins keep its typing and set-op semantics honest *)
    "[ <x> | <x> <- [] ]";
    "r1 = [<\"a\">]; (r1 + []) - ([] & r1)";
    "xfilter([] + [<\"q\">], [])";
    (* document-builtin verdicts as relational values feeding compose *)
    "a = [<\"p\">, <\"q\">]; b = [<\"p\">]; [ <x, 1> | <x> <- xfilter(a, b) ] o [<1, \"yes\">]";
    "a = [<\"p\">]; [ <x, 0> | <x> <- xeq(a, a + a) ] o [<0, \"true\">]";
  ]

let test_corpus_replay () =
  List.iter (fun src -> ignore (differential src)) corpus;
  (* plus: the swapped-compose witness family stays mismatching under
     the bug flag, proving the corpus would catch a regression *)
  Q.Compile.swap_compose := true;
  Fun.protect
    ~finally:(fun () -> Q.Compile.swap_compose := false)
    (fun () ->
      let env = [ ("r", (2, [ [ "1"; "2" ] ])); ("s", (2, [ [ "2"; "3" ] ])) ] in
      let e = parse_expr "r o s" in
      let _, want = Q.Naive.eval env e in
      match Q.Exec.run ~env e with
      | Error m -> Alcotest.failf "exec error: %s" m
      | Ok o -> check "bug still detectable" true (o.Q.Exec.rows <> want))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "query"
    [
      ( "parse",
        [
          Alcotest.test_case "operator shapes" `Quick test_parse_shapes;
          Alcotest.test_case "comprehension" `Quick test_parse_comprehension;
          Alcotest.test_case "errors located" `Quick test_parse_errors_located;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting_is_error;
        ] );
      qsuite "laws" [ test_roundtrip_qcheck; test_parse_never_raises_qcheck ];
      ( "semantics",
        [
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "comprehension join" `Quick test_comprehension_join;
          Alcotest.test_case "consts and guards" `Quick
            test_comprehension_guards_consts;
          Alcotest.test_case "xfilter/xeq" `Quick test_xfilter_xeq;
          Alcotest.test_case "empty literal" `Quick test_empty_literal_is_unary;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "audits on devices" `Quick
            test_audits_pass_on_devices;
          Alcotest.test_case "backend-blind scans" `Quick
            test_scans_backend_blind;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "campaign -j 1/2/4" `Quick
            test_campaign_deterministic_workers;
          Alcotest.test_case "campaign devices" `Quick
            test_campaign_deterministic_devices;
          Alcotest.test_case "injected bug caught" `Quick
            test_injected_bug_caught;
          Alcotest.test_case "case determinism" `Quick
            test_fuzz_case_deterministic;
          Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
        ] );
    ]
