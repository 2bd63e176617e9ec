(* Tests for the XML library: serialization/parsing, the Section 4
   instance encoding, the XPath engine on Figure 1, the XQuery-lite
   evaluator for the Theorem 12 query, and the streaming filter. *)

module G = Problems.Generators
module D = Problems.Decide
module I = Problems.Instance
module Doc = Xmlq.Doc
module Xpath = Xmlq.Xpath
module Xquery = Xmlq.Xquery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Documents *)

let test_serialize () =
  let d = Doc.element "a" [ Doc.element "b" [ Doc.text "01" ]; Doc.text "1" ] in
  check_str "serialized" "<a><b>01</b>1</a>" (Doc.serialize d);
  check_int "stream length" 17 (Doc.stream_length d)

let test_parse_roundtrip () =
  let docs =
    [
      Doc.element "a" [];
      Doc.element "a" [ Doc.text "0101" ];
      Doc.element "a" [ Doc.element "b" []; Doc.element "b" [ Doc.text "1" ] ];
    ]
  in
  List.iter
    (fun d -> check "roundtrip" true (Doc.parse (Doc.serialize d) = d))
    docs

let test_parse_errors () =
  List.iter
    (fun s ->
      try
        ignore (Doc.parse s);
        Alcotest.fail (Printf.sprintf "accepted %S" s)
      with Invalid_argument _ -> ())
    [ ""; "<a>"; "<a></b>"; "text"; "<a></a><b></b>"; "<a>></a>"; "<1a></1a>" ]

let test_instance_encoding_roundtrip () =
  let st = Random.State.make [| 90 |] in
  for _ = 1 to 30 do
    let inst, _ = G.labelled st D.Set_equality ~m:5 ~n:8 in
    let doc = Doc.of_instance inst in
    check "parse . serialize = id" true (Doc.parse (Doc.serialize doc) = doc);
    check "to_instance inverts" true (I.equal (Doc.to_instance doc) inst)
  done

let test_string_value () =
  let d = Doc.element "a" [ Doc.element "b" [ Doc.text "01" ]; Doc.text "10" ] in
  check_str "concatenated" "0110" (Doc.string_value d)

(* ------------------------------------------------------------------ *)
(* XPath *)

let doc_of xs ys =
  let bs = Util.Bitstring.of_string in
  Doc.of_instance
    (I.make (Array.of_list (List.map bs xs)) (Array.of_list (List.map bs ys)))

let test_simple_paths () =
  let d = doc_of [ "00"; "01" ] [ "01"; "00" ] in
  let strings set =
    [
      Xpath.step Xpath.Child "instance";
      Xpath.step Xpath.Child set;
      Xpath.step Xpath.Child "item";
      Xpath.step Xpath.Child "string";
    ]
  in
  Alcotest.(check (list string)) "set1 strings" [ "00"; "01" ]
    (Xpath.select_values d (strings "set1"));
  Alcotest.(check (list string)) "set2 strings" [ "01"; "00" ]
    (Xpath.select_values d (strings "set2"));
  (* descendant finds items at any depth *)
  check_int "all items" 4
    (List.length (Xpath.select d [ Xpath.step Xpath.Descendant "item" ]))

let test_ancestor_axis () =
  let d = doc_of [ "0" ] [ "1" ] in
  let path =
    [
      Xpath.step Xpath.Descendant "string";
      Xpath.step Xpath.Ancestor "instance";
    ]
  in
  check_int "both strings reach the root" 1 (List.length (Xpath.select d path))

let test_figure1_semantics () =
  (* figure 1 selects set1 items whose string is missing from set2 *)
  let cases =
    [
      ([ "00"; "01" ], [ "01"; "00" ], false);  (* equal sets *)
      ([ "00"; "01" ], [ "00"; "00" ], true);  (* 01 missing *)
      ([ "00"; "00" ], [ "00"; "11" ], false);  (* subset: nothing missing *)
      ([ "11"; "11" ], [ "00"; "00" ], true);
    ]
  in
  List.iter
    (fun (xs, ys, expect) ->
      check
        (Printf.sprintf "%s vs %s" (String.concat "," xs) (String.concat "," ys))
        true
        (Xpath.matches (doc_of xs ys) Xpath.figure1 = expect))
    cases

let prop_figure1_equals_set_difference =
  QCheck.Test.make ~name:"figure1 matches iff set1 - set2 nonempty" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let inst, _ = G.labelled st D.Set_equality ~m:5 ~n:6 in
      let xs = Array.to_list (I.xs inst) and ys = Array.to_list (I.ys inst) in
      let expect = List.exists (fun x -> not (List.mem x ys)) xs in
      Xpath.matches (Doc.of_instance inst) Xpath.figure1 = expect)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_pp_path () =
  let s = Format.asprintf "%a" Xpath.pp_path Xpath.figure1 in
  check "mentions the descendant step" true (contains_sub s "descendant::set1");
  check "mentions the negated predicate" true (contains_sub s "not(")

(* ------------------------------------------------------------------ *)
(* XQuery *)

let test_theorem12_query () =
  let st = Random.State.make [| 91 |] in
  for _ = 1 to 40 do
    let inst, label = G.labelled st D.Set_equality ~m:6 ~n:8 in
    let doc = Doc.of_instance inst in
    check "query decides set-equality" true
      (Xquery.holds Xquery.theorem12_query doc = label)
  done

let test_query_result_document () =
  let yes = doc_of [ "0" ] [ "0" ] in
  let no = doc_of [ "0" ] [ "1" ] in
  check_str "yes result" "<result><true></true></result>"
    (Doc.serialize (Xquery.eval Xquery.theorem12_query yes));
  check_str "no result" "<result></result>"
    (Doc.serialize (Xquery.eval Xquery.theorem12_query no))

let test_unbound_variable () =
  let q = { Xquery.wrapper = "r"; witness = "t"; cond = Xquery.Var_eq ("a", "b") } in
  try
    ignore (Xquery.holds q (doc_of [ "0" ] [ "0" ]));
    Alcotest.fail "unbound variable accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Streaming filter *)

let test_streaming_filter_agrees () =
  let st = Random.State.make [| 92 |] in
  for _ = 1 to 40 do
    let inst, _ = G.labelled st D.Set_equality ~m:6 ~n:8 in
    let doc = Doc.of_instance inst in
    let expected = Xpath.matches doc Xpath.figure1 in
    let got, _ = Xmlq.Stream_filter.figure1_filter (Doc.serialize doc) in
    check "streaming = tree evaluation" true (got = expected)
  done

let test_streaming_filter_resources () =
  let st = Random.State.make [| 93 |] in
  let points =
    List.map
      (fun m ->
        let inst = G.yes_instance st D.Set_equality ~m ~n:10 in
        let got, rep =
          Xmlq.Stream_filter.figure1_filter (Doc.serialize (Doc.of_instance inst))
        in
        check "equal sets never match" false got;
        check "O(1) registers" true (rep.Xmlq.Stream_filter.registers <= 16);
        (rep.Xmlq.Stream_filter.n, rep.Xmlq.Stream_filter.scans))
      [ 8; 16; 32; 64; 128; 256 ]
  in
  let _, _, r2 = Util.Stats.log2_fit (Array.of_list points) in
  check (Printf.sprintf "log growth r2=%.3f" r2) true (r2 > 0.97)

let test_streaming_theorem12 () =
  let st = Random.State.make [| 94 |] in
  for _ = 1 to 40 do
    let inst, label = G.labelled st D.Set_equality ~m:6 ~n:8 in
    let stream = Doc.serialize (Doc.of_instance inst) in
    let got, rep = Xmlq.Stream_filter.theorem12_query stream in
    check "decides set equality" true (got = label);
    check "O(1) registers" true (rep.Xmlq.Stream_filter.registers <= 16)
  done;
  (* agrees with the tree-walking XQuery evaluator *)
  for _ = 1 to 20 do
    let inst, _ = G.labelled st D.Set_equality ~m:5 ~n:6 in
    let doc = Doc.of_instance inst in
    let got, _ = Xmlq.Stream_filter.theorem12_query (Doc.serialize doc) in
    check "streaming = XQuery" true
      (got = Xquery.holds Xquery.theorem12_query doc)
  done

let test_streaming_filter_rejects_garbage () =
  try
    ignore (Xmlq.Stream_filter.figure1_filter "<a><string>01</string></a>");
    Alcotest.fail "string outside sets accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "xmlq"
    [
      ( "documents",
        [
          Alcotest.test_case "serialize" `Quick test_serialize;
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "instance encoding" `Quick test_instance_encoding_roundtrip;
          Alcotest.test_case "string value" `Quick test_string_value;
        ] );
      ( "xpath",
        [
          Alcotest.test_case "simple paths" `Quick test_simple_paths;
          Alcotest.test_case "ancestor axis" `Quick test_ancestor_axis;
          Alcotest.test_case "figure 1 semantics" `Quick test_figure1_semantics;
          Alcotest.test_case "pretty printing" `Quick test_pp_path;
          QCheck_alcotest.to_alcotest prop_figure1_equals_set_difference;
        ] );
      ( "xquery",
        [
          Alcotest.test_case "theorem 12 query" `Quick test_theorem12_query;
          Alcotest.test_case "result document" `Quick test_query_result_document;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
        ] );
      ( "streaming filter",
        [
          Alcotest.test_case "agrees with tree eval" `Quick test_streaming_filter_agrees;
          Alcotest.test_case "resources" `Quick test_streaming_filter_resources;
          Alcotest.test_case "theorem 12 streaming" `Quick test_streaming_theorem12;
          Alcotest.test_case "garbage rejected" `Quick test_streaming_filter_rejects_garbage;
        ] );
    ]
