(* Tests for the util library: bit strings, permutations, the
   sortedness measure of Definition 19 and Remark 20, statistics, and
   the published test vectors of the hashes. *)

module B = Util.Bitstring
module P = Util.Permutation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bitstring *)

let test_of_to_string () =
  check_str "roundtrip" "0110" (B.to_string (B.of_string "0110"));
  check_str "empty" "" (B.to_string (B.of_string ""));
  Alcotest.check_raises "bad char" (Invalid_argument "Bitstring.of_string: bad char 'x'")
    (fun () -> ignore (B.of_string "01x0"))

let test_of_int () =
  check_str "5 in 4 bits" "0101" (B.to_string (B.of_int ~width:4 5));
  check_str "0 in 3 bits" "000" (B.to_string (B.of_int ~width:3 0));
  check_int "to_int" 5 (B.to_int (B.of_string "0101"));
  check_int "max" 15 (B.to_int (B.of_int ~width:4 15));
  (try
     ignore (B.of_int ~width:3 8);
     Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ())

let test_compare () =
  check "lex" true (B.compare (B.of_string "0011") (B.of_string "0100") < 0);
  check "prefix" true (B.compare (B.of_string "01") (B.of_string "011") < 0);
  check "equal" true (B.compare (B.of_string "01") (B.of_string "01") = 0)

let test_get_sub_concat () =
  let v = B.of_string "10110" in
  check "msb" true (B.get v 0);
  check "bit1" false (B.get v 1);
  check_str "sub" "011" (B.to_string (B.sub v ~pos:1 ~len:3));
  check_str "concat" "1010"
    (B.to_string (B.concat [ B.of_string "10"; B.of_string "10" ]));
  check_str "zero" "0000" (B.to_string (B.zero ~width:4))

let test_fold_bits () =
  let v = B.of_string "101" in
  let collected = B.fold_bits (fun i b acc -> (i, b) :: acc) v [] in
  Alcotest.(check (list (pair int bool)))
    "msb first"
    [ (2, true); (1, false); (0, true) ]
    collected

let test_random_in_range () =
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 100 do
    let v = B.random_in_range st ~width:6 ~lo:16 ~hi:32 in
    let x = B.to_int v in
    check "in range" true (x >= 16 && x < 32);
    check_int "width" 6 (B.length v)
  done

let prop_int_roundtrip =
  QCheck.Test.make ~name:"of_int/to_int roundtrip" ~count:200
    QCheck.(pair (int_bound 20) (int_bound 1000))
    (fun (extra, x) ->
      let width = extra + 10 in
      B.to_int (B.of_int ~width x) = x)

let prop_compare_matches_int =
  QCheck.Test.make ~name:"lex order = numeric order at equal widths" ~count:300
    QCheck.(pair (int_bound 4095) (int_bound 4095))
    (fun (a, b) ->
      let va = B.of_int ~width:12 a and vb = B.of_int ~width:12 b in
      Int.compare a b = Int.compare (B.compare va vb) 0
      || compare (B.compare va vb > 0) (a > b) = 0)

(* ------------------------------------------------------------------ *)
(* Permutation *)

let test_identity_inverse () =
  let id = P.identity 6 in
  check "id apply" true (List.for_all (fun i -> P.apply id i = i) [ 1; 2; 3; 4; 5; 6 ]);
  let st = Random.State.make [| 2 |] in
  for _ = 1 to 20 do
    let p = P.random st 9 in
    let q = P.inverse p in
    check "inverse" true (P.equal (P.compose p q) (P.identity 9));
    check "inverse'" true (P.equal (P.compose q p) (P.identity 9))
  done

let test_of_array_validation () =
  (try
     ignore (P.of_array [| 1; 1; 3 |]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (P.of_array [| 0; 1 |]);
    Alcotest.fail "out of range accepted"
  with Invalid_argument _ -> ()

let test_reverse_binary () =
  (* m = 8: reversing 3-bit indices of 0..7 gives 0 4 2 6 1 5 3 7 *)
  let p = P.reverse_binary 8 in
  Alcotest.(check (array int))
    "phi_8"
    [| 1; 5; 3; 7; 2; 6; 4; 8 |]
    (P.to_array p);
  try
    ignore (P.reverse_binary 6);
    Alcotest.fail "non power of two accepted"
  with Invalid_argument _ -> ()

let test_sortedness_remark20 () =
  (* Remark 20: sortedness(phi_m) <= 2*sqrt(m) - 1 *)
  List.iter
    (fun m ->
      let s = P.sortedness (P.reverse_binary m) in
      let bound = int_of_float ((2.0 *. sqrt (float_of_int m)) -. 1.0) in
      check (Printf.sprintf "m=%d: %d <= %d" m s bound) true (s <= bound))
    [ 4; 16; 64; 256; 1024; 4096 ]

let test_lis () =
  check_int "lis" 4 (P.longest_increasing [| 3; 1; 2; 5; 4; 7 |]);
  check_int "lds" 3 (P.longest_decreasing [| 3; 1; 2; 5; 4; 1 |]);
  check_int "lis empty" 0 (P.longest_increasing [||]);
  check_int "sorted" 5 (P.longest_increasing [| 1; 2; 3; 4; 5 |])

let prop_sortedness_lower_bound =
  (* Erdos-Szekeres: every permutation of m has sortedness >= ceil(sqrt m) *)
  QCheck.Test.make ~name:"sortedness >= sqrt m (Erdos-Szekeres)" ~count:100
    QCheck.(int_range 1 200)
    (fun m ->
      let st = Random.State.make [| m |] in
      let s = P.sortedness (P.random st m) in
      float_of_int (s * s) >= float_of_int m -. 1e-9)

let prop_sortedness_invariant_under_reverse =
  QCheck.Test.make ~name:"sortedness(pi) = sortedness(reversed pi)" ~count:100
    QCheck.(int_range 2 64)
    (fun m ->
      let st = Random.State.make [| m * 7 |] in
      let p = P.random st m in
      let arr = P.to_array p in
      let rev = Array.init m (fun i -> arr.(m - 1 - i)) in
      P.sortedness p = P.sortedness (P.of_array rev))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Util.Stats.stddev [| 5.0 |]);
  let sd = Util.Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 sd

let test_linear_fit () =
  let a, b, r2 = Util.Stats.linear_fit [| (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) |] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 a;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 b;
  Alcotest.(check (float 1e-9)) "r2" 1.0 r2

let test_log2_fit () =
  (* y = 3 log2 x + 1 exactly *)
  let pts = Array.map (fun x -> (1 lsl x, (3 * x) + 1)) [| 1; 2; 3; 4; 5; 6 |] in
  let a, b, r2 = Util.Stats.log2_fit pts in
  Alcotest.(check (float 1e-6)) "slope" 3.0 a;
  Alcotest.(check (float 1e-6)) "intercept" 1.0 b;
  Alcotest.(check (float 1e-6)) "r2" 1.0 r2

let test_binomial_ci () =
  let lo, hi = Util.Stats.binomial_ci95 ~successes:50 ~trials:100 in
  check "contains p" true (lo < 0.5 && 0.5 < hi);
  let lo0, _ = Util.Stats.binomial_ci95 ~successes:0 ~trials:10 in
  Alcotest.(check (float 1e-9)) "clamped" 0.0 lo0

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table () =
  let t = Util.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Util.Table.add_row t [ "1"; "2" ];
  Util.Table.add_rows t [ [ "333"; "4" ] ];
  let s = Util.Table.render t in
  check "has title" true (String.length s > 0 && s.[0] = 'T');
  check "aligned" true
    (List.exists (fun line -> line = "  333  4 ") (String.split_on_char '\n' s));
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Util.Table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Hash: published test vectors *)

let check_i64 = Alcotest.(check int64)

let test_fnv_vectors () =
  let fnv = Util.Hash.(fnv_string fnv_offset) in
  check_i64 "fnv1a64 \"\"" 0xcbf29ce484222325L (fnv "");
  check_i64 "fnv1a64 a" 0xaf63dc4c8601ec8cL (fnv "a");
  check_i64 "fnv1a64 foobar" 0x85944171f73967e8L (fnv "foobar");
  (* fnv_int feeds the 8 little-endian bytes of the int *)
  let x = 0x0102030405060708 in
  let le = String.init 8 (fun k -> Char.chr ((x lsr (8 * k)) land 0xff)) in
  check_i64 "fnv_int = 8 LE bytes" (fnv le) Util.Hash.(fnv_int fnv_offset x)

let test_crc32_known_values () =
  (* the standard CRC-32 check value *)
  check_int "crc32(123456789)" 0xCBF43926 (Util.Hash.crc32 "123456789");
  check_int "crc32 of empty" 0 (Util.Hash.crc32 "");
  check_int "crc32_sub of a slice" 0xCBF43926
    (Util.Hash.crc32_sub (Bytes.of_string "xx123456789y") 2 9)

(* slicing-by-8 against the bitwise definition, one byte at a time:
   every start offset 0-7 (so the 8-byte steps straddle any alignment)
   with every length 0-70 (so every tail length after 0-8 steps), plus
   one 64 KiB buffer *)
let test_crc32_matches_bytewise () =
  let oracle buf pos len =
    let c = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      c := !c lxor Char.code (Bytes.get buf i);
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF
  in
  let st = Random.State.make [| 32 |] in
  let buf = Bytes.init (1 lsl 16) (fun _ -> Char.chr (Random.State.int st 256)) in
  let mismatches = ref [] in
  for pos = 0 to 7 do
    for len = 0 to 70 do
      if Util.Hash.crc32_sub buf pos len <> oracle buf pos len then
        mismatches := (pos, len) :: !mismatches
    done
  done;
  Alcotest.(check (list (pair int int))) "(offset, length) mismatches" [] !mismatches;
  check_int "crc32_sub of 64 KiB" (oracle buf 0 (1 lsl 16))
    (Util.Hash.crc32_sub buf 0 (1 lsl 16))

let test_splitmix_vector () =
  (* the first splitmix64 output from seed 0: the finaliser of the gamma *)
  check_i64 "splitmix64 seed 0" 0xe220a8397b1dcdafL (Util.Hash.splitmix_at 0L 0)

let test_json_escape () =
  check_str "specials, newline, other control bytes"
    {|a\"b\\c\nd\u000de\u0009f\u0001é|}
    (Util.Json.escape "a\"b\\c\nd\re\tf\001\xc3\xa9")

let test_json_obj () =
  check_str "fields in order, keys and strings escaped, raw copied"
    {|{"a\"":true,"n":-3,"s":"x\ny","o":{"k":1}}|}
    (Util.Json.obj
       [
         ("a\"", Util.Json.Bool true);
         ("n", Util.Json.Int (-3));
         ("s", Util.Json.String "x\ny");
         ("o", Util.Json.Raw {|{"k":1}|});
       ]);
  check_str "empty object" "{}" (Util.Json.obj [])

let () =
  Alcotest.run "util"
    [
      ( "bitstring",
        [
          Alcotest.test_case "of/to string" `Quick test_of_to_string;
          Alcotest.test_case "of_int/to_int" `Quick test_of_int;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "get/sub/concat" `Quick test_get_sub_concat;
          Alcotest.test_case "fold_bits order" `Quick test_fold_bits;
          Alcotest.test_case "random_in_range" `Quick test_random_in_range;
          qtest prop_int_roundtrip;
          qtest prop_compare_matches_int;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "identity/inverse" `Quick test_identity_inverse;
          Alcotest.test_case "validation" `Quick test_of_array_validation;
          Alcotest.test_case "reverse_binary phi_8" `Quick test_reverse_binary;
          Alcotest.test_case "Remark 20 bound" `Quick test_sortedness_remark20;
          Alcotest.test_case "lis/lds" `Quick test_lis;
          qtest prop_sortedness_lower_bound;
          qtest prop_sortedness_invariant_under_reverse;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "log2 fit" `Quick test_log2_fit;
          Alcotest.test_case "binomial ci" `Quick test_binomial_ci;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table ]);
      ( "hash",
        [
          Alcotest.test_case "fnv-1a 64 test vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "crc32 check values" `Quick test_crc32_known_values;
          Alcotest.test_case "crc32 slicing-by-8 = bytewise" `Quick
            test_crc32_matches_bytewise;
          Alcotest.test_case "splitmix64 first output" `Quick test_splitmix_vector;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escape" `Quick test_json_escape;
          Alcotest.test_case "object" `Quick test_json_obj;
        ] );
    ]
