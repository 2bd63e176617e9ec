type mode =
  | Deterministic
  | Randomized_one_sided
  | Co_randomized
  | Nondeterministic
  | Las_vegas

type spec = {
  mode : mode;
  r : int -> int;
  s : int -> int;
  t : int option;
  label : string;
}

let make_spec ~mode ~r ~s ?t ~label () = { mode; r; s; t; label }

type usage = { n : int; scans : int; space : int; tapes : int }

let admits spec u =
  u.scans <= spec.r u.n
  && u.space <= spec.s u.n
  && match spec.t with None -> true | Some t -> u.tapes <= t

type membership = {
  problem : string;
  class_label : string;
  member : bool;
  provenance : string;
}

let lower = "RST(o(log N), O(N^{1/4}/log N), O(1))"

let paper_results =
  let mk problem class_label member provenance =
    { problem; class_label; member; provenance }
  in
  [
    (* Theorem 6: the main lower bound *)
    mk "SET-EQUALITY" lower false "Theorem 6";
    mk "MULTISET-EQUALITY" lower false "Theorem 6";
    mk "CHECK-SORT" lower false "Theorem 6";
    (* Corollary 7: upper bounds and SHORT versions *)
    mk "SET-EQUALITY" "ST(O(log N), O(1), 2)" true "Corollary 7";
    mk "MULTISET-EQUALITY" "ST(O(log N), O(1), 2)" true "Corollary 7";
    mk "CHECK-SORT" "ST(O(log N), O(1), 2)" true "Corollary 7";
    mk "SHORT-SET-EQUALITY" lower false "Corollary 7";
    mk "SHORT-MULTISET-EQUALITY" lower false "Corollary 7";
    mk "SHORT-CHECK-SORT" lower false "Corollary 7";
    mk "SHORT-SET-EQUALITY" "ST(O(log N), O(log N), 3)" true "Corollary 7";
    mk "SHORT-MULTISET-EQUALITY" "ST(O(log N), O(log N), 3)" true "Corollary 7";
    mk "SHORT-CHECK-SORT" "ST(O(log N), O(log N), 3)" true "Corollary 7";
    (* Theorem 8 *)
    mk "MULTISET-EQUALITY" "co-RST(2, O(log N), 1)" true "Theorem 8(a)";
    mk "MULTISET-EQUALITY" "NST(3, O(log N), 2)" true "Theorem 8(b)";
    mk "SET-EQUALITY" "NST(3, O(log N), 2)" true "Theorem 8(b)";
    mk "CHECK-SORT" "NST(3, O(log N), 2)" true "Theorem 8(b)";
    (* Corollary 10 *)
    mk "SORTING" "LasVegas-RST(o(log N), O(N^{1/4}/log N), O(1))" false
      "Corollary 10";
    (* Section 4 *)
    mk "relational algebra (any query, data complexity)"
      "ST(O(log N), O(1), O(1))" true "Theorem 11(a)";
    mk "relational algebra (query Q' = symmetric difference)"
      "LasVegas-RST(o(log N), O(N^{1/4}/log N), O(1))" false "Theorem 11(b)";
    mk "XQuery (set-equality query)"
      "LasVegas-RST(o(log N), O(N^{1/4}/log N), O(1))" false "Theorem 12";
    mk "XPath filtering (Figure 1 query)"
      "co-RST(o(log N), O(N^{1/4}/log N), O(1))" false "Theorem 13";
  ]
