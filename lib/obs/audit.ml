type bound = At_most of int | Log2 of { per_log2 : float; offset : float }

type spec = {
  name : string;
  scans : bound option;
  internal : bound option;
  tapes : bound option;
}

type check = { resource : string; measured : int; allowed : int; ok : bool }
type outcome = { spec_name : string; n : int; ok : bool; checks : check list }

exception Budget_violated of outcome

let ceil_log2 n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

let allowance bound ~n =
  match bound with
  | At_most k -> k
  | Log2 { per_log2; offset } ->
      int_of_float ((per_log2 *. float_of_int (ceil_log2 n)) +. offset)

let check spec (l : Ledger.t) =
  let n = l.Ledger.n in
  let one resource bound measured =
    match bound with
    | None -> None
    | Some b ->
        let allowed = allowance b ~n in
        Some { resource; measured; allowed; ok = measured <= allowed }
  in
  let checks =
    List.filter_map Fun.id
      [
        one "scans" spec.scans l.Ledger.scans;
        one "internal" spec.internal l.Ledger.internal_peak;
        one "tapes" spec.tapes (Ledger.tape_count l);
      ]
  in
  {
    spec_name = spec.name;
    n;
    ok = List.for_all (fun (c : check) -> c.ok) checks;
    checks;
  }

let enforce spec l =
  let o = check spec l in
  if not o.ok then raise (Budget_violated o)

(* Theorem 8(a). Internal bits: the second scan holds 11 registers of
   [bits_of (6k)] bits with k = m^3 * n * ceil(log2 (m^3 n)). Since
   2m <= N and n <= N, m^3 n <= N^4 / 8, so
   log2 (6k) <= 4*log2 N + log2 (0.75 * 4 * log2 N) <= 4*log2 N +
   log2 log2 N + 2, and 11 of those registers fit in
   44*ceil(log2 N) + 88 bits with room for the scan-1 counters. *)
let fingerprint_spec =
  {
    name = "fingerprint (Thm 8a)";
    scans = Some (At_most 2);
    internal = Some (Log2 { per_log2 = 44.0; offset = 88.0 });
    tapes = Some (At_most 1);
  }

(* Corollary 7. Scans: the deciders sort BOTH halves, and each
   half-sort runs ceil(log2 m) distribute+merge passes at 12 reversals
   per pass across the data and auxiliary tapes (E3 fits the two-sort
   deciders at 24·log2 N − 114 exactly). The closed form below is
   three times [Extsort.theoretical_scan_bound]'s 8·ceil(log2 N) + 16
   single-sort envelope — same O(log N) class, headroom for the second
   sort plus the comparison scan. The constants are duplicated on
   purpose: the audit layer must not depend on the code it audits —
   the test suite asserts the 3x relationship holds. Registers: the
   2-way sort holds 6, a comparison scan at most 4. Tapes: two halves
   plus two auxiliaries per sorted half. *)
let mergesort_spec =
  {
    name = "merge sort (Cor 7)";
    scans = Some (Log2 { per_log2 = 24.0; offset = 48.0 });
    internal = Some (At_most 16);
    tapes = Some (At_most 8);
  }

(* Theorem 8(b): one forward scan with local checks, one backward scan
   for copy consistency, 8 cell registers, 2 external tapes. *)
let nst_spec =
  {
    name = "NST verifier (Thm 8b)";
    scans = Some (At_most 3);
    internal = Some (At_most 8);
    tapes = Some (At_most 2);
  }

(* Theorem 11(a): each relational-algebra operator of a fixed query is
   a constant number of scans plus sorting steps, so O(log N) scans
   per plan node. The constant absorbs intermediate blow-up: a product
   chain of depth d sorts streams of up to N^d cells, multiplying the
   8·log2+16 single-sort envelope by d. The query layer bounds plans
   to product depth ≤ 4 (comprehensions take at most three
   generators), so 4 × (2 sorts + merge + copies) fits under
   64·⌈log2 N⌉ + 96. Only scans are bounded: the node-level meter and
   tape counts are owned by the whole-plan specs below. *)
let relalg_node_spec =
  {
    name = "relalg operator (Thm 11a)";
    scans = Some (Log2 { per_log2 = 64.0; offset = 96.0 });
    internal = None;
    tapes = None;
  }

(* Theorem 11(b): the symmetric-difference query
   Q' = (R1 − R2) ∪ (R2 − R1) — two diffs and a union, each two
   sorted copies (8·log2+16 apiece) plus a merge scan, over streams
   never longer than N. Tapes: 2 inputs + 3 ops × (2 sorted copies,
   each with 2 sort auxiliaries, + 1 output). Internal: the evaluator
   pins 8 meter units; the in-flight sort adds its own transient
   registers. *)
let relalg_symdiff_spec =
  {
    name = "relalg symdiff (Thm 11b)";
    scans = Some (Log2 { per_log2 = 80.0; offset = 200.0 });
    internal = Some (At_most 24);
    tapes = Some (At_most 40);
  }

(* Theorem 13 upper bound (via Corollary 7): the Figure 1 filter on a
   serialized instance document — one extraction scan, two half-sorts
   of the string multisets (8·log2+16 each, multiset size < stream
   length), one merged subset-test scan. Tapes: stream + two string
   tapes + 2 sort auxiliaries each. *)
let xpath_filter_spec =
  {
    name = "xpath filter (Thm 13)";
    scans = Some (Log2 { per_log2 = 16.0; offset = 40.0 });
    internal = Some (At_most 16);
    tapes = Some (At_most 8);
  }
