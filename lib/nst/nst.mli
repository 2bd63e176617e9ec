(** Nondeterministic upper bounds (Theorem 8(b)):
    [SET-EQUALITY, MULTISET-EQUALITY, CHECK-SORT ∈ NST(3, O(log N), 2)].

    The paper's machine {e guesses} a permutation [π] with
    [v_i = v'_π(i)] together with many copies of the annotated input,
    then verifies every copy locally: copy [l] certifies one comparison,
    and a final backward scan checks each copy equals its predecessor
    (with the two external tapes offset by one copy), which makes all
    local certifications consistent. We reproduce this at cell
    granularity: a {e prover} constructs the copy stream from a witness
    permutation; the {e verifier} is a resource-metered two-tape checker
    — one forward scan interleaving guess-writing with the local
    checks, one backward scan for copy consistency — so its measured
    resources are within the [NST(3, O(log N), 2)] envelope. Soundness
    is exercised in the test suite by corrupting certificates.

    Certificate layout (tape 2, and replicated after the input on
    tape 1): [2m] copies of the table
    [(1, π(1), w_1) … (m, π(m), w_m)] where [w_i] is the claimed value
    of [v_i]. During the forward scan, copy [i ≤ m] is checked against
    [v_i] under the input head ([w_i = v_i], first components
    ascending), and copy [m+j] against [v'_j] (the unique entry with
    second component [j] satisfies [w = v'_j]). For CHECK-SORT the
    second half additionally verifies [v'_{j-1} ≤ v'_j]; for
    SET-EQUALITY two function tables (one per direction) replace the
    permutation table and the uniqueness requirement is dropped. *)

type certificate
(** An opaque witness (permutation / function tables). *)

type entry = { efst : int; esnd : int; evalue : string }

(** A verifier tape cell. The tapes hold value ids, not values: the
    verifier numbers the distinct strings of the input and the
    certificate, so a cell is at most 13 bytes however long the values
    are, and the [2m] copies of an entry take [2m] cells, not [2m]
    copies of its value. *)
type cell = Blank | Val of int | Ent of { efst : int; esnd : int; vid : int }

val codec : cell Tape.Device.Codec.t
(** The verifier tapes' codec: a tag byte, then the cell's ints as be32.
    It keeps the equality half of the {!Tape.Device.Codec} contract
    only: equal encodings exactly for equal cells (ints in the int32
    range). *)

val prove : Problems.Decide.problem -> Problems.Instance.t -> certificate option
(** The honest prover: a witness if the instance is a yes-instance,
    [None] otherwise. *)

type corruption =
  | Swap_pi  (** make the permutation table inconsistent between copies *)
  | Wrong_value  (** claim a wrong [w_i] *)
  | Duplicate_target  (** break injectivity of [π] *)

val corrupt : Random.State.t -> corruption -> certificate -> certificate
(** A wrong certificate for soundness tests. Requires [m ≥ 2]. *)

type report = {
  scans : int;
  internal_registers : int;  (** O(1) cell registers + counters *)
  tapes : int;  (** 2 *)
}

val verify :
  ?obs:Obs.Ledger.Recorder.t ->
  Problems.Decide.problem -> Problems.Instance.t -> certificate -> bool * report
(** The metered verifier. Accepts iff the certificate is a valid
    witness for the instance. [?obs] registers the verifier's tape
    group with a ledger recorder for theorem-budget auditing. *)

val decide_with_prover :
  ?obs:Obs.Ledger.Recorder.t ->
  Problems.Decide.problem -> Problems.Instance.t -> bool * report option
(** [prove] then [verify] — the behaviour of the nondeterministic
    machine on its accepting branch (report is [None] when no witness
    exists and the machine would reject on every branch). *)
