(** The Theorem 8(a) fingerprinting algorithm:
    [MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1)].

    One forward scan determines the parameters [(m, n, N)]; then the
    machine draws a uniformly random prime [p1 ≤ k] for
    [k = m³·n·⌈log(m³·n)⌉], a fixed prime [p2 ∈ (3k, 6k]] (Bertrand),
    and a random evaluation point [x ∈ {1,..,p2−1}]; a second,
    {e backward} scan (so the total is two scans — one head reversal —
    on the single external tape, as the class requires) accumulates

    {v Σ_i x^{e_i}  and  Σ_i x^{e'_i}  (mod p2),   e_i = v_i mod p1 v}

    and accepts iff the sums agree. Equal multisets are always accepted
    (no false negatives); unequal multisets are accepted with
    probability at most [1/3 + O(1/m)] — Claim 1 bounds the chance the
    residues collide, and a nonzero difference polynomial of degree
    [< p1] has at most [p1 ≤ (p2−1)/3] roots.

    Internal memory holds a constant number of [O(log N)]-bit numbers;
    the meter reports bits. *)

type params = {
  m : int;
  n : int;  (** maximum string length seen *)
  input_size : int;
  k : int;
  p1 : int;
  p2 : int;
  x : int;
}

type report = {
  scans : int;  (** measured on the tape group; always 2 when fault-free *)
  internal_bits : int;  (** meter peak, in bits *)
  tapes : int;  (** always 1 *)
  faults : int;  (** injected faults on the input tape (0 without a plan) *)
}

val run :
  ?faults:Faults.Plan.t ->
  ?retry:Faults.Retry.policy ->
  ?obs:Obs.Ledger.Recorder.t ->
  ?device:Tape.Device.spec ->
  Random.State.t -> Problems.Instance.t -> bool * report * params
(** Execute the algorithm on the encoded instance. This is the
    configured entry, as [Extsort.decide] is for the sort deciders: it
    alone takes the machine's options. With a fault plan
    attached ([?faults]) the input tape draws injected faults from the
    plan's deterministic per-tape stream, the parser treats corrupted
    symbols leniently (a stuck read shows the blank), and each scan
    runs under [Faults.Retry.run]: a transient I/O fault restarts the
    scan from its end of the tape, re-seeking through ordinary [move]
    calls so recovery pays honest reversal costs (visible in
    [report.scans]). Without [?faults], behaviour is bit-identical to
    the fault-free code. [?obs] registers the run's tape group with a
    ledger recorder for theorem-budget auditing ({!Obs.Audit}); the
    tapes count their own operations either way. [?device] puts the input tape on a
    byte-backed backend ([Tape.Device.File]/[Shard]) behind a bounded
    cache — the two-scan decider at external N, with identical measured
    counters; the spill is deleted when the run returns. *)

val decide : Random.State.t -> Problems.Instance.t -> bool
(** Just the answer, of an unconfigured {!run}: in RAM, without a
    fault plan or a ledger. *)

val amplified : Random.State.t -> rounds:int -> Problems.Instance.t -> bool
(** Accept only if all [rounds] independent runs accept: false-positive
    probability drops below [2^{-rounds}]-ish while false negatives
    remain impossible.
    @raise Invalid_argument if [rounds < 1]. *)

val false_positive_rate :
  ?pool:Parallel.Pool.t -> Random.State.t -> m:int -> n:int -> trials:int -> float
(** Empirical false-positive rate over random {e unequal} instances
    (one run each) — the experiment behind Claim 1 / Theorem 8(a).
    Trials fan out over [pool] (default {!Parallel.Pool.default}) with
    seed-split generators: for a fixed caller state the estimate is
    bit-identical for every worker count. *)

val residue_collision_rate :
  ?k:int ->
  ?pool:Parallel.Pool.t ->
  Random.State.t -> m:int -> n:int -> trials:int -> float
(** Claim 1 in isolation: the empirical probability that two distinct
    random [n]-bit values [v_i ≠ v'_j] in an unequal instance collide
    modulo a random prime [p ≤ k] (estimated over fresh instances and
    primes). [k] defaults to the paper's [m³·n·⌈log(m³n)⌉]; overriding
    it is the E15 ablation — the [m³] factor exists because Claim 1
    union-bounds over [m²] value pairs and still wants an [O(1/m)]
    failure rate, and smaller prime ranges measurably collide. *)
