(** The [stlb loadgen] workload driver: a deterministic mixed decider
    workload against a running [stlb serve], with throughput and
    latency percentiles measured client-side.

    Workload derivation is pure: request [id] carries the decider kind
    [id mod 4] — fingerprint / sort(CHECK-SORT) / sort(SET-EQ) / nst —
    and generates its instance (and its yes/no label coin) from
    [Parallel.Rng.state ~seed ~index:id]. Two loadgen runs with the
    same [(seed, first_id, requests, m, n)] therefore send byte-
    identical requests, and against servers sharing a [--seed] they
    must collect byte-identical verdicts — {!summary.fingerprint}
    condenses that into one comparable number (FNV-1a over the
    responses in id order), which is what E20 and the serve tests
    diff across worker counts, devices and restarts. *)

type summary = {
  requests : int;  (** decide requests sent (batch items counted) *)
  frames : int;  (** frames sent ([requests / batch] rounded up) *)
  yes : int;
  no : int;
  errors : int;
  audited : int;  (** verdicts whose theorem-budget audit ran and passed *)
  fingerprint : int64;
      (** FNV-1a 64 over (verdict, audited) response bytes in id order
          (error responses fold their code byte) — the workload's
          deterministic signature *)
  wall_s : float;
  rps : float;  (** requests per second over the whole run *)
  p50_us : float;  (** median per-frame round-trip, microseconds *)
  p99_us : float;
}

val mixed_item : seed:int -> m:int -> n:int -> id:int -> Frame.decide_body
(** The deterministic workload function (exposed for tests and for
    PROTOCOL.md's worked examples). *)

val run :
  socket:string ->
  requests:int ->
  ?batch:int ->
  ?first_id:int ->
  ?m:int ->
  ?n:int ->
  seed:int ->
  unit ->
  summary
(** Drive [requests] decide requests with ids [first_id ..
    first_id+requests-1] (default [first_id = 0]), grouped into BATCH
    frames of [batch] (default 1 = singleton DECIDE frames), instances
    of [m] strings of [n] bits per half (defaults 6 and 8).
    @raise Invalid_argument if [requests < 1] or [batch < 1]. *)

val print_summary : summary -> unit
(** The loadgen report: deterministic lines (counts, fingerprint)
    first, then the timing line — scripts diff the former and read the
    latter. *)
