(** Stdlib-[Domain] work pool: deterministic fan-out for the Monte
    Carlo experiment harness.

    Every reproduction table runs hundreds of independent trials; this
    pool spreads them over OCaml 5 domains while keeping the results
    {e bit-identical for every worker count}. The scheme: trials are cut
    into fixed-size chunks (never a function of the worker count), chunk
    [i] draws from the private generator [Rng.state ~seed ~index:i], and
    reductions fold chunk results in index order. A 1-domain pool runs
    the same chunk-seeded code inline without spawning - the [-j 1]
    sequential path.

    Pools hold no persistent domains: each call spawns, joins, and
    returns, so an exception in a worker is re-raised at the call site
    after all workers have stopped, and the pool remains usable.

    A pool also carries a {!watchdog}: per-chunk supervision that
    re-runs a failing chunk (with the {e same} index, hence the same
    derived seed — attempt 2 computes exactly what attempt 1 would
    have), flags chunks that overran a cooperative deadline, and
    degrades gracefully to fewer workers — ultimately the sequential
    path — when [Domain.spawn] itself fails. {!health} reports what the
    watchdog absorbed. *)

type t

(** Chunk supervision policy. *)
type watchdog = {
  max_chunk_retries : int;
      (** extra attempts per chunk after the first ([≥ 0]) *)
  chunk_deadline_s : float option;
      (** cooperative deadline: OCaml domains cannot be interrupted
          from outside, so an overrunning chunk is {e flagged} in
          {!health} when it completes, never killed mid-flight *)
  retryable : exn -> bool;
      (** which exceptions re-run the chunk; anything else (and
          exhausted retries) propagates to the caller. The fault
          harness passes predicates built from
          [Faults.Retry.default]'s classifier; the default accepts
          nothing. *)
}

(** What the watchdog absorbed since creation / {!reset_health}. *)
type health = {
  chunks_retried : int;  (** chunk re-runs (each kept its chunk seed) *)
  deadline_overruns : int;  (** chunks that finished past the deadline *)
  degraded_spawns : int;  (** [Domain.spawn] failures absorbed *)
}

val create : ?domains:int -> ?watchdog:watchdog -> unit -> t
(** A pool of [domains] workers (clamped to [>= 1]); defaults to
    {!default_domains} and a watchdog with 2 retries, no deadline and
    nothing retryable — a plain pool behaves exactly as one without a
    watchdog.
    @raise Invalid_argument if [watchdog.max_chunk_retries < 0]. *)

val domains : t -> int

val health : t -> health
(** Cumulative over the pool's lifetime; counters are atomics, safe to
    read from any domain. *)

val reset_health : t -> unit

val default : unit -> t
(** [create ()] - a pool sized by {!default_domains}. *)

val set_default_domains : int -> unit
(** Driver hook for [-j N]: overrides {!default_domains} process-wide
    (clamped to [>= 1]). *)

val default_domains : unit -> int
(** Worker count used when none is given: the [-j] override if set,
    else the [STLB_DOMAINS] environment variable (ignored unless a
    positive integer), else [Domain.recommended_domain_count ()]. *)

val map_chunks : t -> chunks:int -> (int -> 'a) -> 'a array
(** [map_chunks t ~chunks f] computes [[| f 0; ...; f (chunks-1) |]],
    running the [f i] on the pool's domains. Result order is index
    order regardless of scheduling. Each [f i] runs under the pool's
    watchdog (retries re-run [f i] verbatim). An exception in any
    [f i] — after the watchdog's retries — is re-raised after all
    workers stop; remaining indices are skipped. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr] with each element its own pool
    job (for pure per-element work such as replaying list-machine runs);
    element order is preserved. *)

val monte_carlo : t -> trials:int -> seed:int -> (Random.State.t -> 'r) -> 'r array
(** [monte_carlo t ~trials ~seed f] runs [f] once per trial and returns
    the per-trial results in trial order. Trials are chunked
    ({!trials_per_chunk} to a chunk) and chunk [i] hands [f] the
    generator [Rng.state ~seed ~index:i], so the output depends only on
    [(trials, seed)] - not on the worker count. *)

val monte_carlo_fold :
  t ->
  trials:int ->
  seed:int ->
  init:'acc ->
  combine:('acc -> 'r -> 'acc) ->
  (Random.State.t -> 'r) ->
  'acc
(** Fold the {!monte_carlo} results in trial order. *)

val monte_carlo_count :
  t -> trials:int -> seed:int -> (Random.State.t -> bool) -> int
(** Number of trials on which [f] returns [true]. *)

val trials_per_chunk : int
(** The fixed chunk size (exposed for tests). *)
