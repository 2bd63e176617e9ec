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
    after all workers have stopped, and the pool remains usable. When
    [Domain.spawn] itself fails, the pool degrades to fewer workers —
    ultimately the sequential path — and counts the failure in
    {!degraded_spawns}. *)

type t

val create : ?domains:int -> unit -> t
(** A pool of [domains] workers (clamped to [>= 1]); defaults to
    {!default_domains}. *)

val domains : t -> int

val degraded_spawns : t -> int
(** [Domain.spawn] failures absorbed over the pool's lifetime (an
    atomic, safe to read from any domain). *)

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
    order regardless of scheduling. An exception in any [f i] is
    re-raised after all workers stop; remaining indices are skipped. *)

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
