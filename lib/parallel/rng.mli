(** Deterministic RNG splitting (splitmix64) for chunked Monte Carlo.

    A root [seed] and a chunk [index] determine a [Random.State]
    independently of which domain runs the chunk, so pool results are
    bit-identical for any worker count (including 1). *)

val derive : seed:int -> index:int -> int array
(** The four 62-bit words seeding chunk [index] of stream [seed]. *)

val state : seed:int -> index:int -> Random.State.t
(** [state ~seed ~index] is the chunk's private generator:
    [Random.State.make (derive ~seed ~index)]. *)

val request_state : server_seed:int -> request_id:int -> Random.State.t
(** The stlb/1 per-request seed rule (PROTOCOL.md §5): request [id] on
    a server seeded [S] draws from [state ~seed:S ~index:id]. Same
    derivation as the Monte Carlo chunks, so a request's verdict is a
    function of [(S, id)] — replayable across restarts, worker counts
    and batching. *)

val seed_of_state : Random.State.t -> int
(** Draw a root seed from an existing generator (one [full_int] pull) -
    the bridge from the harness's legacy [Random.State] plumbing into
    the seed-indexed scheme. *)
