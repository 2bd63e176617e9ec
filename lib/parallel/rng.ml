(* Deterministic RNG splitting for the Monte Carlo pool.

   Each chunk of trials gets its own [Random.State], derived from the
   root seed and the chunk index by a splitmix64-style finalizer. The
   derivation depends only on (seed, index) - never on how chunks are
   assigned to domains - which is what makes every pool result
   bit-identical across worker counts. *)

(* distinct golden-gamma streams per index; [index + 1] keeps the
   index-0 stream away from the raw seed *)
let derive ~seed ~index =
  let open Util.Hash in
  seed_words
    (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (index + 1)) golden_gamma))

let state ~seed ~index = Random.State.make (derive ~seed ~index)

(* The serve protocol's per-request seed rule (PROTOCOL.md §5) is the
   chunk derivation verbatim, with the request id as the index: naming
   it keeps the doc's cross-reference one hop from the arithmetic. *)
let request_state ~server_seed ~request_id = state ~seed:server_seed ~index:request_id

let seed_of_state st = Random.State.full_int st max_int
