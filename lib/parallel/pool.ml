(* A stdlib-Domain work pool for the experiment harness.

   No domainslib: workers are plain [Domain.spawn]ed fibers that pull
   job indices off a shared atomic counter, write results into
   per-index slots, and join before the call returns. A pool value is
   just a worker count plus a spawn-failure counter - there are no
   persistent domains to leak, so "shutdown" is the join at the end of
   every call and a pool survives a raising job (the exception is
   re-raised on the caller's domain after every worker has stopped).

   Determinism: job i's result lands in slot i and reductions fold the
   slots in index order, so every result is bit-identical for any
   worker count, including 1 (which never spawns and runs the exact
   same chunk-seeded code inline). Every seeded caller (monte_carlo
   below) derives chunk i's generator from [Rng.state ~seed ~index:i]
   inside [exec], so which domain runs a chunk never matters. *)

type t = { domains : int; degraded : int Atomic.t }

let clamp d = max 1 d

let hardware_domains () = Domain.recommended_domain_count ()

let env_domains () =
  match Sys.getenv_opt "STLB_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)

(* 0 = unset; the -j flag of the drivers stores into this *)
let override = Atomic.make 0

let set_default_domains d = Atomic.set override (clamp d)

let default_domains () =
  let o = Atomic.get override in
  if o > 0 then o
  else match env_domains () with Some d -> d | None -> hardware_domains ()

let create ?domains () =
  {
    domains = (match domains with Some d -> clamp d | None -> default_domains ());
    degraded = Atomic.make 0;
  }

let domains t = t.domains

let default () = create ()

let degraded_spawns t = Atomic.get t.degraded

(* Run [exec 0 .. exec (jobs-1)], work-stealing off an atomic counter.
   The first exception wins; late workers stop claiming new jobs. If
   [Domain.spawn] itself fails (fd or thread exhaustion), the pool
   degrades gracefully: the failed spawn is counted in
   [degraded_spawns] and its share of the work is absorbed by the
   domains that did start - in the worst case the caller's own domain
   runs everything sequentially, which is the bit-identical -j 1
   path. *)
let run_jobs t ~jobs exec =
  let exec i =
    Obs.Counters.add_pool_chunks 1;
    exec i
  in
  if jobs <= 0 then ()
  else if t.domains <= 1 || jobs = 1 then
    for i = 0 to jobs - 1 do
      exec i
    done
  else begin
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        if Atomic.get failed <> None then continue_ := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= jobs then continue_ := false
          else
            try exec i
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt)));
              continue_ := false
        end
      done
    in
    let spawned =
      Array.init
        (min t.domains jobs - 1)
        (fun _ ->
          match Domain.spawn worker with
          | d -> Some d
          | exception _ ->
              Atomic.incr t.degraded;
              Obs.Counters.add_pool_degraded_spawns 1;
              None)
      |> Array.to_list |> List.filter_map Fun.id
    in
    worker ();
    List.iter Domain.join spawned;
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map_chunks t ~chunks f =
  if chunks < 0 then invalid_arg "Pool.map_chunks: chunks < 0";
  let out = Array.make chunks None in
  run_jobs t ~jobs:chunks (fun i -> out.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) out

let map t f arr =
  let n = Array.length arr in
  let out = Array.make n None in
  run_jobs t ~jobs:n (fun i -> out.(i) <- Some (f arr.(i)));
  Array.map (function Some v -> v | None -> assert false) out

(* Trials per chunk: small enough to load-balance hundreds of trials
   over a handful of domains, large enough to amortize the spawn. Fixed
   - it must never depend on the worker count. *)
let trials_per_chunk = 25

let chunk_count trials = (trials + trials_per_chunk - 1) / trials_per_chunk

let monte_carlo t ~trials ~seed f =
  if trials < 0 then invalid_arg "Pool.monte_carlo: trials < 0";
  if trials = 0 then [||]
  else begin
    let parts =
      map_chunks t ~chunks:(chunk_count trials) (fun i ->
          let lo = i * trials_per_chunk in
          let hi = min trials (lo + trials_per_chunk) in
          let st = Rng.state ~seed ~index:i in
          (* every chunk is nonempty, so seed the array with trial 0 *)
          let a = Array.make (hi - lo) (f st) in
          for j = 1 to hi - lo - 1 do
            a.(j) <- f st
          done;
          a)
    in
    Array.concat (Array.to_list parts)
  end

let monte_carlo_fold t ~trials ~seed ~init ~combine f =
  Array.fold_left combine init (monte_carlo t ~trials ~seed f)

let monte_carlo_count t ~trials ~seed f =
  monte_carlo_fold t ~trials ~seed ~init:0
    ~combine:(fun acc hit -> if hit then acc + 1 else acc)
    f
