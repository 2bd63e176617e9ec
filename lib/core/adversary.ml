module B = Util.Bitstring
module P = Util.Permutation
module I = Problems.Instance
module G = Problems.Generators
module Nlm = Listmachine.Nlm
module Skeleton = Listmachine.Skeleton

type outcome =
  | Fooled of {
      input : I.t;
      i0 : int;
      skeleton_classes : int;
      yes_acceptance : float;
      choice_seed : int;
    }
  | Not_fooled of {
      reason : string;
      yes_acceptance : float;
      skeleton_classes : int;
    }
  | Contract_violated of { yes_acceptance : float }

(* A deterministic pseudo-random choice function: the "fixed sequence c"
   of Lemma 26, regenerable from its seed. *)
let choice_fn ~seed ~num_choices step =
  Util.Hash.choice_mix ~seed step mod num_choices

let values_of inst = Array.append (I.xs inst) (I.ys inst)

(* View runs: the skeleton pipeline never needs full configuration
   snapshots, and the in-place runner allocates O(t) per step instead of
   O(list length) — which is what lets the census sweeps actually scale
   over domains instead of contending on the major heap. *)
let run_with ~fuel machine ~seed inst =
  Nlm.run_view ~fuel machine ~values:(values_of inst)
    ~choices:(choice_fn ~seed ~num_choices:machine.Nlm.num_choices)

(* The census's fixed sizes: yes-instances drawn, candidate choice
   sequences tried (1 suffices for a deterministic machine), and the
   bound on step 4's active resampling search. *)
let yes_samples = 48
let choice_trials = 8
let resample_tries = 32

(* A scripted machine visits one state per step, so the run budget must
   cover the script (the m = 128 staircase alone plans past 200k
   steps). Every shard derives the same number from the same machine,
   keeping evidence mergeable. *)
let fuel_for machine = max 200_000 (2 * machine.Nlm.state_count)

(* Every random draw the attack makes comes from a splitmix64 stream
   keyed on (root, index): samples at indices [0 .. yes_samples-1],
   candidate choice seeds after them, resampling states after those. So
   the whole attack is a function of the root seed — independent of the
   pool's worker count and of how the sample space is sharded across
   processes, and replayable by passing [~seed]. *)
let sample_index i = i
let trial_index t = yes_samples + t
let resample_index n = yes_samples + choice_trials + n

let sample_at ~root space i =
  G.Checkphi.yes (Parallel.Rng.state ~seed:root ~index:(sample_index i)) space

let trial_seeds ~machine ~root =
  if machine.Nlm.num_choices = 1 then [| 0 |]
  else
    Array.init choice_trials (fun t ->
        if t = 0 then 0
        else (Parallel.Rng.derive ~seed:root ~index:(trial_index t)).(0))

(* ------------------------------------------------------------------ *)
(* Canonical-form reduction.

   The machines the adversary targets observe their input only through
   value-equality tests (the [Plan] comparisons are [B.equal]), and
   skeleton cells store input *positions*, never values. So the run —
   acceptance, trace, skeleton — is a function of the order/equality
   pattern of the 2m input values and the choice sequence alone, and
   any value renaming that preserves that pattern yields literally the
   same skeleton. Replacing each value by its dense rank picks one
   representative per orbit of that symmetry; censusing the
   representative once stands for every sample in the orbit. On the
   CHECK-phi space all yes-instances share a single pattern (disjoint
   intervals, ties exactly at the (i, phi(i)) pairs), so the per-seed
   sweep collapses from [yes_samples] machine runs to one — the
   asymptotic win that makes m=64 a sub-second census. *)

let rank_map values =
  let sorted = Array.copy values in
  Array.sort B.compare sorted;
  let tbl = Hashtbl.create (2 * Array.length values) in
  let next = ref 0 in
  Array.iter
    (fun v ->
      let s = B.to_string v in
      if not (Hashtbl.mem tbl s) then begin
        Hashtbl.add tbl s !next;
        incr next
      end)
    sorted;
  (tbl, !next)

let canonical_key inst =
  let values = values_of inst in
  let tbl, _ = rank_map values in
  let buf = Buffer.create (4 * Array.length values) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int (Hashtbl.find tbl (B.to_string v)));
      Buffer.add_char buf ',')
    values;
  Buffer.contents buf

let canonicalize inst =
  let values = values_of inst in
  let tbl, distinct = rank_map values in
  let width =
    let rec bits w lim = if lim >= distinct then w else bits (w + 1) (2 * lim) in
    bits 1 2
  in
  let canon =
    Array.map (fun v -> B.of_int ~width (Hashtbl.find tbl (B.to_string v))) values
  in
  let m = Array.length values / 2 in
  I.make (Array.sub canon 0 m) (Array.sub canon m m)

(* The memoizing machine runner: one entry per (choice seed, canonical
   key), holding (accepted, skeleton-if-accepted). With [canon:false]
   every call is a real run — the escape hatch for machines that
   inspect value *content* (none in this tree do). *)
type runner = {
  r_machine : B.t Nlm.t;
  r_fuel : int;
  r_canon : bool;
  r_memo : (int * string, bool * Skeleton.t option) Hashtbl.t;
  mutable r_runs : int;
  mutable r_canon_hits : int;
}

let make_runner ~machine ~fuel ~canon =
  {
    r_machine = machine;
    r_fuel = fuel;
    r_canon = canon;
    r_memo = Hashtbl.create 64;
    r_runs = 0;
    r_canon_hits = 0;
  }

let raw_run r ~seed inst =
  let tr = run_with ~fuel:r.r_fuel r.r_machine ~seed inst in
  (tr.Nlm.vaccepted, if tr.Nlm.vaccepted then Some (Skeleton.of_views tr) else None)

let run_memo r ~seed inst =
  if not r.r_canon then begin
    r.r_runs <- r.r_runs + 1;
    raw_run r ~seed inst
  end
  else begin
    let key = canonical_key inst in
    match Hashtbl.find_opt r.r_memo (seed, key) with
    | Some res ->
        r.r_canon_hits <- r.r_canon_hits + 1;
        Obs.Counters.add_census_canonical_hits 1;
        res
    | None ->
        r.r_runs <- r.r_runs + 1;
        let res = raw_run r ~seed (canonicalize inst) in
        Hashtbl.replace r.r_memo (seed, key) res;
        res
  end

(* One census sweep: run every instance under the fixed choice seed.
   Only the first occurrence of each canonical class actually runs (and
   those fan out over the pool — the closure is pure; counters are
   settled on the calling domain afterwards). *)
let sweep r pool ~seed insts =
  if not r.r_canon then begin
    let results = Parallel.Pool.map pool (fun inst -> raw_run r ~seed inst) insts in
    r.r_runs <- r.r_runs + Array.length insts;
    results
  end
  else begin
    let keys = Array.map canonical_key insts in
    let queued = Hashtbl.create 16 in
    let fresh = ref [] in
    Array.iteri
      (fun i key ->
        if (not (Hashtbl.mem r.r_memo (seed, key))) && not (Hashtbl.mem queued key)
        then begin
          Hashtbl.add queued key ();
          fresh := (key, insts.(i)) :: !fresh
        end)
      keys;
    let fresh = Array.of_list (List.rev !fresh) in
    let results =
      Parallel.Pool.map pool
        (fun (_, inst) -> raw_run r ~seed (canonicalize inst))
        fresh
    in
    Array.iteri
      (fun j (key, _) -> Hashtbl.replace r.r_memo (seed, key) results.(j))
      fresh;
    r.r_runs <- r.r_runs + Array.length fresh;
    let memoized = Array.length insts - Array.length fresh in
    r.r_canon_hits <- r.r_canon_hits + memoized;
    Obs.Counters.add_census_canonical_hits memoized;
    Array.map (fun key -> Hashtbl.find r.r_memo (seed, key)) keys
  end

(* ------------------------------------------------------------------ *)

type census = {
  outcome : outcome;
  fingerprint : int64;
  chosen_seed : int;
  hits : int;
  samples : int;
  classes : int;
  canonical_hits : int;
  machine_runs : int;
  shards_merged : int;
}

(* The mergeable outcome fingerprint: FNV-1a 64 over a canonical
   rendering of the verdict and the census summary. Every field in the
   rendering is invariant under worker count, canonical reduction and
   sharding, so equality of fingerprints is exactly the
   bit-identity the acceptance criterion asks for. *)
let fingerprint_of ~root ~m ~n ~chosen_seed ~hits ~samples ~classes outcome =
  let body =
    match outcome with
    | Fooled { input; i0; _ } ->
        Printf.sprintf "fooled i0=%d input=%s" i0 (I.encode input)
    | Not_fooled { reason; _ } -> Printf.sprintf "not-fooled reason=%s" reason
    | Contract_violated _ -> "contract-violated"
  in
  Util.Hash.fnv_string Util.Hash.fnv_offset
    (Printf.sprintf "stlb-census root=%d m=%d n=%d seed=%d hits=%d/%d classes=%d %s"
       root m n chosen_seed hits samples classes body)

module Shard = struct
  type cls = { digest : int64; uncompared : int list }

  type evidence = {
    root : int;
    m : int;
    n : int;
    machine_name : string;
    yes_samples : int;
    choice_trials : int;
    resample_tries : int;
    fuel : int;
    canon : bool;
    shard : int;
    shards : int;
    trial_seeds : int array;
    accepted : (int * int) array array;
    classes : cls array;
    canonical_hits : int;
    machine_runs : int;
  }

  let magic = "stlb-census-evidence/1"

  let to_string e =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    Buffer.add_char buf '\n';
    Printf.bprintf buf
      "root=%d m=%d n=%d yes=%d trials=%d resample=%d fuel=%d canon=%b \
       shard=%d/%d canonhits=%d runs=%d\n"
      e.root e.m e.n e.yes_samples e.choice_trials e.resample_tries e.fuel
      e.canon e.shard e.shards e.canonical_hits e.machine_runs;
    Printf.bprintf buf "machine=%s\n" e.machine_name;
    Printf.bprintf buf "seeds=%s\n"
      (String.concat "," (Array.to_list (Array.map string_of_int e.trial_seeds)));
    Printf.bprintf buf "classes=%d\n" (Array.length e.classes);
    Array.iter
      (fun c ->
        Printf.bprintf buf "class %016Lx %s\n" c.digest
          (match c.uncompared with
          | [] -> "-"
          | l -> String.concat "," (List.map string_of_int l)))
      e.classes;
    Array.iteri
      (fun t acc ->
        Printf.bprintf buf "trial %d %d" t (Array.length acc);
        Array.iter (fun (i, c) -> Printf.bprintf buf " %d:%d" i c) acc;
        Buffer.add_char buf '\n')
      e.accepted;
    Buffer.add_string buf "end\n";
    Buffer.contents buf

  let of_string s =
    let fail msg = failwith ("Adversary.Shard.of_string: " ^ msg) in
    let ints_of_csv str =
      if str = "" then []
      else List.map int_of_string (String.split_on_char ',' str)
    in
    let after ~prefix line =
      let lp = String.length prefix in
      if String.length line >= lp && String.sub line 0 lp = prefix then
        String.sub line lp (String.length line - lp)
      else fail (Printf.sprintf "expected %S line" prefix)
    in
    match String.split_on_char '\n' s with
    | m0 :: header :: machine_line :: seeds_line :: nclasses_line :: rest ->
        if m0 <> magic then fail "bad magic";
        let root, m, n, yes, trials, resample, fuel, canon, shard, shards, ch, runs
            =
          try
            Scanf.sscanf header
              "root=%d m=%d n=%d yes=%d trials=%d resample=%d fuel=%d \
               canon=%B shard=%d/%d canonhits=%d runs=%d"
              (fun a b c d e f g h i j k l -> (a, b, c, d, e, f, g, h, i, j, k, l))
          with Scanf.Scan_failure _ | End_of_file -> fail "bad header"
        in
        let machine_name = after ~prefix:"machine=" machine_line in
        let trial_seeds =
          Array.of_list (ints_of_csv (after ~prefix:"seeds=" seeds_line))
        in
        let nclasses =
          try Scanf.sscanf nclasses_line "classes=%d" Fun.id
          with Scanf.Scan_failure _ | End_of_file -> fail "bad classes line"
        in
        let rec take_classes k acc rest =
          if k = 0 then (Array.of_list (List.rev acc), rest)
          else
            match rest with
            | line :: rest ->
                let c =
                  try
                    Scanf.sscanf line "class %Lx %s" (fun digest u ->
                        { digest; uncompared = (if u = "-" then [] else ints_of_csv u) })
                  with Scanf.Scan_failure _ | End_of_file -> fail "bad class line"
                in
                take_classes (k - 1) (c :: acc) rest
            | [] -> fail "truncated class list"
        in
        let classes, rest = take_classes nclasses [] rest in
        let parse_trial t line =
          match String.split_on_char ' ' line with
          | "trial" :: ts :: cnt :: pairs ->
              if int_of_string ts <> t then fail "trial records out of order";
              let cnt = int_of_string cnt in
              if List.length pairs <> cnt then fail "bad trial record count";
              Array.of_list
                (List.map
                   (fun p ->
                     match String.split_on_char ':' p with
                     | [ i; c ] -> (int_of_string i, int_of_string c)
                     | _ -> fail "bad sample record")
                   pairs)
          | _ -> fail "bad trial line"
        in
        let rec take_trials t acc rest =
          if t = Array.length trial_seeds then (Array.of_list (List.rev acc), rest)
          else
            match rest with
            | line :: rest -> take_trials (t + 1) (parse_trial t line :: acc) rest
            | [] -> fail "truncated trial list"
        in
        let accepted, rest = take_trials 0 [] rest in
        (match rest with
        | "end" :: _ -> ()
        | _ -> fail "missing end marker");
        {
          root;
          m;
          n;
          machine_name;
          yes_samples = yes;
          choice_trials = trials;
          resample_tries = resample;
          fuel;
          canon;
          shard;
          shards;
          trial_seeds;
          accepted;
          classes;
          canonical_hits = ch;
          machine_runs = runs;
        }
    | _ -> fail "truncated evidence"

  let fingerprint e = Util.Hash.(fnv_string fnv_offset (to_string e))

  let collect ?pool ?(canon = true) ~root ~space ~machine ~shard ~of_:shards ()
      =
    if shards < 1 || shard < 1 || shard > shards then
      invalid_arg "Adversary.Shard.collect: shard index out of range";
    let fuel = fuel_for machine in
    let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
    let phi = G.Checkphi.phi space in
    let m = P.size phi in
    let n = Problems.Intervals.n (G.Checkphi.intervals space) in
    (* this shard owns the sample indices congruent to shard-1 mod k;
       every sample's stream is keyed on its global index, so ownership
       is a partition of draws, not a reseeding *)
    let owned =
      Array.of_list
        (List.filter (fun i -> i mod shards = shard - 1)
           (List.init yes_samples Fun.id))
    in
    let insts = Array.map (fun i -> sample_at ~root space i) owned in
    let seeds = trial_seeds ~machine ~root in
    let r = make_runner ~machine ~fuel ~canon in
    let tbl = Skeleton.Intern.create () in
    let classes = ref [] in
    let n_classes = ref 0 in
    let accepted =
      Array.map
        (fun seed ->
          let results = sweep r pool ~seed insts in
          let accs = ref [] in
          Array.iteri
            (fun j (acc, sk) ->
              if acc then begin
                let sk = Option.get sk in
                let id, rep = Skeleton.Intern.intern tbl sk in
                if id = !n_classes then begin
                  (* fresh class: ids are dense, so this is its first
                     sighting — digest once, for cross-shard identity *)
                  classes :=
                    {
                      digest = Skeleton.digest rep;
                      uncompared = Skeleton.uncompared_phi_indices rep ~m ~phi;
                    }
                    :: !classes;
                  incr n_classes
                end;
                accs := (owned.(j), id) :: !accs
              end)
            results;
          Array.of_list (List.rev !accs))
        seeds
    in
    {
      root;
      m;
      n;
      machine_name = machine.Nlm.name;
      yes_samples;
      choice_trials;
      resample_tries;
      fuel;
      canon;
      shard;
      shards;
      trial_seeds = seeds;
      accepted;
      classes = Array.of_list (List.rev !classes);
      canonical_hits = r.r_canon_hits;
      machine_runs = r.r_runs;
    }

  let merge ~space ~machine evidences =
    let evs = List.sort (fun a b -> compare a.shard b.shard) evidences in
    let e0 =
      match evs with
      | [] -> invalid_arg "Adversary.Shard.merge: no evidence"
      | e :: _ -> e
    in
    let phi = G.Checkphi.phi space in
    let m = P.size phi in
    if m <> e0.m || Problems.Intervals.n (G.Checkphi.intervals space) <> e0.n then
      invalid_arg "Adversary.Shard.merge: space does not match the evidence";
    if machine.Nlm.name <> e0.machine_name then
      invalid_arg "Adversary.Shard.merge: machine does not match the evidence";
    let fuel = fuel_for machine in
    let k = e0.shards in
    if List.length evs <> k then
      failwith
        (Printf.sprintf "Adversary.Shard.merge: have %d shard(s), expected %d"
           (List.length evs) k);
    List.iteri
      (fun i e ->
        if e.shard <> i + 1 then
          failwith "Adversary.Shard.merge: duplicate or missing shard";
        if
          e.root <> e0.root || e.m <> e0.m || e.n <> e0.n
          || e.machine_name <> e0.machine_name
          || e.yes_samples <> yes_samples
          || e.choice_trials <> choice_trials
          || e.resample_tries <> resample_tries
          || e.fuel <> fuel || e.canon <> e0.canon || e.shards <> k
          || e.trial_seeds <> e0.trial_seeds
        then failwith "Adversary.Shard.merge: inconsistent shard evidence")
      evs;
    Obs.Counters.add_census_shard_merges 1;
    let root = e0.root in
    let evs_arr = Array.of_list evs in
    (* Lemma 26 seed selection over the union of the shards' sample
       records: per-trial hit totals, first strictly-better seed wins —
       exactly the unsharded fold, because acceptance of sample i under
       seed s is a pure fact either computation observes identically. *)
    let best = ref None in
    Array.iteri
      (fun t seed ->
        let hits =
          Array.fold_left (fun a e -> a + Array.length e.accepted.(t)) 0 evs_arr
        in
        match !best with
        | Some (_, _, best_hits) when best_hits >= hits -> ()
        | Some _ | None -> best := Some (t, seed, hits))
      e0.trial_seeds;
    let best_t, seed, hits =
      match !best with Some b -> b | None -> assert false
    in
    let yes_acceptance = float_of_int hits /. float_of_int yes_samples in
    let r = make_runner ~machine ~fuel ~canon:e0.canon in
    let outcome, skeleton_classes =
      if 2 * hits < yes_samples then (Contract_violated { yes_acceptance }, 0)
      else begin
        (* Merged census of the best trial: walk samples in index order
           and re-intern each one's class digest. [Skeleton.digest] is
           equal on equal skeletons and collision-free across distinct
           classes in every non-adversarial universe, so digest equality
           across shards is class identity, and first-seen order
           reproduces the unsharded table's dense ids (and its
           tie-breaks). *)
        let by_index = Hashtbl.create 64 in
        Array.iter
          (fun e ->
            Array.iter
              (fun (i, c) -> Hashtbl.replace by_index i e.classes.(c))
              e.accepted.(best_t))
          evs_arr;
        let ids = Hashtbl.create 16 in
        let info = ref [] in
        let next = ref 0 in
        let class_of = Array.make yes_samples (-1) in
        for i = 0 to yes_samples - 1 do
          match Hashtbl.find_opt by_index i with
          | None -> ()
          | Some c ->
              let id =
                match Hashtbl.find_opt ids c.digest with
                | Some id -> id
                | None ->
                    let id = !next in
                    Hashtbl.add ids c.digest id;
                    incr next;
                    info := c :: !info;
                    id
              in
              class_of.(i) <- id
        done;
        let skeleton_classes = !next in
        let class_info = Array.of_list (List.rev !info) in
        let counts = Array.make (max skeleton_classes 1) 0 in
        Array.iter
          (fun id -> if id >= 0 then counts.(id) <- counts.(id) + 1)
          class_of;
        let best_id = ref 0 in
        for id = 1 to skeleton_classes - 1 do
          if counts.(id) > counts.(!best_id) then best_id := id
        done;
        let zeta = class_info.(!best_id) in
        let best_id = !best_id in
        match zeta.uncompared with
        | [] ->
            ( Not_fooled
                {
                  reason = "every pair (i, m+phi(i)) is compared in the skeleton";
                  yes_acceptance;
                  skeleton_classes;
                },
              skeleton_classes )
        | i0 :: _ -> begin
            (* Steps 4-5: find v, w in the class differing only in the
               value at x-position i0 (hence also at y-position phi(i0)).
               First look for a sampled pair, then actively resample the
               i0 value. The instances are regenerated from the root
               seed — evidence carries verdicts, not inputs. *)
            let sample_arr = Array.init yes_samples (sample_at ~root space) in
            let inv = G.Checkphi.inv_phi space in
            let key_of inst =
              let buf = Buffer.create (16 * m) in
              let xs = I.xs inst in
              Array.iteri
                (fun idx x ->
                  if idx <> i0 - 1 then begin
                    Buffer.add_string buf (B.to_string x);
                    Buffer.add_char buf '#'
                  end)
                xs;
              Buffer.contents buf
            in
            let first_with = Hashtbl.create 16 in
            let sampled_pair = ref None in
            (try
               Array.iteri
                 (fun i id ->
                   if id = best_id then begin
                     let inst = sample_arr.(i) in
                     let key = key_of inst in
                     match Hashtbl.find_opt first_with key with
                     | Some a when not (B.equal (I.x a i0) (I.x inst i0)) ->
                         sampled_pair := Some (a, inst);
                         raise Exit
                     | Some _ -> ()
                     | None -> Hashtbl.add first_with key inst
                   end)
                 class_of
             with Exit -> ());
            let witness =
              let idx = ref (-1) in
              Array.iteri
                (fun i id -> if !idx < 0 && id = best_id then idx := i)
                class_of;
              sample_arr.(!idx)
            in
            let resampled_pair () =
              (* perturb the witness at position i0 within its interval
                 and keep variants whose run has skeleton ζ and accepts *)
              let intervals = G.Checkphi.intervals space in
              let rec try_ n =
                if n > resample_tries then None
                else begin
                  let rng =
                    Parallel.Rng.state ~seed:root ~index:(resample_index n)
                  in
                  let fresh =
                    Problems.Intervals.random_element rng intervals
                      (P.apply phi i0)
                  in
                  if B.equal fresh (I.x witness i0) then try_ (n + 1)
                  else begin
                    let xs = I.xs witness in
                    xs.(i0 - 1) <- fresh;
                    let ys = Array.init m (fun j0 -> xs.(P.apply inv (j0 + 1) - 1)) in
                    let candidate = I.make xs ys in
                    let acc, sk = run_memo r ~seed candidate in
                    let same_class =
                      match sk with
                      | Some sk -> Int64.equal (Skeleton.digest sk) zeta.digest
                      | None -> false
                    in
                    if acc && same_class then Some (witness, candidate)
                    else try_ (n + 1)
                  end
                end
              in
              try_ 1
            in
            match
              (match !sampled_pair with
              | Some p -> Some p
              | None -> resampled_pair ())
            with
            | None ->
                ( Not_fooled
                    {
                      reason =
                        Printf.sprintf
                          "no same-skeleton pair differing only at i0=%d found"
                          i0;
                      yes_acceptance;
                      skeleton_classes;
                    },
                  skeleton_classes )
            | Some (v, w) -> begin
                (* Step 6 (Lemma 34): cross the halves. *)
                let u = I.make (I.xs v) (I.ys w) in
                let acc, _ = run_memo r ~seed u in
                if acc && not (G.Checkphi.is_yes space u) then
                  ( Fooled
                      {
                        input = u;
                        i0;
                        skeleton_classes;
                        yes_acceptance;
                        choice_seed = seed;
                      },
                    skeleton_classes )
                else
                  ( Not_fooled
                      {
                        reason =
                          (if acc then "composed input unexpectedly a yes-instance"
                           else "machine rejected the composed input");
                        yes_acceptance;
                        skeleton_classes;
                      },
                    skeleton_classes )
              end
          end
      end
    in
    let canonical_hits =
      List.fold_left (fun a e -> a + e.canonical_hits) r.r_canon_hits evs
    in
    let machine_runs =
      List.fold_left (fun a e -> a + e.machine_runs) r.r_runs evs
    in
    {
      outcome;
      fingerprint =
        fingerprint_of ~root ~m ~n:e0.n ~chosen_seed:seed ~hits
          ~samples:yes_samples ~classes:skeleton_classes outcome;
      chosen_seed = seed;
      hits;
      samples = yes_samples;
      classes = skeleton_classes;
      canonical_hits;
      machine_runs;
      shards_merged = k;
    }
end

let attack_census ?pool ?seed ?(canon = true) st ~space ~machine () =
  let root =
    match seed with Some s -> s | None -> Parallel.Rng.seed_of_state st
  in
  let ev = Shard.collect ?pool ~canon ~root ~space ~machine ~shard:1 ~of_:1 () in
  Shard.merge ~space ~machine [ ev ]

let attack ?pool ?seed ?canon st ~space ~machine () =
  (attack_census ?pool ?seed ?canon st ~space ~machine ()).outcome

let verify_fooled ~space ~machine outcome =
  match outcome with
  | Fooled f ->
      G.Checkphi.member space f.input
      && (not (G.Checkphi.is_yes space f.input))
      && (run_with ~fuel:(fuel_for machine) machine ~seed:f.choice_seed f.input)
           .Nlm.vaccepted
  | Not_fooled _ | Contract_violated _ -> false
