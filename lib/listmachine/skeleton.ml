type entry =
  | View of { state : int; dirs : int array; cells : Nlm.cell array }
  | Collapsed

type t = { entries : entry array; moves : int array array; hash : int }

(* Deterministic skeleton hash: a function of the choice-blind content
   only (cell sk-hashes are rolling hashes of the flattened strings, so
   they are stable across runs, processes and domains). Structurally
   equal skeletons hash equal; the census and the intern table key on
   this. *)
let mix h x = (h * 0x5851F42D4C957F2D) + x

let hash_entries entries moves =
  let h = ref 0x9E3779B9 in
  Array.iter
    (fun e ->
      match e with
      | Collapsed -> h := mix !h 1
      | View v ->
          h := mix (mix !h 2) v.state;
          Array.iter (fun d -> h := mix !h (d + 2)) v.dirs;
          Array.iter (fun c -> h := mix !h (Nlm.cell_sk_hash c)) v.cells)
    entries;
  Array.iter (fun mv -> Array.iter (fun d -> h := mix !h (d + 5)) mv) moves;
  !h

let view_of_config (c : Nlm.config) =
  View
    {
      state = c.Nlm.state;
      dirs = Array.copy c.Nlm.head_dir;
      cells = Nlm.current_cells c;
    }

let of_trace (tr : Nlm.trace) =
  let n = Array.length tr.Nlm.configs in
  let entries =
    Array.init n (fun j ->
        if j = 0 then view_of_config tr.Nlm.configs.(0)
        else begin
          let mv = tr.Nlm.moves.(j - 1) in
          if Array.exists (fun d -> d <> 0) mv then view_of_config tr.Nlm.configs.(j)
          else Collapsed
        end)
  in
  let moves = Array.map Array.copy tr.Nlm.moves in
  { entries; moves; hash = hash_entries entries moves }

(* The fast path: a view run already recorded exactly the per-config
   data a skeleton keeps, with freshly allocated arrays we may own. *)
let of_views (vt : Nlm.view_trace) =
  let entries =
    Array.mapi
      (fun j (v : Nlm.view) ->
        if j = 0 || Array.exists (fun d -> d <> 0) vt.Nlm.vmoves.(j - 1) then
          View { state = v.Nlm.vstate; dirs = v.Nlm.vdirs; cells = v.Nlm.vcells }
        else Collapsed)
      vt.Nlm.views
  in
  let moves = vt.Nlm.vmoves in
  { entries; moves; hash = hash_entries entries moves }

let hash sk = sk.hash

(* Structural, choice-blind equality. All cell comparisons for one
   skeleton pair share a memo table: within a run cells share structure
   physically, across runs the (uid, uid) memo keeps the descent linear
   in the DAG size instead of exponential in the expansion. *)
let equal a b =
  a == b
  || (a.hash = b.hash
     && Array.length a.entries = Array.length b.entries
     && Array.length a.moves = Array.length b.moves
     && Array.for_all2 (fun x y -> x = y) a.moves b.moves
     &&
     let memo = Hashtbl.create 64 in
     let cell_eq = Nlm.cell_sk_equal_memo memo in
     Array.for_all2
       (fun ea eb ->
         match (ea, eb) with
         | Collapsed, Collapsed -> true
         | View va, View vb ->
             va.state = vb.state
             && va.dirs = vb.dirs
             && Array.length va.cells = Array.length vb.cells
             && Array.for_all2 cell_eq va.cells vb.cells
         | Collapsed, View _ | View _, Collapsed -> false)
       a.entries b.entries)

(* merge the cells' sorted distinct position arrays *)
let entry_positions_arr = function
  | Collapsed -> [||]
  | View v -> Nlm.merge_input_positions (Array.map Nlm.cell_input_positions v.cells)

let positions_of_entry e = Array.to_list (entry_positions_arr e)

let compared sk i i' =
  Array.exists
    (fun e ->
      let ps = entry_positions_arr e in
      Nlm.positions_mem ps i && Nlm.positions_mem ps i')
    sk.entries

let compared_pairs sk =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      let ps = entry_positions_arr e in
      let n = Array.length ps in
      for idx = 0 to n - 1 do
        for idx' = idx + 1 to n - 1 do
          Hashtbl.replace tbl (ps.(idx), ps.(idx')) ()
        done
      done)
    sk.entries;
  Hashtbl.fold (fun pr () acc -> pr :: acc) tbl [] |> List.sort compare

(* [hit.(i-1)] iff (i, m+ϕ(i)) is compared, for i ∈ 1..m, in one pass
   over the entries: a sorted set's positions ≤ m are its prefix, and
   each one not yet hit is looked up as a partner in the same set. *)
let phi_hits sk ~m ~phi =
  let hit = Array.make m false in
  Array.iter
    (fun e ->
      let ps = entry_positions_arr e in
      let n = Array.length ps in
      let k = ref 0 in
      while !k < n && ps.(!k) <= m do
        let i = ps.(!k) in
        if (not hit.(i - 1)) && Nlm.positions_mem ps (m + Util.Permutation.apply phi i)
        then hit.(i - 1) <- true;
        incr k
      done)
    sk.entries;
  hit

let phi_compared_count sk ~m ~phi =
  Array.fold_left (fun n h -> if h then n + 1 else n) 0 (phi_hits sk ~m ~phi)

let uncompared_phi_indices sk ~m ~phi =
  let hit = phi_hits sk ~m ~phi in
  List.filter (fun i -> not hit.(i - 1)) (List.init m (fun i0 -> i0 + 1))

(* 64-bit structural content digest: FNV-1a over the per-entry states,
   directions, choice-blind cell hashes and the move matrix — the same
   stream [hash] folds, through a different and wider mixer. Costs
   O(entries x heads), never the flat cell expansion (which can be
   exponential in the trace depth). Equal skeletons digest equal;
   distinct classes collide only if the underlying rolling cell hashes
   collide under two independent mixers — beyond-astronomically
   unlikely, and the property suite pins digest-keyed censuses to the
   exact structural-equality ones. *)
let digest sk =
  let h = ref Util.Hash.fnv_offset in
  let feed x = h := Util.Hash.fnv_int !h x in
  feed (Array.length sk.entries);
  Array.iter
    (fun e ->
      match e with
      | Collapsed -> feed (-1)
      | View v ->
          feed v.state;
          feed (Array.length v.dirs);
          Array.iter feed v.dirs;
          Array.iter (fun c -> feed (Nlm.cell_sk_hash c)) v.cells)
    sk.entries;
  Array.iter (fun mv -> Array.iter feed mv) sk.moves;
  !h

(* The census class table: representatives bucketed by [hash], exact
   structural equality within a bucket, ids dense in first-intern
   order. *)
module Intern = struct
  type table = { buckets : (int, (t * int) list ref) Hashtbl.t; mutable next : int }

  let create () = { buckets = Hashtbl.create 64; next = 0 }

  let intern tbl sk =
    let bucket =
      match Hashtbl.find_opt tbl.buckets sk.hash with
      | Some bucket -> bucket
      | None ->
          let bucket = ref [] in
          Hashtbl.add tbl.buckets sk.hash bucket;
          bucket
    in
    match List.find_opt (fun (rep, _) -> equal rep sk) !bucket with
    | Some (rep, id) -> (id, rep)
    | None ->
        let id = tbl.next in
        tbl.next <- id + 1;
        Obs.Counters.add_census_classes 1;
        bucket := (sk, id) :: !bucket;
        (id, sk)
end

let monotone_partition_upper seq =
  (* Greedy: maintain chains, each ascending or descending (direction
     decided by its second element). Append to the chain whose tail is
     closest while staying consistent; otherwise open a new chain. *)
  let chains = ref [] in
  (* chain = (last, direction) with direction 0 = undecided, ±1 *)
  List.iter
    (fun x ->
      let best = ref None in
      List.iteri
        (fun idx (last, dirn) ->
          let ok =
            match dirn with
            | 0 -> true
            | 1 -> x >= last
            | _ -> x <= last
          in
          if ok then begin
            let badness = abs (x - last) in
            match !best with
            | Some (_, b) when b <= badness -> ()
            | Some _ | None -> best := Some (idx, badness)
          end)
        !chains;
      match !best with
      | Some (idx, _) ->
          chains :=
            List.mapi
              (fun k (last, dirn) ->
                if k = idx then
                  let dirn' =
                    if dirn <> 0 then dirn
                    else if x > last then 1
                    else if x < last then -1
                    else 0
                  in
                  (x, dirn')
                else (last, dirn))
              !chains
      | None -> chains := (x, 0) :: !chains)
    seq;
  List.length !chains

let replays_to ~machine ~values ~choices sk =
  let tr = Nlm.run machine ~values ~choices in
  equal (of_trace tr) sk

let monotone_partition_exact ?(max_n = 16) seq =
  let arr = Array.of_list seq in
  let n = Array.length arr in
  if n > max_n then invalid_arg "Skeleton.monotone_partition_exact: too long";
  if n = 0 then 0
  else begin
    (* can [arr] be covered by k monotone chains? DFS over assignments;
       chains are (last, direction) with direction 0 = undecided. Fresh
       chains are opened in canonical order to kill symmetry. *)
    let feasible k =
      let last = Array.make k 0 and dirn = Array.make k 2 in
      (* dirn: 2 = unopened, 0 = undecided, ±1 *)
      let rec go i =
        i = n
        || begin
             let x = arr.(i) in
             let rec try_chain c opened_fresh =
               c < k
               && begin
                    let ok, new_dirn =
                      match dirn.(c) with
                      | 2 -> (not opened_fresh, 0)
                      | 0 ->
                          if x > last.(c) then (true, 1)
                          else if x < last.(c) then (true, -1)
                          else (true, 0)
                      | d ->
                          if d = 1 then (x >= last.(c), 1) else (x <= last.(c), -1)
                    in
                    (if ok then begin
                       let saved_l = last.(c) and saved_d = dirn.(c) in
                       last.(c) <- x;
                       dirn.(c) <- new_dirn;
                       let r = go (i + 1) in
                       last.(c) <- saved_l;
                       dirn.(c) <- saved_d;
                       r
                     end
                     else false)
                    || try_chain (c + 1) (opened_fresh || dirn.(c) = 2)
                  end
             in
             try_chain 0 false
           end
      in
      go 0
    in
    let rec find k = if feasible k then k else find (k + 1) in
    find 1
  end

let list_position_sequence (c : Nlm.config) tau =
  if tau < 1 || tau > Array.length c.Nlm.contents then
    invalid_arg "Skeleton.list_position_sequence";
  Array.to_list c.Nlm.contents.(tau - 1) |> List.concat_map Nlm.cell_inputs
