type summary = {
  requests : int;
  frames : int;
  yes : int;
  no : int;
  errors : int;
  audited : int;
  fingerprint : int64;
  wall_s : float;
  rps : float;
  p50_us : float;
  p99_us : float;
}

let mixed_item ~seed ~m ~n ~id : Frame.decide_body =
  let st = Parallel.Rng.state ~seed ~index:id in
  let problem, algorithm =
    match id mod 4 with
    | 0 -> (Problems.Decide.Multiset_equality, Frame.Fingerprint)
    | 1 -> (Problems.Decide.Check_sort, Frame.Sort)
    | 2 -> (Problems.Decide.Set_equality, Frame.Sort)
    | _ -> (Problems.Decide.Multiset_equality, Frame.Nst)
  in
  let yes = Random.State.bool st in
  let inst =
    if yes then Problems.Generators.yes_instance st problem ~m ~n
    else Problems.Generators.no_instance st problem ~m ~n
  in
  {
    Frame.problem = Frame.Core problem;
    algorithm;
    instance = Problems.Instance.encode inst;
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let run ~socket ~requests ?(batch = 1) ?(first_id = 0) ?(m = 6) ?(n = 8) ~seed ()
    =
  if requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  if batch < 1 then invalid_arg "Loadgen.run: batch must be >= 1";
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let yes = ref 0
  and no = ref 0
  and errors = ref 0
  and audited = ref 0
  and frames = ref 0
  and fp = ref Util.Hash.fnv_offset in
  let latencies = ref [] in
  let fold_verdict (v : Frame.verdict) =
    if v.Frame.verdict then incr yes else incr no;
    if v.Frame.audited then incr audited;
    fp := Util.Hash.fnv_byte !fp (if v.Frame.verdict then 1 else 0);
    fp := Util.Hash.fnv_byte !fp (if v.Frame.audited then 1 else 0)
  in
  let fold_error code =
    incr errors;
    fp := Util.Hash.fnv_byte !fp (0x80 lor Frame.error_code_byte code)
  in
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 in
  while !sent < requests do
    let k = min batch (requests - !sent) in
    let head_id = first_id + !sent in
    let items =
      List.init k (fun i -> mixed_item ~seed ~m ~n ~id:(head_id + i))
    in
    incr frames;
    let f0 = Unix.gettimeofday () in
    (match (k, items) with
    | 1, [ item ] -> (
        match
          Client.decide c ~id:head_id ~problem:item.Frame.problem
            ~algorithm:item.Frame.algorithm ~instance:item.Frame.instance
        with
        | Ok v -> fold_verdict v
        | Error (code, _) -> fold_error code)
    | _ -> (
        match Client.batch c ~id:head_id items with
        | Ok vs -> List.iter fold_verdict vs
        | Error (code, _) ->
            (* the whole group is lost; fold the code once per item so
               the fingerprint still covers every id *)
            List.iter (fun _ -> fold_error code) items));
    latencies := (Unix.gettimeofday () -. f0) *. 1e6 :: !latencies;
    sent := !sent + k
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  {
    requests;
    frames = !frames;
    yes = !yes;
    no = !no;
    errors = !errors;
    audited = !audited;
    fingerprint = !fp;
    wall_s;
    rps = (if wall_s > 0.0 then float_of_int requests /. wall_s else 0.0);
    p50_us = percentile lat 0.50;
    p99_us = percentile lat 0.99;
  }

let print_summary s =
  Printf.printf "loadgen: %d request(s) in %d frame(s)\n" s.requests s.frames;
  Printf.printf "verdicts: yes=%d no=%d errors=%d audited=%d\n" s.yes s.no
    s.errors s.audited;
  Printf.printf "workload fingerprint: 0x%016Lx\n" s.fingerprint;
  Printf.printf
    "throughput: %.1fr/s   latency p50=%.1fus p99=%.1fus   wall %.3fs\n" s.rps
    s.p50_us s.p99_us s.wall_s
