module Nlm = Listmachine.Nlm

type 'v fixed = {
  choices : int -> int;
  accepted : 'v array list;
  seed : int option;
}

let accepted_under ?pool machine ~fuel ~inputs choices =
  match pool with
  | None ->
      List.filter
        (fun values -> (Nlm.run ~fuel machine ~values ~choices).Nlm.accepted)
        inputs
  | Some pool ->
      (* runs are pure: fan out, then filter on the slot-indexed flags so
         the result is input-ordered regardless of worker count *)
      let arr = Array.of_list inputs in
      let flags =
        Parallel.Pool.map pool
          (fun values -> (Nlm.run ~fuel machine ~values ~choices).Nlm.accepted)
          arr
      in
      List.filteri (fun i _ -> flags.(i)) inputs

let exact_best ?(fuel = 100_000) ?(max_length = 12) machine ~inputs =
  let k = machine.Nlm.num_choices in
  (* observe the longest run under the all-zero sequence to size ℓ *)
  let ell =
    List.fold_left
      (fun acc values ->
        let tr = Nlm.run ~fuel machine ~values ~choices:(fun _ -> 0) in
        max acc (Array.length tr.Nlm.choices_used))
      1 inputs
  in
  let ell = min ell max_length in
  let total = float_of_int k ** float_of_int ell in
  if total > float_of_int (1 lsl 20) then
    invalid_arg "Lemma26.exact_best: |C|^l too large to enumerate";
  let best = ref None in
  let seq = Array.make ell 0 in
  let rec enumerate pos =
    if pos = ell then begin
      let arr = Array.copy seq in
      let choices step = if step < ell then arr.(step) else 0 in
      let acc = accepted_under machine ~fuel ~inputs choices in
      match !best with
      | Some (_, n) when n >= List.length acc -> ()
      | Some _ | None -> best := Some ((choices, acc), List.length acc)
    end
    else
      for c = 0 to k - 1 do
        seq.(pos) <- c;
        enumerate (pos + 1)
      done
  in
  enumerate 0;
  match !best with
  | Some ((choices, accepted), _) -> { choices; accepted; seed = None }
  | None -> assert false

let sampled_best ?pool st ?(trials = 16) ?(fuel = 100_000) machine ~inputs =
  let trials = if machine.Nlm.num_choices = 1 then 1 else trials in
  let try_seed seed =
    let choices step = Util.Hash.choice_mix ~seed step mod machine.Nlm.num_choices in
    (seed, choices, accepted_under ?pool machine ~fuel ~inputs choices)
  in
  let first = try_seed 0 in
  let best = ref first in
  for _ = 2 to trials do
    let seed = Random.State.full_int st max_int in
    let (_, _, acc_best) = !best in
    let (_, _, acc) as cand = try_seed seed in
    if List.length acc > List.length acc_best then best := cand
  done;
  let seed, choices, accepted = !best in
  { choices; accepted; seed = Some seed }

let meets_lemma_floor fixed ~inputs =
  2 * List.length fixed.accepted >= List.length inputs
