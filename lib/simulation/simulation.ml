module TM = Turing.Machine
module Nlm = Listmachine.Nlm

type result = {
  tm_stats : TM.run_stats;
  lm_trace : Nlm.trace;
  lm_reversals : int;
  tm_ext_reversals : int;
  crossings : int;
  agreement : bool;
}

(* Apply one movement vector to a list-machine configuration (the
   driven machine has a single non-final state). *)
let apply_movements ~lists ~input_length cfg movements =
  let machine =
    Nlm.make ~name:"sim-driver" ~lists ~input_length ~num_choices:1
      ~state_count:2 ~initial:0
      ~is_final:(fun s -> s >= 1)
      ~is_accepting:(fun _ -> false)
      ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
        { Nlm.next_state = 0; movements })
  in
  Nlm.step machine
    ~values:(Array.make input_length "")
    cfg ~choice:0

let simulate ?(fuel = 1_000_000) tm ~inputs ~choices =
  if not (TM.is_normalized tm) then
    invalid_arg "Simulation.simulate: machine must be normalized";
  let m = Array.length inputs in
  if m < 1 then invalid_arg "Simulation.simulate: need at least one input";
  Array.iter
    (fun v ->
      if String.contains v '#' then
        invalid_arg "Simulation.simulate: inputs must not contain '#'")
    inputs;
  let w = String.concat "" (Array.to_list (Array.map (fun v -> v ^ "#") inputs)) in
  let t = tm.TM.ext in
  (* block partition of tape 0: segment i covers [start_i, start_i+len_i);
     the last block extends to infinity (the paper pads with blanks) *)
  let starts = Array.make m 0 in
  let () =
    let off = ref 0 in
    Array.iteri
      (fun i v ->
        starts.(i) <- !off;
        off := !off + String.length v + 1)
      inputs
  in
  let block_of_pos pos =
    let b = ref (m - 1) in
    for i = m - 1 downto 0 do
      if pos < starts.(i) then b := i - 1
    done;
    max 0 !b
  in
  (* list-machine side *)
  let lm_cfg =
    ref
      (Nlm.initial_config
         (Nlm.make ~name:"sim" ~lists:t ~input_length:m ~num_choices:1
            ~state_count:2 ~initial:0
            ~is_final:(fun s -> s >= 1)
            ~is_accepting:(fun _ -> false)
            ~alpha:(fun ~values:_ ~state:_ ~cells:_ ~choice:_ ->
              { Nlm.next_state = 0; movements = [||] })))
  in
  let block_cell_id = Array.init m (fun i -> !lm_cfg.Nlm.ids.(0).(i)) in
  let configs = ref [ !lm_cfg ] in
  let moves = ref [] in
  let lm_do movements =
    let c', mv = apply_movements ~lists:t ~input_length:m !lm_cfg movements in
    lm_cfg := c';
    configs := c' :: !configs;
    moves := mv :: !moves
  in
  let neutral () =
    Array.map (fun d -> { Nlm.dir = d; move = false }) !lm_cfg.Nlm.head_dir
  in
  let walk_to ~list:tau ~id ~dir =
    while !lm_cfg.Nlm.ids.(tau - 1).(!lm_cfg.Nlm.pos.(tau - 1) - 1) <> id do
      let mv = neutral () in
      mv.(tau - 1) <- { Nlm.dir; move = true };
      lm_do mv
    done
  in
  (* Turing-machine side, stepwise *)
  let crossings = ref 0 in
  let cur_block = ref 0 in
  let tmc = ref (TM.initial_config tm w) in
  let steps = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    if TM.is_final tm !tmc then
      outcome :=
        Some (if TM.is_accepting tm !tmc then TM.Accepted else TM.Rejected)
    else if !steps >= fuel then outcome := Some TM.Out_of_fuel
    else begin
      match TM.enabled tm !tmc with
      | [] -> outcome := Some TM.Stuck
      | trs ->
          let k = List.length trs in
          let pick = ((choices !steps mod k) + k) mod k in
          let before = !tmc in
          tmc := TM.apply tm before (List.nth trs pick);
          incr steps;
          (* detect the (unique, by normalization) moved external head *)
          for h = 0 to t - 1 do
            let p0 = TM.head_position before h
            and p1 = TM.head_position !tmc h in
            if p0 <> p1 then begin
              let d1 = TM.head_direction !tmc h in
              if h = 0 then begin
                let b1 = block_of_pos p1 in
                if b1 <> !cur_block then begin
                  incr crossings;
                  walk_to ~list:1 ~id:block_cell_id.(b1)
                    ~dir:(if b1 > !cur_block then 1 else -1);
                  cur_block := b1
                end
                else if d1 <> TM.head_direction before h then begin
                  let mv = neutral () in
                  mv.(0) <- { Nlm.dir = d1; move = false };
                  lm_do mv
                end
              end
              else if d1 <> TM.head_direction before h then begin
                (* auxiliary tapes have a single block: only turns count *)
                let mv = neutral () in
                mv.(h) <- { Nlm.dir = d1; move = false };
                lm_do mv
              end
            end
          done
    end
  done;
  let tm_stats = TM.run ~fuel tm ~input:w ~choices in
  let lm_reversals = Array.fold_left ( + ) 0 !lm_cfg.Nlm.revs in
  let accepted = !outcome = Some TM.Accepted in
  let lm_trace =
    {
      Nlm.accepted;
      configs = Array.of_list (List.rev !configs);
      moves = Array.of_list (List.rev !moves);
      choices_used = Array.make (List.length !moves) 0;
      total_revs = lm_reversals;
    }
  in
  {
    tm_stats;
    lm_trace;
    lm_reversals;
    tm_ext_reversals = Array.fold_left ( + ) 0 tm_stats.TM.ext_reversals;
    crossings = !crossings;
    agreement = (tm_stats.TM.outcome = TM.Accepted) = accepted;
  }

let acceptance_agreement ?pool st ?(samples = 300) tm ~inputs =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let root = Parallel.Rng.seed_of_state st in
  let hits =
    Parallel.Pool.monte_carlo pool ~trials:samples ~seed:root (fun st ->
        let seed = Random.State.full_int st max_int in
        let r = simulate tm ~inputs ~choices:(Util.Hash.choice_mix ~seed) in
        (r.tm_stats.TM.outcome = TM.Accepted, r.lm_trace.Nlm.accepted))
  in
  let count f = Array.fold_left (fun acc h -> if f h then acc + 1 else acc) 0 hits in
  ( float_of_int (count fst) /. float_of_int samples,
    float_of_int (count snd) /. float_of_int samples )

let abstract_state_bound_log2 ~d ~t ~r ~s ~m ~n =
  let nn = float_of_int (m * (n + 1)) in
  (float_of_int (d * t * t) *. float_of_int r *. float_of_int s)
  +. (3.0 *. float_of_int t *. (log nn /. log 2.0))

let choice_sequence_bound_log2 ~c ~r ~s ~t ~n =
  float_of_int n *. (2.0 ** float_of_int (c * r * (t + s)))
