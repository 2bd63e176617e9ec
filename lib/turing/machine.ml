type move = Left | Stay | Right

type transition = { next_state : int; writes : string; moves : move array }

type t = {
  name : string;
  num_states : int;
  state_names : string array;
  start : int;
  final : bool array;
  accepting : bool array;
  blank : char;
  ext : int;
  int_ : int;
  delta : (int * string, transition list) Hashtbl.t;
}

let validate m transitions =
  let tapes = m.ext + m.int_ in
  if m.ext < 1 then invalid_arg "Machine.create: need at least the input tape";
  if m.int_ < 0 then invalid_arg "Machine.create: negative internal tape count";
  if Array.length m.state_names <> m.num_states then
    invalid_arg "Machine.create: state_names arity";
  if Array.length m.final <> m.num_states || Array.length m.accepting <> m.num_states
  then invalid_arg "Machine.create: final/accepting arity";
  if m.start < 0 || m.start >= m.num_states then invalid_arg "Machine.create: start";
  Array.iteri
    (fun q acc -> if acc && not m.final.(q) then
        invalid_arg "Machine.create: accepting state not final")
    m.accepting;
  List.iter
    (fun (q, reads, tr) ->
      if q < 0 || q >= m.num_states then
        invalid_arg "Machine.create: transition source state out of range";
      if m.final.(q) then
        invalid_arg "Machine.create: transition out of a final state";
      if tr.next_state < 0 || tr.next_state >= m.num_states then
        invalid_arg "Machine.create: transition target state out of range";
      if String.length reads <> tapes then
        invalid_arg "Machine.create: reads arity";
      if String.length tr.writes <> tapes then
        invalid_arg "Machine.create: writes arity";
      if Array.length tr.moves <> tapes then
        invalid_arg "Machine.create: moves arity")
    transitions

let create ~name ~state_names ~start ~final ~accepting ?(blank = '_') ~ext ~int_
    transitions =
  let m =
    {
      name;
      num_states = Array.length state_names;
      state_names;
      start;
      final;
      accepting;
      blank;
      ext;
      int_;
      delta = Hashtbl.create 64;
    }
  in
  validate m transitions;
  (* Preserve declaration order within each (state, reads) bucket: the
     list order is the numbering that choice numbers index into. *)
  List.iter
    (fun (q, reads, tr) ->
      let key = (q, reads) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt m.delta key) in
      Hashtbl.replace m.delta key (existing @ [ tr ]))
    transitions;
  m

let moving_heads tr =
  Array.to_list tr.moves
  |> List.mapi (fun i mv -> (i, mv))
  |> List.filter (fun (_, mv) -> mv <> Stay)

let is_normalized m =
  Hashtbl.fold
    (fun _ trs acc ->
      acc && List.for_all (fun tr -> List.length (moving_heads tr) <= 1) trs)
    m.delta true

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)

type config = {
  state : int;
  tapes : Bytes.t array;  (* content, growable on copy *)
  used : int array;  (* cells used so far, per tape *)
  pos : int array;
  dir : int array;  (* +1 / -1; +1 initially *)
  revs : int array;
}

let initial_config m input =
  let tapes_n = m.ext + m.int_ in
  let tapes =
    Array.init tapes_n (fun i ->
        if i = 0 then Bytes.of_string input else Bytes.make 1 m.blank)
  in
  let used =
    Array.init tapes_n (fun i -> if i = 0 then max 1 (String.length input) else 1)
  in
  {
    state = m.start;
    tapes;
    used;
    pos = Array.make tapes_n 0;
    dir = Array.make tapes_n 1;
    revs = Array.make tapes_n 0;
  }

let config_state c = c.state
let is_final m c = m.final.(c.state)
let is_accepting m c = m.accepting.(c.state)
let head_position c i = c.pos.(i)
let head_direction c i = c.dir.(i)

let read_cell m c i =
  let tape = c.tapes.(i) in
  if c.pos.(i) < Bytes.length tape then Bytes.get tape c.pos.(i) else m.blank

let reads_of m c = String.init (m.ext + m.int_) (read_cell m c)

let enabled m c =
  if m.final.(c.state) then []
  else Option.value ~default:[] (Hashtbl.find_opt m.delta (c.state, reads_of m c))

let grow_for blank tape pos =
  if pos < Bytes.length tape then tape
  else begin
    let fresh = Bytes.make (max (pos + 1) (2 * Bytes.length tape)) blank in
    Bytes.blit tape 0 fresh 0 (Bytes.length tape);
    fresh
  end

let apply m c tr =
  let tapes_n = m.ext + m.int_ in
  let tapes = Array.map Bytes.copy c.tapes in
  let used = Array.copy c.used in
  let pos = Array.copy c.pos in
  let dir = Array.copy c.dir in
  let revs = Array.copy c.revs in
  for i = 0 to tapes_n - 1 do
    tapes.(i) <- grow_for m.blank tapes.(i) pos.(i);
    Bytes.set tapes.(i) pos.(i) tr.writes.[i];
    if pos.(i) + 1 > used.(i) then used.(i) <- pos.(i) + 1;
    (match tr.moves.(i) with
    | Stay -> ()
    | Left ->
        if pos.(i) = 0 then invalid_arg "Machine.apply: head falls off tape";
        if dir.(i) = 1 then begin
          revs.(i) <- revs.(i) + 1;
          dir.(i) <- -1
        end;
        pos.(i) <- pos.(i) - 1
    | Right ->
        if dir.(i) = -1 then begin
          revs.(i) <- revs.(i) + 1;
          dir.(i) <- 1
        end;
        pos.(i) <- pos.(i) + 1;
        if pos.(i) + 1 > used.(i) then used.(i) <- pos.(i) + 1);
    tapes.(i) <- grow_for m.blank tapes.(i) pos.(i)
  done;
  { state = tr.next_state; tapes; used; pos; dir; revs }

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)

let normalize m =
  if is_normalized m then m
  else begin
    (* Serialize each k-move transition through k-1 fresh relay states.
       Relay steps must not depend on (or clobber) the cells they pass
       over, so the relay transition is emitted for every read tuple that
       can occur there. The cells under the heads after the first
       sub-step are exactly the symbols the original transition wrote
       (for the still-unmoved heads) and arbitrary alphabet symbols (for
       already-moved heads), so we enumerate over the machine's symbol
       universe for the moved coordinates. *)
    let alphabet =
      let syms = Hashtbl.create 16 in
      Hashtbl.add syms m.blank ();
      Hashtbl.iter
        (fun (_, reads) trs ->
          String.iter (fun ch -> Hashtbl.replace syms ch ()) reads;
          List.iter
            (fun tr -> String.iter (fun ch -> Hashtbl.replace syms ch ()) tr.writes)
            trs)
        m.delta;
      Hashtbl.fold (fun ch () acc -> ch :: acc) syms []
    in
    let tapes_n = m.ext + m.int_ in
    let fresh_names = ref [] in
    let fresh_count = ref 0 in
    let new_transitions = ref [] in
    let add q reads tr = new_transitions := (q, reads, tr) :: !new_transitions in
    let alloc_state name =
      let q = m.num_states + !fresh_count in
      incr fresh_count;
      fresh_names := name :: !fresh_names;
      q
    in
    (* All read tuples consistent with [known]: position i is
       [Some ch] (fixed) or [None] (any alphabet symbol). *)
    let rec tuples known i acc =
      if i = tapes_n then List.map (fun rev -> String.init tapes_n (List.nth (List.rev rev))) acc
      else begin
        let choices = match known.(i) with Some ch -> [ ch ] | None -> alphabet in
        let acc' =
          List.concat_map (fun prefix -> List.map (fun ch -> ch :: prefix) choices) acc
        in
        tuples known (i + 1) acc'
      end
    in
    let enumerate known = tuples known 0 [ [] ] in
    Hashtbl.iter
      (fun (q, reads) trs ->
        List.iter
          (fun tr ->
            match moving_heads tr with
            | [] | [ _ ] -> add q reads tr
            | (h0, mv0) :: rest ->
                (* first sub-step: all writes, first head moves *)
                let first_moves = Array.make tapes_n Stay in
                first_moves.(h0) <- mv0;
                let entry =
                  alloc_state (Printf.sprintf "%s~relay%d" m.state_names.(q) !fresh_count)
                in
                add q reads
                  { next_state = entry; writes = tr.writes; moves = first_moves };
                (* relay chain: one further head per sub-step *)
                let known = Array.make tapes_n None in
                String.iteri (fun i ch -> known.(i) <- Some ch) tr.writes;
                known.(h0) <- None;
                let current = ref entry in
                List.iteri
                  (fun idx (h, mv) ->
                    let is_last = idx = List.length rest - 1 in
                    let target =
                      if is_last then tr.next_state
                      else
                        alloc_state
                          (Printf.sprintf "%s~relay%d" m.state_names.(q) !fresh_count)
                    in
                    let mvs = Array.make tapes_n Stay in
                    mvs.(h) <- mv;
                    List.iter
                      (fun rds ->
                        add !current rds { next_state = target; writes = rds; moves = mvs })
                      (enumerate known);
                    known.(h) <- None;
                    current := target)
                  rest)
          trs)
      m.delta;
    let extra = !fresh_count in
    let state_names =
      Array.append m.state_names (Array.of_list (List.rev !fresh_names))
    in
    let final = Array.append m.final (Array.make extra false) in
    let accepting = Array.append m.accepting (Array.make extra false) in
    create ~name:(m.name ^ "~normalized") ~state_names ~start:m.start ~final
      ~accepting ~blank:m.blank ~ext:m.ext ~int_:m.int_
      (List.rev !new_transitions)
  end

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

type outcome = Accepted | Rejected | Stuck | Out_of_fuel

type run_stats = {
  outcome : outcome;
  steps : int;
  ext_reversals : int array;
  ext_space : int array;
  int_space : int array;
  final_config : config;
}

let scans st = 1 + Array.fold_left ( + ) 0 st.ext_reversals
let total_int_space st = Array.fold_left ( + ) 0 st.int_space

let stats_of m steps outcome c =
  {
    outcome;
    steps;
    ext_reversals = Array.sub c.revs 0 m.ext;
    ext_space = Array.sub c.used 0 m.ext;
    int_space = Array.sub c.used m.ext m.int_;
    final_config = c;
  }

let run ?(fuel = 10_000_000) m ~input ~choices =
  let c = ref (initial_config m input) in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    if is_final m !c then
      result := Some (if is_accepting m !c then Accepted else Rejected)
    else if !steps >= fuel then result := Some Out_of_fuel
    else begin
      match enabled m !c with
      | [] -> result := Some Stuck
      | trs ->
          let k = List.length trs in
          let pick = ((choices !steps mod k) + k) mod k in
          c := apply m !c (List.nth trs pick);
          incr steps
    end
  done;
  stats_of m !steps (Option.get !result) !c

let run_deterministic ?fuel m ~input = run ?fuel m ~input ~choices:(fun _ -> 0)

let tape_contents m c i =
  let raw = Bytes.sub_string c.tapes.(i) 0 (min c.used.(i) (Bytes.length c.tapes.(i))) in
  let last = ref (String.length raw) in
  while !last > 0 && raw.[!last - 1] = m.blank do
    decr last
  done;
  String.sub raw 0 !last
