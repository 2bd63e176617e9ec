type 'v check = values:'v array -> cells:Nlm.cell array -> bool

type 'v step = {
  movements : Nlm.movement array;  (* raw, pre-clamp *)
  check : 'v check option;
  dirs_before : int array;
}

type 'v t = {
  lists : int;
  input_length : int;
  pilot : Nlm.kernel;
  mutable steps : 'v step list;  (* reversed *)
}

let create ~lists ~input_length () =
  { lists; input_length; pilot = Nlm.kernel_create ~lists ~input_length; steps = [] }

let cells p = Nlm.kernel_cells p.pilot
let positions p = Array.init p.lists (Nlm.kernel_position p.pilot)
let dirs p = Array.init p.lists (Nlm.kernel_dir p.pilot)

let list_length p tau =
  if tau < 1 || tau > p.lists then invalid_arg "Plan.list_length";
  Nlm.kernel_length p.pilot (tau - 1)

let reversals_planned p = Nlm.kernel_reversals p.pilot

(* A built machine keeps every planned step (~39k for the m = 64
   staircase), so steps stay small: movements are shared constants, and
   consecutive steps share equal [dirs_before] arrays. *)
let rest_left = { Nlm.dir = -1; move = false }
let rest_right = { Nlm.dir = 1; move = false }
let step_left = { Nlm.dir = -1; move = true }
let step_right = { Nlm.dir = 1; move = true }

let movement ~dir ~move =
  match (dir = 1, move) with
  | false, false -> rest_left
  | true, false -> rest_right
  | false, true -> step_left
  | true, true -> step_right

let move p ?check movements =
  if Array.length movements <> p.lists then invalid_arg "Plan.move: arity";
  let dirs_before =
    let d = dirs p in
    match p.steps with s :: _ when s.dirs_before = d -> s.dirs_before | _ -> d
  in
  (* plan-time writes carry state 0 and choice 0: the run's writes differ
     only in those symbols, never in list shape, ids or input positions *)
  ignore (Nlm.kernel_step p.pilot ~state:0 ~choice:0 movements);
  p.steps <- { movements; check; dirs_before } :: p.steps

let neutral p = Array.map (fun dir -> movement ~dir ~move:false) (dirs p)

let pause p ?check () = move p ?check (neutral p)

let advance p ~tau ~dir =
  if tau < 1 || tau > p.lists then invalid_arg "Plan.advance: tau";
  if dir <> 1 && dir <> -1 then invalid_arg "Plan.advance: dir";
  let pos = Nlm.kernel_position p.pilot (tau - 1) in
  if (pos = 1 && dir = -1) || (pos = list_length p tau && dir = 1) then
    invalid_arg "Plan.advance: head at list end";
  let movements = neutral p in
  movements.(tau - 1) <- movement ~dir ~move:true;
  move p movements


let id_at p ~tau =
  if tau < 1 || tau > p.lists then invalid_arg "Plan.id_at";
  Nlm.kernel_id_at p.pilot (tau - 1) ~index:(Nlm.kernel_position p.pilot (tau - 1))

let id_at_index p ~tau ~index =
  if tau < 1 || tau > p.lists then invalid_arg "Plan.id_at_index";
  if index < 1 || index > list_length p tau then
    invalid_arg "Plan.id_at_index: index out of range";
  Nlm.kernel_id_at p.pilot (tau - 1) ~index

let goto p ~tau ~id =
  match Nlm.kernel_index_of_id p.pilot (tau - 1) id with
  | None -> failwith "Plan.goto: id not found"
  | Some idx ->
      (* only head [tau] moves, so [idx] is stable during the walk:
         overwrites keep list [tau]'s length, and the forced inserts
         land on the other lists *)
      let dir = if idx > Nlm.kernel_position p.pilot (tau - 1) then 1 else -1 in
      while Nlm.kernel_position p.pilot (tau - 1) <> idx do
        advance p ~tau ~dir
      done

let contains_input i cell = Nlm.cell_mentions cell i

let check_inputs_equal p ~eq i j =
  let cs = cells p in
  let visible k = Array.exists (contains_input k) cs in
  if not (visible i) then
    invalid_arg (Printf.sprintf "Plan.check_inputs_equal: In %d not visible" i);
  if not (visible j) then
    invalid_arg (Printf.sprintf "Plan.check_inputs_equal: In %d not visible" j);
  let check ~values ~cells =
    let find k =
      if Array.exists (contains_input k) cells then Some values.(k - 1) else None
    in
    match (find i, find j) with
    | Some a, Some b -> eq a b
    | None, _ | _, None -> false
  in
  pause p ~check ()

let build_choice_dispatch planners ~name ~accept_at_end =
  (match planners with [] -> invalid_arg "Plan.build_choice_dispatch: empty" | _ -> ());
  let first = List.hd planners in
  List.iter
    (fun p ->
      if p.lists <> first.lists || p.input_length <> first.input_length then
        invalid_arg "Plan.build_choice_dispatch: planner shapes differ")
    planners;
  let scripts =
    Array.of_list (List.map (fun p -> Array.of_list (List.rev p.steps)) planners)
  in
  let k = Array.length scripts in
  let stride = 1 + Array.fold_left (fun acc s -> max acc (Array.length s)) 0 scripts in
  (* state encoding: 0 = dispatch; 1 + c*stride + i = step i of script c;
     then the two sinks *)
  let accept_state = 1 + (k * stride) in
  let reject_state = accept_state + 1 in
  let neutral_initial = Array.make first.lists { Nlm.dir = 1; move = false } in
  let alpha ~values ~state ~cells ~choice =
    if state = 0 then begin
      let c = choice mod k in
      if Array.length scripts.(c) = 0 then
        { Nlm.next_state = accept_state; movements = neutral_initial }
      else { Nlm.next_state = 1 + (c * stride); movements = neutral_initial }
    end
    else begin
      let c = (state - 1) / stride in
      let i = (state - 1) mod stride in
      let script = scripts.(c) in
      if i >= Array.length script then
        invalid_arg "dispatch alpha: past end of script"
      else begin
        let s = script.(i) in
        let ok = match s.check with None -> true | Some f -> f ~values ~cells in
        let at_end = i + 1 >= Array.length script in
        if ok then
          {
            Nlm.next_state = (if at_end then accept_state else state + 1);
            movements = s.movements;
          }
        else
          {
            Nlm.next_state = reject_state;
            movements =
              Array.map (fun d -> { Nlm.dir = d; move = false }) s.dirs_before;
          }
      end
    end
  in
  Nlm.make ~name ~lists:first.lists ~input_length:first.input_length
    ~num_choices:k
    ~state_count:(reject_state + 1)
    ~initial:0
    ~is_final:(fun s -> s >= accept_state)
    ~is_accepting:(fun s -> s = accept_state && accept_at_end)
    ~alpha

let build p ~name ~accept_at_end =
  let script = Array.of_list (List.rev p.steps) in
  let len = Array.length script in
  let accept_state = len in
  let reject_state = len + 1 in
  let alpha ~values ~state ~cells ~choice:_ =
    if state >= len then invalid_arg "scripted alpha: final state"
    else begin
      let s = script.(state) in
      let ok =
        match s.check with None -> true | Some f -> f ~values ~cells
      in
      if ok then { Nlm.next_state = state + 1; movements = s.movements }
      else
        {
          Nlm.next_state = reject_state;
          movements =
            Array.map (fun d -> { Nlm.dir = d; move = false }) s.dirs_before;
        }
    end
  in
  Nlm.make ~name ~lists:p.lists ~input_length:p.input_length ~num_choices:1
    ~state_count:(len + 2) ~initial:0
    ~is_final:(fun s -> s >= len)
    ~is_accepting:(fun s -> s = accept_state && accept_at_end)
    ~alpha
