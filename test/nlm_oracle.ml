(* A deliberately naive Definition 24(c) stepper, the oracle the list
   machine kernel is tested against. Configurations are persistent
   arrays, a splice rebuilds the list by concatenation, and a written
   cell is the flat symbol string a⟨x_1⟩…⟨x_t⟩⟨c⟩ of Definition 14
   spelled out symbol by symbol. It shares nothing with [Nlm]'s kernel
   beyond the [config] record and the cell constructors; keep it slow
   and obvious. *)

module Nlm = Listmachine.Nlm

(* How often each branch of Definition 24(c) fired, so a test can
   assert that its generator reaches all of them. *)
type stats = {
  mutable clamp_left : int;
  mutable clamp_right : int;
  mutable turn_left : int;  (* a head facing right turns to face left *)
  mutable turn_right : int;
  mutable insert_before : int;  (* resting head facing right *)
  mutable insert_after : int;  (* resting head facing left *)
}

let stats () =
  {
    clamp_left = 0;
    clamp_right = 0;
    turn_left = 0;
    turn_right = 0;
    insert_before = 0;
    insert_after = 0;
  }

let heads (c : Nlm.config) = Array.mapi (fun tau p -> c.contents.(tau).(p - 1)) c.pos

let written ~state ~cells ~choice =
  Nlm.cell_of_syms
    ((Nlm.St state
     :: List.concat_map
          (fun x -> (Nlm.Open :: Nlm.syms_of_cell x) @ [ Nlm.Close ])
          (Array.to_list cells))
    @ [ Nlm.Open; Nlm.Ch choice; Nlm.Close ])

let insert a i x =
  Array.concat [ Array.sub a 0 i; [| x |]; Array.sub a i (Array.length a - i) ]

(* One step from [c] under the raw movements α chose in [c.state] with
   [choice]; the successor is in [next_state]. *)
let step ?(stats = stats ()) (c : Nlm.config) ~choice ~next_state
    (movements : Nlm.movement array) =
  let t = Array.length c.pos in
  let clamped =
    Array.mapi
      (fun tau (e : Nlm.movement) ->
        let last = Array.length c.contents.(tau) in
        if e.move && e.dir = -1 && c.pos.(tau) = 1 then begin
          stats.clamp_left <- stats.clamp_left + 1;
          { e with move = false }
        end
        else if e.move && e.dir = 1 && c.pos.(tau) = last then begin
          stats.clamp_right <- stats.clamp_right + 1;
          { e with move = false }
        end
        else e)
      movements
  in
  let acts = ref false in
  Array.iteri
    (fun tau (e : Nlm.movement) -> if e.move || e.dir <> c.head_dir.(tau) then acts := true)
    clamped;
  if not !acts then ({ c with state = next_state }, Array.make t 0)
  else begin
    let y = written ~state:c.state ~cells:(heads c) ~choice in
    let contents = Array.copy c.contents and ids = Array.copy c.ids in
    let pos = Array.copy c.pos and head_dir = Array.copy c.head_dir in
    let revs = Array.copy c.revs and next_id = ref c.next_id in
    let moves = Array.make t 0 in
    for tau = 0 to t - 1 do
      let e = clamped.(tau) and p = c.pos.(tau) in
      if e.move then begin
        contents.(tau) <- Array.mapi (fun j x -> if j = p - 1 then y else x) c.contents.(tau);
        pos.(tau) <- p + e.dir;
        moves.(tau) <- e.dir
      end
      else if c.head_dir.(tau) = 1 then begin
        stats.insert_before <- stats.insert_before + 1;
        contents.(tau) <- insert c.contents.(tau) (p - 1) y;
        ids.(tau) <- insert c.ids.(tau) (p - 1) !next_id;
        incr next_id;
        pos.(tau) <- p + 1
      end
      else begin
        stats.insert_after <- stats.insert_after + 1;
        contents.(tau) <- insert c.contents.(tau) p y;
        ids.(tau) <- insert c.ids.(tau) p !next_id;
        incr next_id
      end;
      if e.dir <> c.head_dir.(tau) then begin
        if e.dir = -1 then stats.turn_left <- stats.turn_left + 1
        else stats.turn_right <- stats.turn_right + 1;
        revs.(tau) <- revs.(tau) + 1;
        head_dir.(tau) <- e.dir
      end
    done;
    ({ Nlm.state = next_state; pos; head_dir; contents; revs; ids; next_id = !next_id }, moves)
  end

let initial ~lists ~input_length ~state =
  let first =
    if input_length = 0 then [ [ Nlm.Open; Nlm.Close ] ]
    else List.init input_length (fun i0 -> [ Nlm.Open; Nlm.In (i0 + 1); Nlm.Close ])
  in
  let contents =
    Array.init lists (fun tau ->
        Array.of_list (List.map Nlm.cell_of_syms (if tau = 0 then first else [ [ Nlm.Open; Nlm.Close ] ])))
  in
  let next = ref 0 in
  let ids =
    Array.map
      (Array.map (fun _ ->
           incr next;
           !next))
      contents
  in
  {
    Nlm.state;
    pos = Array.make lists 1;
    head_dir = Array.make lists 1;
    contents;
    revs = Array.make lists 0;
    ids;
    next_id = !next + 1;
  }

(* ρ_M(v, c) as an [Nlm.trace], one naive step at a time *)
let run ?stats (m : 'v Nlm.t) ~values ~choices =
  let rec go c i configs moves used =
    if m.is_final c.Nlm.state then
      {
        Nlm.accepted = m.is_accepting c.Nlm.state;
        configs = Array.of_list (List.rev configs);
        moves = Array.of_list (List.rev moves);
        choices_used = Array.of_list (List.rev used);
        total_revs = Array.fold_left ( + ) 0 c.Nlm.revs;
      }
    else begin
      let choice = choices i mod m.num_choices in
      let tr = m.alpha ~values ~state:c.Nlm.state ~cells:(heads c) ~choice in
      let c', mv = step ?stats c ~choice ~next_state:tr.next_state tr.movements in
      go c' (i + 1) (c' :: configs) (mv :: moves) (choice :: used)
    end
  in
  let c0 = initial ~lists:m.lists ~input_length:m.input_length ~state:m.initial in
  go c0 0 [ c0 ] [] []
