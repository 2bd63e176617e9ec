type sym = In of int | Ch of int | St of int | Open | Close

(* Cells as hash-consed DAGs.

   A written cell is the tuple y = a⟨x_1⟩…⟨x_t⟩⟨c⟩ of Definition 14; the
   components x_τ are the cells under the heads when y was written. The
   flat-string representation copies those components, so cell sizes
   compound with every reversal (the t^O(r) cell-size bound of Lemma 30
   is exponential in r) and machines beyond m=16 never finish a run.
   Representing y as a node that *references* its components keeps every
   write O(t), which is also the faithful reading of the definition: the
   machine writes a tuple, not a transcription.

   Each node memoizes, at construction time:
   - [len]: the flattened symbol count (saturating; the honest Lemma 30
     measure, reported by {!cell_size});
   - [hash]/[skhash]: rolling hashes of the flattened symbol string,
     choice-sensitive and choice-blind (skeletons wildcard [Ch _]), with
     [hpow] = MULT^len so concatenations combine in O(1);
   - [inputs]: the sorted distinct input positions occurring anywhere in
     the cell — membership tests (planner checks, skeleton position
     sets) are a binary search instead of a walk of the expansion.

   Hashes are functions of the flattened string only, so a [Syms] cell
   and a [Written] cell with the same expansion hash alike, and every
   hash is deterministic across runs and domains. The [uid] is NOT: it
   is a process-global stamp used for physical-identity fast paths and
   comparison memo tables; it never reaches any output. *)

type cell = {
  uid : int;
  shape : shape;
  len : int;
  hash : int;
  skhash : int;
  hpow : int;
  inputs : int array;
}

and shape = Syms of sym array | Written of { state : int; comps : cell array; choice : int }

let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* rolling (Horner) hash: H(s·t) = H(s)*MULT^|t| + H(t), on wrapping
   native ints. MULT odd so powers never vanish. *)
let mult = 0x5851F42D4C957F2D

let sym_code = function
  | In i -> (i lsl 3) lor 1
  | Ch c -> (c lsl 3) lor 2
  | St a -> (a lsl 3) lor 3
  | Open -> 4
  | Close -> 5

(* choice-blind code: every [Ch _] collapses to the wildcard *)
let sym_skcode = function Ch _ -> 2 | s -> sym_code s

let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* Union of two sorted distinct arrays, sorted distinct. This runs once
   per component of every written cell — hundreds of thousands of times
   in an adversary census — so it is linear and allocates exactly: a
   first two-pointer pass counts the union, and when that equals the
   size of an operand the operand already is the union and is returned
   physically (no allocation, and the cell shares its component's set);
   otherwise a second pass fills an array of exactly that size. [b] is
   preferred on a tie, so a left fold returns an operand holding the
   union rather than an equal intermediate. *)
let union2 a b =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < la && !j < lb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x <= y then incr i;
    if y <= x then incr j;
    incr n
  done;
  let n = !n + (la - !i) + (lb - !j) in
  if n = lb then b
  else if n = la then a
  else begin
    let r = Array.make n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      Array.unsafe_set r !k (if x <= y then x else y);
      if x <= y then incr i;
      if y <= x then incr j;
      incr k
    done;
    (* at most one operand has a tail left *)
    Array.blit a !i r !k (la - !i);
    Array.blit b !j r !k (lb - !j);
    r
  end

let cell_of_sym_array arr =
  let len = Array.length arr in
  let hash = ref 0 and skhash = ref 0 and hpow = ref 1 in
  let inputs = ref [] in
  Array.iter
    (fun s ->
      hash := (!hash * mult) + sym_code s;
      skhash := (!skhash * mult) + sym_skcode s;
      hpow := !hpow * mult;
      match s with In i -> inputs := i :: !inputs | Ch _ | St _ | Open | Close -> ())
    arr;
  {
    uid = fresh_uid ();
    shape = Syms (Array.copy arr);
    len;
    hash = !hash;
    skhash = !skhash;
    hpow = !hpow;
    inputs = Array.of_list (List.sort_uniq Int.compare !inputs);
  }

let cell_of_syms syms = cell_of_sym_array (Array.of_list syms)

(* flattening of a written cell: a ⟨x_1⟩ … ⟨x_t⟩ ⟨c⟩; the node keeps
   [comps], which the caller hands over *)
let written_cell ~state ~comps ~choice =
  let h = ref (sym_code (St state)) and skh = ref (sym_skcode (St state)) in
  let pow = ref mult in
  let len = ref 1 in
  let app_sym code skcode =
    h := (!h * mult) + code;
    skh := (!skh * mult) + skcode;
    pow := !pow * mult;
    len := sat_add !len 1
  in
  let app_cell c =
    h := (!h * c.hpow) + c.hash;
    skh := (!skh * c.hpow) + c.skhash;
    pow := !pow * c.hpow;
    len := sat_add !len c.len
  in
  let copen = sym_code Open and cclose = sym_code Close in
  Array.iter
    (fun c ->
      app_sym copen copen;
      app_cell c;
      app_sym cclose cclose)
    comps;
  app_sym copen copen;
  app_sym (sym_code (Ch choice)) (sym_skcode (Ch choice));
  app_sym cclose cclose;
  {
    uid = fresh_uid ();
    shape = Written { state; comps; choice };
    len = !len;
    hash = !h;
    skhash = !skh;
    hpow = !pow;
    inputs = Array.fold_left (fun acc c -> union2 acc c.inputs) [||] comps;
  }

(* -------------------------------------------------------------- *)
(* Flattened views. These walk the full expansion of the DAG — cost
   proportional to [cell_size], i.e. potentially exponential in the
   reversal count. They exist for rendering, tests and the merge-lemma
   position sequences of small machines; nothing on the adversary's hot
   path flattens. *)

let fold_syms f init cell =
  let rec go acc cell =
    match cell.shape with
    | Syms arr -> Array.fold_left f acc arr
    | Written { state; comps; choice } ->
        let acc = f acc (St state) in
        let acc =
          Array.fold_left
            (fun acc c -> f (go (f acc Open) c) Close)
            acc comps
        in
        f (f (f acc Open) (Ch choice)) Close
  in
  go init cell

let iter_syms f cell = fold_syms (fun () s -> f s) () cell

let syms_of_cell cell = List.rev (fold_syms (fun acc s -> s :: acc) [] cell)

exception Enough

(* first symbols of the expansion, without materializing it *)
let cell_prefix_syms cell n =
  let acc = ref [] and k = ref 0 in
  (try
     iter_syms
       (fun s ->
         if !k >= n then raise Enough;
         acc := s :: !acc;
         incr k)
       cell
   with Enough -> ());
  List.rev !acc

(* last symbols of the expansion, by a mirrored walk *)
let cell_suffix_syms cell n =
  let acc = ref [] and k = ref 0 in
  let push s =
    if !k >= n then raise Enough;
    acc := s :: !acc;
    incr k
  in
  let rec go cell =
    match cell.shape with
    | Syms arr ->
        for i = Array.length arr - 1 downto 0 do
          push arr.(i)
        done
    | Written { state; comps; choice } ->
        push Close;
        push (Ch choice);
        push Open;
        for i = Array.length comps - 1 downto 0 do
          push Close;
          go comps.(i);
          push Open
        done;
        push (St state)
  in
  (try go cell with Enough -> ());
  !acc

(* -------------------------------------------------------------- *)
(* Equality. The cheap rejections are [len] and the content hashes; the
   structural descent memoizes proven-equal uid pairs so shared
   substructure — ubiquitous between entries of one run, absent across
   runs — is never re-traversed. Mixed Syms/Written comparisons fall
   back to a streaming walk of both expansions (bounded by [len], which
   the guard has already forced equal). *)

let stream_equal ~skblind a b =
  (* compare flattened expansions symbol by symbol via two explicit
     continuation stacks *)
  let code = if skblind then sym_skcode else sym_code in
  let module S = struct
    type frame = FSym of sym | FCell of cell
  end in
  let open S in
  let next stack =
    (* pop until a symbol is produced *)
    let rec go = function
      | [] -> (None, [])
      | FSym s :: rest -> (Some s, rest)
      | FCell c :: rest -> (
          match c.shape with
          | Syms arr ->
              go (Array.fold_right (fun s acc -> FSym s :: acc) arr rest)
          | Written { state; comps; choice } ->
              let tail =
                Array.fold_right
                  (fun comp acc -> FSym Open :: FCell comp :: FSym Close :: acc)
                  comps
                  (FSym Open :: FSym (Ch choice) :: FSym Close :: rest)
              in
              go (FSym (St state) :: tail))
    in
    go stack
  in
  let rec loop sa sb =
    match (next sa, next sb) with
    | (None, _), (None, _) -> true
    | (Some x, sa'), (Some y, sb') -> code x = code y && loop sa' sb'
    | (None, _), (Some _, _) | (Some _, _), (None, _) -> false
  in
  loop [ FCell a ] [ FCell b ]

let cell_equal_memo ~skblind memo =
  let hash_of c = if skblind then c.skhash else c.hash in
  let rec eq a b =
    a == b
    || a.uid = b.uid
    || (a.len = b.len
       && hash_of a = hash_of b
       &&
       let key = if a.uid < b.uid then (a.uid, b.uid) else (b.uid, a.uid) in
       match Hashtbl.find_opt memo key with
       | Some r -> r
       | None ->
           let r =
             match (a.shape, b.shape) with
             | Syms xs, Syms ys ->
                 let code = if skblind then sym_skcode else sym_code in
                 Array.length xs = Array.length ys
                 && Array.for_all2 (fun x y -> code x = code y) xs ys
             | Written wa, Written wb ->
                 wa.state = wb.state
                 && (skblind || wa.choice = wb.choice)
                 && Array.length wa.comps = Array.length wb.comps
                 && Array.for_all2 eq wa.comps wb.comps
             | Syms _, Written _ | Written _, Syms _ ->
                 stream_equal ~skblind a b
           in
           Hashtbl.replace memo key r;
           r)
  in
  eq

let cell_equal a b =
  a == b || (a.len = b.len && a.hash = b.hash && cell_equal_memo ~skblind:false (Hashtbl.create 16) a b)

let cell_sk_equal_memo memo = cell_equal_memo ~skblind:true memo
let cell_sk_hash c = c.skhash
let merge_input_positions arrays = Array.fold_left union2 [||] arrays

let positions_mem arr i =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr && arr.(!lo) = i

let cell_mentions c i = positions_mem c.inputs i

let cell_input_positions c = c.inputs

type movement = { dir : int; move : bool }
type transition = { next_state : int; movements : movement array }

type 'v alpha =
  values:'v array -> state:int -> cells:cell array -> choice:int -> transition

type 'v t = {
  lists : int;
  input_length : int;
  num_choices : int;
  state_count : int;
  initial : int;
  is_final : int -> bool;
  is_accepting : int -> bool;
  alpha : 'v alpha;
  name : string;
}

let make ~name ~lists ~input_length ~num_choices ~state_count ~initial ~is_final
    ~is_accepting ~alpha =
  if lists < 1 then invalid_arg "Nlm.make: lists >= 1";
  if input_length < 0 then invalid_arg "Nlm.make: input_length >= 0";
  if num_choices < 1 then invalid_arg "Nlm.make: num_choices >= 1";
  if state_count < 1 then invalid_arg "Nlm.make: state_count >= 1";
  if initial < 0 then invalid_arg "Nlm.make: initial state";
  {
    lists;
    input_length;
    num_choices;
    state_count;
    initial;
    is_final;
    is_accepting;
    alpha;
    name;
  }

type config = {
  state : int;
  pos : int array;
  head_dir : int array;
  contents : cell array array;
  revs : int array;
  ids : int array array;
  next_id : int;
}

let empty_cell = cell_of_sym_array [| Open; Close |]

let current_cells c =
  Array.mapi (fun tau p -> c.contents.(tau).(p - 1)) c.pos

(* -------------------------------------------------------------- *)
(* The kernel: the one implementation of Definition 24(c).

   Definition 24(c) forces a write into every list whose head rests, so
   under an array representation every step splices each resting list
   at O(list length) and a long run goes quadratic (a census run at
   m = 64 spent ~1.2 s shifting list tails). The kernel keeps each list
   as a ring of doubly-linked nodes around a sentinel, so the splice at
   a resting head's cursor is O(1) and a step is O(t). Every runner
   drives it: [run_view] records views, [run] and [step] record
   persistent snapshots, and [Plan]'s pilot steps it directly. Cells
   are immutable DAG nodes, so recorded views and snapshots stay valid
   as the rings change under them.

   The kernel is top-level functions, not a submodule: a submodule is a
   block allocated at program start, and start-up allocation shifts
   every later minor collection of each program linking this library,
   including those that never run a list machine (56 such words moved
   the extsort-file benchmark's peak RSS by 4 MB). *)

type node = {
  nid : int;  (* the stable cell identity of [config.ids] *)
  mutable ncell : cell;
  mutable prev : node;
  mutable next : node;
}

type tape = {
  ring : node;  (* sentinel: [ring.next] is cell 1, [ring.prev] the last *)
  mutable cur : node;  (* the node under the head *)
  mutable tpos : int;  (* 1-based index of [cur] *)
  mutable tlen : int;
  mutable tdir : int;
  mutable trevs : int;
  mutable edit : int;  (* 1-based index the last write landed on *)
}

type kernel = {
  tapes : tape array;
  mutable knext_id : int;
  mutable wrote : bool;  (* whether the last step wrote *)
  mutable written : cell;  (* the cell it wrote *)
  mutable max_total : int;
  mutable max_cell : int;
}

(* a fresh node holding [y] between [q] and its successor *)
let link_after q y id =
  let n = { nid = id; ncell = y; prev = q; next = q.next } in
  q.next.prev <- n;
  q.next <- n

let total_length k = Array.fold_left (fun acc tp -> acc + tp.tlen) 0 k.tapes

let kernel_of_config (c : config) =
  let tape tau =
    let rec ring = { nid = 0; ncell = empty_cell; prev = ring; next = ring } in
    Array.iteri (fun j y -> link_after ring.prev y c.ids.(tau).(j)) c.contents.(tau);
    let cur = ref ring.next in
    for _ = 2 to c.pos.(tau) do
      cur := !cur.next
    done;
    {
      ring;
      cur = !cur;
      tpos = c.pos.(tau);
      tlen = Array.length c.contents.(tau);
      tdir = c.head_dir.(tau);
      trevs = c.revs.(tau);
      edit = 0;
    }
  in
  let k =
    {
      tapes = Array.init (Array.length c.pos) tape;
      knext_id = c.next_id;
      wrote = false;
      written = empty_cell;
      max_total = 0;
      max_cell = 3 (* the size of an ⟨In i⟩ cell *);
    }
  in
  k.max_total <- total_length k;
  k

let initial_lists ~lists ~input_length =
  let first =
    if input_length = 0 then [| empty_cell |]
    else Array.init input_length (fun i0 -> cell_of_sym_array [| Open; In (i0 + 1); Close |])
  in
  let contents = Array.init lists (fun tau -> if tau = 0 then first else [| empty_cell |]) in
  (* ids count up list-major from 1 *)
  let counter = ref 0 in
  let ids =
    Array.map
      (Array.map (fun _ ->
           incr counter;
           !counter))
      contents
  in
  {
    state = 0;
    pos = Array.make lists 1;
    head_dir = Array.make lists 1;
    contents;
    revs = Array.make lists 0;
    ids;
    next_id = !counter + 1;
  }

let kernel_create ~lists ~input_length = kernel_of_config (initial_lists ~lists ~input_length)
let kernel_cells k = Array.map (fun tp -> tp.cur.ncell) k.tapes
let kernel_position k tau = k.tapes.(tau).tpos
let kernel_dir k tau = k.tapes.(tau).tdir
let kernel_length k tau = k.tapes.(tau).tlen
let kernel_reversals k = Array.fold_left (fun acc tp -> acc + tp.trevs) 0 k.tapes

(* the move flag after clamping at list ends *)
let moves_on tp e =
  e.move && not ((e.dir = -1 && tp.tpos = 1) || (e.dir = 1 && tp.tpos = tp.tlen))

let kernel_step k ~state ~choice movements =
  let t = Array.length k.tapes in
  if Array.length movements <> t then invalid_arg "Nlm.step: wrong movement arity";
  Array.iter
    (fun e -> if e.dir <> -1 && e.dir <> 1 then invalid_arg "Nlm.step: dir must be ±1")
    movements;
  let moves = Array.make t 0 in
  k.wrote <- Array.exists2 (fun tp e -> moves_on tp e || e.dir <> tp.tdir) k.tapes movements;
  if k.wrote then begin
    (* the forced write: an O(t) node referencing the current cells *)
    let y = written_cell ~state ~comps:(kernel_cells k) ~choice in
    k.written <- y;
    if y.len > k.max_cell then k.max_cell <- y.len;
    Array.iteri
      (fun tau tp ->
        let e = movements.(tau) in
        if moves_on tp e then begin
          (* overwrite: the cell keeps its identity, then the head
             steps off it (the clamp guarantees a neighbour) *)
          tp.cur.ncell <- y;
          tp.edit <- tp.tpos;
          tp.cur <- (if e.dir = 1 then tp.cur.next else tp.cur.prev);
          tp.tpos <- tp.tpos + e.dir;
          moves.(tau) <- e.dir
        end
        else begin
          (* splice a fresh cell behind the resting head: before the
             cursor when it faces right (shifting the cursor's index
             up), after it when it faces left *)
          link_after (if tp.tdir = 1 then tp.cur.prev else tp.cur) y k.knext_id;
          k.knext_id <- k.knext_id + 1;
          if tp.tdir = 1 then begin
            tp.edit <- tp.tpos;
            tp.tpos <- tp.tpos + 1
          end
          else tp.edit <- tp.tpos + 1;
          tp.tlen <- tp.tlen + 1
        end;
        if e.dir <> tp.tdir then begin
          tp.trevs <- tp.trevs + 1;
          tp.tdir <- e.dir
        end)
      k.tapes;
    k.max_total <- max k.max_total (total_length k)
  end;
  moves

(* the node at 1-based [index], walked to from the nearest of the
   front, the cursor and the back *)
let node_at tp index =
  let from_cur = abs (index - tp.tpos) in
  let n = ref tp.ring.next and steps = ref (index - 1) and fwd = ref true in
  if from_cur < !steps then begin
    n := tp.cur;
    steps := from_cur;
    fwd := index > tp.tpos
  end;
  if tp.tlen - index < !steps then begin
    n := tp.ring.prev;
    steps := tp.tlen - index;
    fwd := false
  end;
  for _ = 1 to !steps do
    n := if !fwd then !n.next else !n.prev
  done;
  !n

let kernel_id_at k tau ~index =
  let tp = k.tapes.(tau) in
  if index < 1 || index > tp.tlen then invalid_arg "Nlm.kernel_id_at: index out of range";
  (node_at tp index).nid

let kernel_index_of_id k tau id =
  let tp = k.tapes.(tau) in
  let rec scan n i =
    if n == tp.ring then None else if n.nid = id then Some i else scan n.next (i + 1)
  in
  scan tp.ring.next 1

(* list contents and ids as arrays *)
let cells_of tp =
  let a = Array.make tp.tlen tp.ring.next.ncell in
  let n = ref tp.ring.next in
  for j = 1 to tp.tlen - 1 do
    n := !n.next;
    a.(j) <- !n.ncell
  done;
  a

let ids_of tp =
  let a = Array.make tp.tlen 0 in
  let n = ref tp.ring in
  for j = 0 to tp.tlen - 1 do
    n := !n.next;
    a.(j) <- !n.nid
  done;
  a

(* [a] with [x] made element [i] (0-based), the tail shifted right *)
let insert a i x =
  let b = Array.make (Array.length a + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (Array.length a - i);
  b

(* The persistent configuration of the kernel in [state]. Given the
   snapshot [prev] of the previous step, it replays that step's edits
   on [prev]'s arrays rather than walking the rings: a step that wrote
   nothing changed only the state, and a step that wrote put
   [written] at index [edit] of every list — over the old cell if the
   list kept its length (and so its ids), as a new cell otherwise. *)
let snapshot ?prev k ~state =
  match prev with
  | Some p when not k.wrote -> { p with state }
  | _ ->
      let contents tau tp =
        match prev with
        | None -> cells_of tp
        | Some p when Array.length p.contents.(tau) = tp.tlen ->
            let a = Array.copy p.contents.(tau) in
            a.(tp.edit - 1) <- k.written;
            a
        | Some p -> insert p.contents.(tau) (tp.edit - 1) k.written
      in
      let ids tau tp =
        match prev with
        | None -> ids_of tp
        | Some p when Array.length p.ids.(tau) = tp.tlen -> p.ids.(tau)
        | Some p -> insert p.ids.(tau) (tp.edit - 1) (node_at tp tp.edit).nid
      in
      {
        state;
        pos = Array.map (fun tp -> tp.tpos) k.tapes;
        head_dir = Array.map (fun tp -> tp.tdir) k.tapes;
        contents = Array.mapi contents k.tapes;
        revs = Array.map (fun tp -> tp.trevs) k.tapes;
        ids = Array.mapi ids k.tapes;
        next_id = k.knext_id;
      }

let initial_config m =
  { (initial_lists ~lists:m.lists ~input_length:m.input_length) with state = m.initial }

(* one machine step on the kernel: α on the cells under the heads, then
   Definition 24(c); returns the successor state and the cell moves *)
let advance m ~values k ~state ~choice =
  let tr = m.alpha ~values ~state ~cells:(kernel_cells k) ~choice in
  (tr.next_state, kernel_step k ~state ~choice tr.movements)

let step m ~values c ~choice =
  if m.is_final c.state then invalid_arg "Nlm.step: final configuration";
  if choice < 0 || choice >= m.num_choices then invalid_arg "Nlm.step: choice range";
  let k = kernel_of_config c in
  let state, moves = advance m ~values k ~state:c.state ~choice in
  (snapshot ~prev:c k ~state, moves)

type trace = {
  accepted : bool;
  configs : config array;
  moves : int array array;
  choices_used : int array;
  total_revs : int;
}

(* [Array.of_list (List.rev l)] without the intermediate reversed list,
   which on a long run is as large as the list itself *)
let array_of_rev_list l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = 0 to (n / 2) - 1 do
    let x = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- x
  done;
  a

(* The run loop of [run] and [run_view]: fuel, choice normalisation and
   one kernel step per machine step. [record] sees the kernel in every
   configuration ρ_1 … ρ_ℓ, the initial one included. *)
let drive ~who ~fuel m ~values ~choices record =
  if Array.length values <> m.input_length then invalid_arg (who ^ ": values arity");
  let k = kernel_of_config (initial_config m) in
  let state = ref m.initial in
  let moves = ref [] and used = ref [] and steps = ref 0 in
  record k !state;
  while not (m.is_final !state) do
    if !steps >= fuel then failwith (who ^ ": out of fuel");
    let choice = ((choices !steps mod m.num_choices) + m.num_choices) mod m.num_choices in
    let next, mv = advance m ~values k ~state:!state ~choice in
    state := next;
    (* a head walking along repeats its move vector: share it *)
    moves := (match !moves with last :: _ when last = mv -> last | _ -> mv) :: !moves;
    used := choice :: !used;
    incr steps;
    record k next
  done;
  (k, !state, array_of_rev_list !moves, array_of_rev_list !used)

let run ?(fuel = 100_000) m ~values ~choices =
  let configs = ref [] in
  let record k state =
    let prev = match !configs with [] -> None | c :: _ -> Some c in
    configs := snapshot ?prev k ~state :: !configs
  in
  let k, state, moves, choices_used = drive ~who:"Nlm.run" ~fuel m ~values ~choices record in
  {
    accepted = m.is_accepting state;
    configs = array_of_rev_list !configs;
    moves;
    choices_used;
    total_revs = kernel_reversals k;
  }

let scans tr = 1 + tr.total_revs

(* -------------------------------------------------------------- *)
(* View runs. [run] keeps a persistent snapshot of every configuration,
   O(total list length) of fresh arrays per step — hundreds of MB on
   adversary-sized machines, on which the domains of a parallel census
   then serialize through the shared GC. The skeleton pipeline only
   looks at the O(t) local view per step (state, head directions, cells
   under the heads) plus the final configuration, so [run_view] records
   just those. *)

type view = { vstate : int; vdirs : int array; vcells : cell array }

type view_trace = {
  vaccepted : bool;
  views : view array;
  vmoves : int array array;
  vchoices_used : int array;
  vtotal_revs : int;
  final : config;
  max_total_list_length : int;
  max_cell_size : int;
}

let run_view ?(fuel = 100_000) m ~values ~choices =
  (* consecutive views with equal head directions share one array *)
  let views = ref [] and dirs = ref [||] in
  let record k state =
    let d = Array.init m.lists (kernel_dir k) in
    if d <> !dirs then dirs := d;
    views := { vstate = state; vdirs = !dirs; vcells = kernel_cells k } :: !views
  in
  let k, state, vmoves, vchoices_used =
    drive ~who:"Nlm.run_view" ~fuel m ~values ~choices record
  in
  {
    vaccepted = m.is_accepting state;
    views = array_of_rev_list !views;
    vmoves;
    vchoices_used;
    vtotal_revs = kernel_reversals k;
    final = snapshot k ~state;
    max_total_list_length = k.max_total;
    max_cell_size = k.max_cell;
  }

let accept_probability st ?(samples = 500) ?fuel m ~values =
  let hits = ref 0 in
  for _ = 1 to samples do
    let tr =
      run ?fuel m ~values ~choices:(fun _ -> Random.State.int st m.num_choices)
    in
    if tr.accepted then incr hits
  done;
  float_of_int !hits /. float_of_int samples

(* configs carry memoized cells whose [uid] differs between otherwise
   identical successors, so grouping keys on the uid-free projection *)
let config_key (c : config) =
  (c.state, c.pos, c.head_dir, c.revs, Array.map (Array.map (fun cell -> cell.hash)) c.contents)

let exact_probability ?(fuel = 200_000) m ~values =
  let expanded = ref 0 in
  let rec go c =
    incr expanded;
    if !expanded > fuel then failwith "Nlm.exact_probability: out of fuel";
    if m.is_final c.state then if m.is_accepting c.state then 1.0 else 0.0
    else begin
      (* group identical successors so that choice-insensitive steps do
         not blow up the tree (cell hashes are deterministic per choice,
         so the content projection is sound here) *)
      let successors = ref [] in
      for choice = 0 to m.num_choices - 1 do
        let c', _ = step m ~values c ~choice in
        let k = config_key c' in
        match List.assoc_opt k !successors with
        | Some (c0, count) ->
            successors := (k, (c0, count + 1)) :: List.remove_assoc k !successors
        | None -> successors := (k, (c', 1)) :: !successors
      done;
      List.fold_left
        (fun acc (_, (c', count)) ->
          acc +. (float_of_int count *. go c' /. float_of_int m.num_choices))
        0.0 !successors
    end
  in
  go (initial_config m)

let cell_inputs cell =
  List.rev
    (fold_syms
       (fun acc s ->
         match s with In i -> i :: acc | Ch _ | St _ | Open | Close -> acc)
       [] cell)

let cell_components cell =
  match cell.shape with
  | Written { state; comps; choice } -> Some (state, Array.to_list comps, choice)
  | Syms arr -> (
      (* parse a⟨x_1⟩…⟨x_t⟩⟨c⟩ by bracket matching, for hand-built cells *)
      match Array.to_list arr with
      | St a :: rest ->
          let rec comps_of acc rest =
            match rest with
            | [] -> Some (List.rev acc)
            | Open :: tl ->
                let rec grab depth body tl =
                  match tl with
                  | [] -> None
                  | Close :: tl' ->
                      if depth = 0 then Some (List.rev body, tl')
                      else grab (depth - 1) (Close :: body) tl'
                  | Open :: tl' -> grab (depth + 1) (Open :: body) tl'
                  | (In _ | Ch _ | St _) as s :: tl' -> grab depth (s :: body) tl'
                in
                (match grab 0 [] tl with
                | None -> None
                | Some (body, tl') -> comps_of (body :: acc) tl')
            | (In _ | Ch _ | St _ | Close) :: _ -> None
          in
          (match comps_of [] rest with
          | Some parts when List.length parts >= 1 -> (
              match List.rev parts with
              | [ Ch ch ] :: xs_rev ->
                  Some (a, List.rev_map cell_of_syms xs_rev, ch)
              | _ -> None)
          | Some _ | None -> None)
      | [] | (In _ | Ch _ | Open | Close) :: _ -> None)

let cell_size c = c.len
