module I = Problems.Instance
module B = Util.Bitstring
module D = Problems.Decide

type entry = { efst : int; esnd : int; evalue : string }

type certificate = {
  kind : [ `Perm | `Funs ];
  copies : entry array array;  (* 2m copies, each of 2m entries *)
}

type cell = Blank | Val of int | Ent of { efst : int; esnd : int; vid : int }

(* A cell's stored bytes: a tag byte (0 blank, 1 a value, 2 an entry),
   then a value's id, or an entry's [efst], [esnd] and value id, each
   as be32. Equal bytes exactly for equal cells; no order. *)
let cell_size = function Blank -> 1 | Val _ -> 5 | Ent _ -> 13

let write_cell buf pos = function
  | Blank ->
      Bytes.set buf pos '\x00';
      pos + 1
  | Val id ->
      Bytes.set buf pos '\x01';
      Bytes.set_int32_be buf (pos + 1) (Int32.of_int id);
      pos + 5
  | Ent { efst; esnd; vid } ->
      Bytes.set buf pos '\x02';
      Bytes.set_int32_be buf (pos + 1) (Int32.of_int efst);
      Bytes.set_int32_be buf (pos + 5) (Int32.of_int esnd);
      Bytes.set_int32_be buf (pos + 9) (Int32.of_int vid);
      pos + 13

let cell_value buf pos _limit =
  let int k = Int32.to_int (Bytes.get_int32_be buf (pos + k)) in
  match Bytes.get buf pos with
  | '\x01' -> Val (int 1)
  | '\x02' -> Ent { efst = int 1; esnd = int 5; vid = int 9 }
  | _ -> Blank

let codec =
  Tape.Device.Codec.{ size = cell_size; write = write_cell; value = cell_value; max_bytes = 13 }

module Ids = Hashtbl.Make (String)

(* ------------------------------------------------------------------ *)
(* Prover                                                              *)

let sorted_indices half =
  let m = Array.length half in
  let idx = Array.init m (fun i -> i + 1) in
  Array.sort (fun a b -> B.compare half.(a - 1) half.(b - 1)) idx;
  idx

let perm_witness inst =
  (* π with v_i = v'_π(i), if the halves are multiset-equal *)
  let xs = I.xs inst and ys = I.ys inst in
  let m = Array.length xs in
  let xi = sorted_indices xs and yi = sorted_indices ys in
  let pi = Array.make m 0 in
  let ok = ref true in
  for k = 0 to m - 1 do
    if not (B.equal xs.(xi.(k) - 1) ys.(yi.(k) - 1)) then ok := false;
    pi.(xi.(k) - 1) <- yi.(k)
  done;
  if !ok then Some pi else None

let table_of_perm inst pi =
  let m = I.m inst in
  Array.init (2 * m) (fun e0 ->
      if e0 < m then
        { efst = e0 + 1; esnd = pi.(e0); evalue = B.to_string (I.x inst (e0 + 1)) }
      else begin
        let j = e0 - m + 1 in
        (* second-half entry m+j carries (g(j), j, v'_j); for a
           permutation witness g = π⁻¹ *)
        let g = ref 0 in
        Array.iteri (fun i0 target -> if target = j then g := i0 + 1) pi;
        { efst = !g; esnd = j; evalue = B.to_string (I.y inst j) }
      end)

let funs_witness inst =
  let xs = I.xs inst and ys = I.ys inst in
  let m = Array.length xs in
  let find half v =
    let r = ref 0 in
    Array.iteri (fun i0 w -> if !r = 0 && B.equal w v then r := i0 + 1) half;
    if !r = 0 then None else Some !r
  in
  let f = Array.make m 0 and g = Array.make m 0 in
  let ok = ref true in
  for i0 = 0 to m - 1 do
    (match find ys xs.(i0) with Some j -> f.(i0) <- j | None -> ok := false);
    match find xs ys.(i0) with Some i -> g.(i0) <- i | None -> ok := false
  done;
  if !ok then Some (f, g) else None

let table_of_funs inst f g =
  let m = I.m inst in
  Array.init (2 * m) (fun e0 ->
      if e0 < m then
        { efst = e0 + 1; esnd = f.(e0); evalue = B.to_string (I.x inst (e0 + 1)) }
      else begin
        let j = e0 - m + 1 in
        { efst = g.(j - 1); esnd = j; evalue = B.to_string (I.y inst j) }
      end)

(* every copy shares the table's entries *)
let replicate_table kind m table =
  { kind; copies = Array.init (max 1 (2 * m)) (fun _ -> Array.copy table) }

let prove problem inst =
  let m = I.m inst in
  match problem with
  | D.Multiset_equality ->
      Option.map (fun pi -> replicate_table `Perm m (table_of_perm inst pi)) (perm_witness inst)
  | D.Check_sort ->
      if D.check_sort inst then
        Option.map
          (fun pi -> replicate_table `Perm m (table_of_perm inst pi))
          (perm_witness inst)
      else None
  | D.Set_equality ->
      Option.map (fun (f, g) -> replicate_table `Funs m (table_of_funs inst f g)) (funs_witness inst)

(* ------------------------------------------------------------------ *)
(* Corruption (for soundness tests)                                    *)

type corruption = Swap_pi | Wrong_value | Duplicate_target

let corrupt st corruption cert =
  let copies = Array.map Array.copy cert.copies in
  let ncopies = Array.length copies in
  let width = Array.length copies.(0) in
  let m = width / 2 in
  if m < 2 then invalid_arg "Nst.corrupt: need m >= 2";
  (match corruption with
  | Swap_pi ->
      (* desynchronize one copy: swap two first-half entries there *)
      let l = Random.State.int st ncopies in
      let a = Random.State.int st m in
      let b = (a + 1 + Random.State.int st (m - 1)) mod m in
      let tmp = copies.(l).(a) in
      copies.(l).(a) <- copies.(l).(b);
      copies.(l).(b) <- tmp
  | Wrong_value ->
      (* flip a claimed value consistently in every copy *)
      let a = Random.State.int st m in
      let flip e =
        let v = Bytes.of_string e.evalue in
        if Bytes.length v = 0 then { e with evalue = "0" }
        else begin
          let b = Random.State.int st (Bytes.length v) in
          Bytes.set v b (if Bytes.get v b = '0' then '1' else '0');
          { e with evalue = Bytes.to_string v }
        end
      in
      let corrupted = flip copies.(0).(a) in
      Array.iter (fun copy -> copy.(a) <- corrupted) copies
  | Duplicate_target ->
      (* π maps two sources to the same target, consistently *)
      let a = Random.State.int st m in
      let b = (a + 1 + Random.State.int st (m - 1)) mod m in
      Array.iter
        (fun copy -> copy.(a) <- { copy.(a) with esnd = copy.(b).esnd })
        copies);
  { cert with copies }

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)

type report = { scans : int; internal_registers : int; tapes : int }

let verify ?obs problem inst cert =
  let m = I.m inst in
  let g = Tape.Group.create () in
  (match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g);
  let meter = Tape.Group.meter g in
  (* The tapes hold value ids, not values: [id] numbers the distinct
     strings of the input and the certificate, so a cell is at most 13
     bytes whatever n, and the 2m copies of an entry cost 2m cells, not
     2m copies of its value. An entry whose value is that of the input
     it names ([x_efst] or [y_esnd], as every honest entry's is) takes
     that input's id unhashed. *)
  let ids = Ids.create (4 * m + 1) and strings = ref [] in
  let id s =
    match Ids.find_opt ids s with
    | Some i -> i
    | None ->
        let i = Ids.length ids in
        Ids.add ids s i;
        strings := s :: !strings;
        i
  in
  let ins = Array.map B.to_string (Array.append (I.xs inst) (I.ys inst)) in
  let in_ids = Array.map id ins in
  let named k s = k >= 0 && k < 2 * m && String.equal ins.(k) s in
  let vid e =
    if e.efst <= m && named (e.efst - 1) e.evalue then in_ids.(e.efst - 1)
    else if e.esnd <= m && named (m + e.esnd - 1) e.evalue then in_ids.(m + e.esnd - 1)
    else id e.evalue
  in
  let flat = Array.concat (Array.to_list cert.copies) in
  let vids = Array.map vid flat in
  let value = Array.of_list (List.rev !strings) in
  let n_in = 2 * m and n_guess = Array.length flat in
  (* t2 holds the cells of t1's copy region: encoded once, on t1 *)
  let t1 = Tape.Group.tape g ~name:"input+copies" ~codec ~blank:Blank () in
  Tape.preload_init t1 (n_in + n_guess) (fun j ->
      if j < n_in then Val in_ids.(j)
      else
        let e = flat.(j - n_in) in
        Ent { efst = e.efst; esnd = e.esnd; vid = vids.(j - n_in) });
  let t2 = Tape.Group.tape g ~name:"guess" ~codec ~blank:Blank () in
  Tape.preload_blit t1 n_in t2 n_guess;
  let perm_kind = cert.kind = `Perm in
  let ok = ref (Array.length cert.copies = max 1 (2 * m)) in
  Array.iter (fun copy -> if Array.length copy <> 2 * m then ok := false) cert.copies;
  if m > 0 && !ok then
    Tape.Meter.with_units meter 8 (fun () ->
        let read_val tp =
          match Tape.read tp with
          | Val v -> v
          | Ent _ | Blank -> ok := false; -1
        in
        (* ---- forward scan: local checks, copy l against input l ---- *)
        let prev = ref (-1) in
        for l = 1 to 2 * m do
          let v = read_val t1 in
          if
            problem = D.Check_sort && l > m + 1 && !prev >= 0 && v >= 0
            && String.compare value.(!prev) value.(v) > 0
          then ok := false;
          if l > m then prev := v;
          let count = ref 0 in
          for e = 1 to 2 * m do
            (match Tape.read t2 with
            | Ent { efst; esnd; vid } ->
                if e <= m then begin
                  if efst <> e then ok := false;
                  if l <= m && e = l && vid <> v then ok := false;
                  if l > m && esnd = l - m then begin
                    incr count;
                    if vid <> v then ok := false
                  end
                end
                else begin
                  if esnd <> e - m then ok := false;
                  if l <= m && efst = l && vid <> v then ok := false;
                  if l > m && e = m + (l - m) && vid <> v then ok := false
                end
            | Val _ | Blank -> ok := false);
            Tape.move t2 Tape.Right
          done;
          if l > m && perm_kind && !count <> 1 then ok := false;
          Tape.move t1 Tape.Right
        done;
        (* ---- skip t1 forward over its copy region ---- *)
        let copies_cells = 2 * m * 2 * m in
        Tape.seek t1 ((2 * m) + copies_cells - 1);
        (* ---- backward scan: copy l on t1 vs copy l-1 on t2 ----
           compared as stored bytes: the forward scan read every guess
           cell as an [Ent] (else it failed), so a t1 cell that is not
           one differs in its tag byte, and equal bytes are equal. *)
        Tape.seek t2 (copies_cells - (2 * m) - 1);
        let ra = Tape.register t1 and rb = Tape.register t2 in
        for _ = 1 to copies_cells - (2 * m) do
          Tape.load t1 ra;
          Tape.load t2 rb;
          if Tape.compare_registers ra rb <> 0 then ok := false;
          if not (Tape.at_left_end t1) then Tape.move t1 Tape.Left;
          if not (Tape.at_left_end t2) then Tape.move t2 Tape.Left
        done);
  let grp = Tape.Group.report g in
  ( !ok,
    {
      scans = grp.Tape.Group.scans_used;
      internal_registers = grp.Tape.Group.internal_peak_units;
      tapes = List.length grp.Tape.Group.tapes;
    } )

let decide_with_prover ?obs problem inst =
  match prove problem inst with
  | None -> (false, None)
  | Some cert ->
      let ok, rep = verify ?obs problem inst cert in
      (ok, Some rep)
