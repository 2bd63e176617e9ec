module I = Problems.Instance
module B = Util.Bitstring
module D = Problems.Decide

type entry = { efst : int; esnd : int; evalue : string }

type certificate = {
  kind : [ `Perm | `Funs ];
  copies : entry array array;  (* 2m copies, each of 2m entries *)
}

type cell = Blank | Val of string | Ent of entry

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

let replicate_table m table =
  { kind = `Perm; copies = Array.init (max 1 (2 * m)) (fun _ -> Array.copy table) }

let prove problem inst =
  let m = I.m inst in
  match problem with
  | D.Multiset_equality ->
      Option.map (fun pi -> replicate_table m (table_of_perm inst pi)) (perm_witness inst)
  | D.Check_sort ->
      if D.check_sort inst then
        Option.map
          (fun pi -> replicate_table m (table_of_perm inst pi))
          (perm_witness inst)
      else None
  | D.Set_equality ->
      Option.map
        (fun (f, g) ->
          { kind = `Funs; copies = Array.init (max 1 (2 * m)) (fun _ -> table_of_funs inst f g) })
        (funs_witness inst)

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
  let flat = Array.to_list (Array.concat (Array.to_list cert.copies)) in
  let inputs =
    List.map (fun v -> Val (B.to_string v))
      (Array.to_list (I.xs inst) @ Array.to_list (I.ys inst))
  in
  let t1 =
    Tape.Group.tape_of_list g ~name:"input+copies" ~blank:Blank
      (inputs @ List.map (fun e -> Ent e) flat)
  in
  let t2 =
    Tape.Group.tape_of_list g ~name:"guess" ~blank:Blank
      (List.map (fun e -> Ent e) flat)
  in
  let perm_kind = cert.kind = `Perm in
  let ok = ref (Array.length cert.copies = max 1 (2 * m)) in
  Array.iter (fun copy -> if Array.length copy <> 2 * m then ok := false) cert.copies;
  if m > 0 && !ok then
    Tape.Meter.with_units meter 8 (fun () ->
        let read_val tp =
          match Tape.read tp with
          | Val v -> v
          | Ent _ | Blank -> ok := false; ""
        in
        let read_ent tp =
          match Tape.read tp with
          | Ent e -> e
          | Val _ | Blank ->
              ok := false;
              { efst = 0; esnd = 0; evalue = "" }
        in
        (* ---- forward scan: local checks, copy l against input l ---- *)
        let prev = ref "" in
        for l = 1 to 2 * m do
          let v = read_val t1 in
          if problem = D.Check_sort && l > m + 1 && String.compare !prev v > 0
          then ok := false;
          if l > m then prev := v;
          let count = ref 0 in
          for e = 1 to 2 * m do
            let ent = read_ent t2 in
            if e <= m then begin
              if ent.efst <> e then ok := false;
              if l <= m && e = l && not (String.equal ent.evalue v) then
                ok := false;
              if l > m && ent.esnd = l - m then begin
                incr count;
                if not (String.equal ent.evalue v) then ok := false
              end
            end
            else begin
              if ent.esnd <> e - m then ok := false;
              if l <= m && ent.efst = l && not (String.equal ent.evalue v) then
                ok := false;
              if l > m && e = m + (l - m) && not (String.equal ent.evalue v) then
                ok := false
            end;
            Tape.move t2 Tape.Right
          done;
          if l > m && perm_kind && !count <> 1 then ok := false;
          Tape.move t1 Tape.Right
        done;
        (* ---- skip t1 forward over its copy region ---- *)
        let copies_cells = 2 * m * 2 * m in
        Tape.seek t1 ((2 * m) + copies_cells - 1);
        (* ---- backward scan: copy l on t1 vs copy l-1 on t2 ---- *)
        Tape.seek t2 (copies_cells - (2 * m) - 1);
        for _ = 1 to copies_cells - (2 * m) do
          let a = read_ent t1 and b = read_ent t2 in
          if a <> b then ok := false;
          if not (Tape.at_left_end t1) then Tape.move t1 Tape.Left;
          if not (Tape.at_left_end t2) then Tape.move t2 Tape.Left
        done);
  let grp = Tape.Group.report g in
  ( !ok,
    {
      scans = grp.Tape.Group.scans_used;
      internal_registers = grp.Tape.Group.internal_peak_units;
      tapes = List.length grp.Tape.Group.reversals_by_tape;
    } )

let decide_with_prover ?obs problem inst =
  match prove problem inst with
  | None -> (false, None)
  | Some cert ->
      let ok, rep = verify ?obs problem inst cert in
      (ok, Some rep)
