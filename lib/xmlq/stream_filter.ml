type report = { n : int; scans : int; registers : int; tapes : int }

(* One forward scan of the serialized document: the set1/set2 string
   contents are spilled onto two tapes. Internal state: a bounded tag
   buffer, one value register, flags and counters. *)
let extract input tx ty =
  let nx = ref 0 and ny = ref 0 in
  let tag = Buffer.create 16 in
  let value = Buffer.create 64 in
  let in_tag = ref false in
  let in_string = ref false in
  let current_set = ref 0 in
  Tape.iter_right input (fun c ->
      match c with
      | '<' ->
          if !in_tag then invalid_arg "Stream_filter: nested '<'";
          in_tag := true;
          Buffer.clear tag
      | '>' ->
          if not !in_tag then invalid_arg "Stream_filter: stray '>'";
          in_tag := false;
          (match Buffer.contents tag with
          | "set1" -> current_set := 1
          | "set2" -> current_set := 2
          | "string" ->
              in_string := true;
              Buffer.clear value
          | "/string" ->
              in_string := false;
              let v = Buffer.contents value in
              if !current_set = 1 then begin
                Tape.seek tx !nx;
                Tape.write tx v;
                incr nx
              end
              else if !current_set = 2 then begin
                Tape.seek ty !ny;
                Tape.write ty v;
                incr ny
              end
              else invalid_arg "Stream_filter: string outside sets"
          | _ -> ())
      | c ->
          if !in_tag then Buffer.add_char tag c
          else if !in_string then Buffer.add_char value c);
  if !in_tag then invalid_arg "Stream_filter: unterminated tag";
  (!nx, !ny)

let with_extracted ?observe stream f =
  let g = Tape.Group.create () in
  (match observe with None -> () | Some f -> f g);
  let meter = Tape.Group.meter g in
  let input =
    Tape.Group.tape_of_list g ~name:"stream" ~blank:' '
      (List.init (String.length stream) (String.get stream))
  in
  let tx = Tape.Group.tape g ~name:"set1-strings" ~blank:"" () in
  let ty = Tape.Group.tape g ~name:"set2-strings" ~blank:"" () in
  let verdict =
    Tape.Meter.with_units meter 8 (fun () ->
        let nx, ny = extract input tx ty in
        if nx > 1 then Extsort.sort_tape g tx ~len:nx;
        if ny > 1 then Extsort.sort_tape g ty ~len:ny;
        f tx nx ty ny)
  in
  let rep = Tape.Group.report g in
  ( verdict,
    {
      n = String.length stream;
      scans = rep.Tape.Group.scans_used;
      registers = rep.Tape.Group.internal_peak_units;
      tapes = List.length rep.Tape.Group.tapes;
    } )

let figure1_filter ?observe stream =
  (* does some set1 string miss from set2? (one selected node exists) *)
  with_extracted ?observe stream (fun tx nx ty ny ->
      let missing = ref false in
      let j = ref 0 in
      for i = 0 to nx - 1 do
        let v = Tape.read_at tx i in
        while !j < ny && String.compare (Tape.read_at ty !j) v < 0 do
          incr j
        done;
        if !j >= ny || not (String.equal (Tape.read_at ty !j) v) then missing := true
      done;
      !missing)

let theorem12_query ?observe stream =
  (* set equality of the two sides: compare deduplicated sorted streams *)
  with_extracted ?observe stream (fun tx nx ty ny ->
      Extsort.same_set tx ~nx ty ~ny)
