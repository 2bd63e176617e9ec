type report = { n : int; scans : int; registers : int; tapes : int }

(* One forward scan of a serialized document, its chars fed by [iter]:
   [emit set v] gets each set1 ([set = 1]) and set2 string's contents
   in stream order. Internal state: a bounded tag buffer, one value
   register and flags. *)
let scan iter emit =
  let tag = Buffer.create 16 in
  let value = Buffer.create 64 in
  let in_tag = ref false in
  let in_string = ref false in
  let current_set = ref 0 in
  iter (fun c ->
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
              if !current_set = 0 then invalid_arg "Stream_filter: string outside sets";
              emit !current_set (Buffer.contents value)
          | _ -> ())
      | c ->
          if !in_tag then Buffer.add_char tag c
          else if !in_string then Buffer.add_char value c);
  if !in_tag then invalid_arg "Stream_filter: unterminated tag"

let with_extracted ?obs stream f =
  let g = Tape.Group.create () in
  (match obs with None -> () | Some r -> Obs.Ledger.Recorder.observe r g);
  let meter = Tape.Group.meter g in
  let input =
    Tape.Group.tape_of_list g ~name:"stream" ~codec:Tape.Device.Codec.tuple_char
      ~blank:' '
      (List.init (String.length stream) (String.get stream))
  in
  (* one codec for both string tapes, sized host-side to the strings *)
  let strings = ref [] in
  scan (fun f -> String.iter f stream) (fun _ v -> strings := v :: !strings);
  let codec = Extsort.codec_for !strings in
  let tx = Tape.Group.tape g ~name:"set1-strings" ~codec ~blank:"" () in
  let ty = Tape.Group.tape g ~name:"set2-strings" ~codec ~blank:"" () in
  let verdict =
    Tape.Meter.with_units meter 8 (fun () ->
        (* the scan of the input tape spills each string onto its set's *)
        let count = [| 0; 0; 0 |] in
        scan (Tape.iter_right input) (fun set v ->
            Tape.write_at (if set = 1 then tx else ty) count.(set) v;
            count.(set) <- count.(set) + 1);
        let nx = count.(1) and ny = count.(2) in
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

let figure1_filter ?obs stream =
  (* does some set1 string miss from set2? (one selected node exists) *)
  with_extracted ?obs stream (fun tx nx ty ny ->
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

let theorem12_query ?obs stream =
  (* set equality of the two sides: compare deduplicated sorted streams *)
  with_extracted ?obs stream (fun tx nx ty ny ->
      Extsort.same_set tx ~nx ty ~ny)
