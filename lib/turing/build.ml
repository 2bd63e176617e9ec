type pending = {
  p_from : int;
  p_reads : string;
  p_to : int;
  p_writes : string;
  p_moves : Machine.move array;
}

type b = {
  name : string;
  ext : int;
  int_ : int;
  blank : char;
  alphabet : char list;  (* includes blank *)
  mutable names : string list;  (* reversed *)
  mutable finals : bool list;  (* reversed *)
  mutable acceptings : bool list;  (* reversed *)
  mutable count : int;
  mutable pendings : pending list;  (* reversed *)
}

let make ~name ~ext ~int_ ?(blank = '_') ~alphabet () =
  let chars = List.init (String.length alphabet) (String.get alphabet) in
  let chars = if List.mem blank chars then chars else blank :: chars in
  {
    name;
    ext;
    int_;
    blank;
    alphabet = chars;
    names = [];
    finals = [];
    acceptings = [];
    count = 0;
    pendings = [];
  }

let state b ?(final = false) ?(accepting = false) name =
  if accepting && not final then invalid_arg "Build.state: accepting requires final";
  if List.mem name b.names then invalid_arg "Build.state: duplicate state name";
  let q = b.count in
  b.names <- name :: b.names;
  b.finals <- final :: b.finals;
  b.acceptings <- accepting :: b.acceptings;
  b.count <- q + 1;
  q

let on' b ~from ~reads ~to_ ~writes ~moves =
  let moves = Array.of_list moves in
  let tapes = b.ext + b.int_ in
  if String.length reads <> tapes || String.length writes <> tapes then
    invalid_arg "Build.on': reads/writes arity";
  if Array.length moves <> tapes then invalid_arg "Build.on': moves arity";
  (* expand '?' in reads over the alphabet *)
  let rec expand i acc =
    if i = String.length reads then List.map List.rev acc
    else begin
      let choices = if reads.[i] = '?' then b.alphabet else [ reads.[i] ] in
      expand (i + 1)
        (List.concat_map (fun prefix -> List.map (fun ch -> ch :: prefix) choices) acc)
    end
  in
  List.iter
    (fun rds ->
      let concrete_reads = String.init tapes (List.nth rds) in
      let concrete_writes =
        String.init tapes (fun i ->
            if writes.[i] = '?' then concrete_reads.[i] else writes.[i])
      in
      b.pendings <-
        {
          p_from = from;
          p_reads = concrete_reads;
          p_to = to_;
          p_writes = concrete_writes;
          p_moves = moves;
        }
        :: b.pendings)
    (expand 0 [ [] ])

let build b =
  if b.count = 0 then invalid_arg "Build.build: no states";
  let transitions =
    List.rev_map
      (fun p ->
        ( p.p_from,
          p.p_reads,
          { Machine.next_state = p.p_to; writes = p.p_writes; moves = p.p_moves } ))
      b.pendings
  in
  Machine.create ~name:b.name
    ~state_names:(Array.of_list (List.rev b.names))
    ~start:0
    ~final:(Array.of_list (List.rev b.finals))
    ~accepting:(Array.of_list (List.rev b.acceptings))
    ~blank:b.blank ~ext:b.ext ~int_:b.int_ transitions
