type t = Element of string * t list | Text of string

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
       name

let element name children =
  if not (valid_name name) then invalid_arg "Doc.element: invalid name";
  Element (name, children)

let text s = Text s

let serialize doc =
  let buf = Buffer.create 256 in
  let rec go = function
    | Text s -> Buffer.add_string buf s
    | Element (name, children) ->
        Buffer.add_char buf '<';
        Buffer.add_string buf name;
        Buffer.add_char buf '>';
        List.iter go children;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
  in
  go doc;
  Buffer.contents buf

let stream_length doc = String.length (serialize doc)

let parse input =
  if String.length input = 0 then invalid_arg "Doc.parse: empty input";
  let pos = ref 0 in
  let len = String.length input in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let fail msg = invalid_arg (Printf.sprintf "Doc.parse: %s at %d" msg !pos) in
  let read_name () =
    let start = !pos in
    while
      !pos < len
      && match input.[!pos] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected tag name";
    String.sub input start (!pos - start)
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let rec parse_node () =
    expect '<';
    let name = read_name () in
    if not (valid_name name) then fail "invalid tag name";
    expect '>';
    let children = parse_children () in
    expect '<';
    expect '/';
    let close = read_name () in
    if not (String.equal close name) then fail "mismatched closing tag";
    expect '>';
    Element (name, children)
  and parse_children () =
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '<' ->
        if !pos + 1 < len && input.[!pos + 1] = '/' then []
        else begin
          let node = parse_node () in
          node :: parse_children ()
        end
    | Some '>' -> fail "stray '>'"
    | Some _ ->
        let start = !pos in
        while !pos < len && input.[!pos] <> '<' && input.[!pos] <> '>' do
          incr pos
        done;
        let node = Text (String.sub input start (!pos - start)) in
        node :: parse_children ()
  in
  let root =
    match peek () with Some '<' -> parse_node () | Some _ | None -> fail "expected '<'"
  in
  if !pos <> len then fail "trailing content";
  root

let of_instance inst =
  let half name strings =
    element name
      (List.map
         (fun v ->
           element "item"
             [ element "string" [ text (Util.Bitstring.to_string v) ] ])
         (Array.to_list strings))
  in
  element "instance"
    [
      half "set1" (Problems.Instance.xs inst);
      half "set2" (Problems.Instance.ys inst);
    ]

let to_instance doc =
  let strings_of = function
    | Element (_, items) ->
        List.map
          (function
            | Element ("item", [ Element ("string", content) ]) ->
                Util.Bitstring.of_string
                  (String.concat ""
                     (List.map
                        (function Text s -> s | Element _ -> invalid_arg "Doc.to_instance")
                        content))
            | Element _ | Text _ -> invalid_arg "Doc.to_instance: bad item")
          items
    | Text _ -> invalid_arg "Doc.to_instance: bad set"
  in
  match doc with
  | Element ("instance", [ (Element ("set1", _) as s1); (Element ("set2", _) as s2) ]) ->
      Problems.Instance.make
        (Array.of_list (strings_of s1))
        (Array.of_list (strings_of s2))
  | Element _ | Text _ -> invalid_arg "Doc.to_instance: not an instance document"

let rec string_value = function
  | Text s -> s
  | Element (_, children) -> String.concat "" (List.map string_value children)

