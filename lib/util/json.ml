let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type value = Bool of bool | Int of int | String of string | Raw of string

let obj fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (escape k);
      Buffer.add_string b "\":";
      match v with
      | Bool bo -> Buffer.add_string b (if bo then "true" else "false")
      | Int n -> Buffer.add_string b (string_of_int n)
      | String s ->
          Buffer.add_char b '"';
          Buffer.add_string b (escape s);
          Buffer.add_char b '"'
      | Raw s -> Buffer.add_string b s)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b
