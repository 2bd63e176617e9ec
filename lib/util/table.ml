type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let pad i cell =
    let w = widths.(i) in
    let slack = w - String.length cell in
    cell ^ String.make slack ' '
  in
  let render_row row =
    Buffer.add_string buf "  ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  render_row t.columns;
  Buffer.add_string buf "  ";
  Array.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    widths;
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let fmt_float ?(digits = 3) x = Printf.sprintf "%.*f" digits x

let fmt_ratio a b =
  if b = 0 then "0/0 (-)"
  else Printf.sprintf "%d/%d (%.1f%%)" a b (100.0 *. float_of_int a /. float_of_int b)
