module B = Util.Bitstring

type t = { xs : B.t array; ys : B.t array }

let make xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Instance.make: halves differ in length";
  { xs = Array.copy xs; ys = Array.copy ys }

let xs t = Array.copy t.xs
let ys t = Array.copy t.ys

let x t i =
  if i < 1 || i > Array.length t.xs then invalid_arg "Instance.x";
  t.xs.(i - 1)

let y t i =
  if i < 1 || i > Array.length t.ys then invalid_arg "Instance.y";
  t.ys.(i - 1)

let m t = Array.length t.xs

let size t =
  let half = Array.fold_left (fun acc v -> acc + B.length v + 1) 0 in
  half t.xs + half t.ys

let uniform_length t =
  if Array.length t.xs = 0 then Some 0
  else begin
    let n = B.length t.xs.(0) in
    let same = Array.for_all (fun v -> B.length v = n) in
    if same t.xs && same t.ys then Some n else None
  end

let encode t =
  let buf = Buffer.create (size t) in
  let emit v =
    Buffer.add_string buf (B.to_string v);
    Buffer.add_char buf '#'
  in
  Array.iter emit t.xs;
  Array.iter emit t.ys;
  Buffer.contents buf

let decode w =
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' && c <> '#' then
        invalid_arg (Printf.sprintf "Instance.decode: bad char %C" c))
    w;
  if String.length w > 0 && w.[String.length w - 1] <> '#' then
    invalid_arg "Instance.decode: missing trailing #";
  let parts =
    if w = "" then []
    else String.split_on_char '#' (String.sub w 0 (String.length w - 1))
  in
  let strings = List.map B.of_string parts in
  let total = List.length strings in
  if total mod 2 <> 0 then invalid_arg "Instance.decode: odd number of strings";
  let half = total / 2 in
  let arr = Array.of_list strings in
  { xs = Array.sub arr 0 half; ys = Array.sub arr half half }

let equal a b =
  Array.length a.xs = Array.length b.xs
  && Array.for_all2 B.equal a.xs b.xs
  && Array.for_all2 B.equal a.ys b.ys
