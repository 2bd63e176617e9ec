type t = string

let validate s =
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then
        invalid_arg (Printf.sprintf "Bitstring.of_string: bad char %C" c))
    s

let of_string s =
  validate s;
  s

let to_string v = v
let length = String.length

let get v i =
  if i < 0 || i >= String.length v then invalid_arg "Bitstring.get";
  v.[i] = '1'

let equal = String.equal
let compare = String.compare

let of_int ~width x =
  if width < 0 || width > 62 then invalid_arg "Bitstring.of_int: width";
  if x < 0 || (width < 62 && x lsr width <> 0) then
    invalid_arg "Bitstring.of_int: value out of range";
  String.init width (fun i ->
      if (x lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let to_int v =
  if String.length v > 62 then invalid_arg "Bitstring.to_int: too long";
  String.fold_left (fun acc c -> (acc lsl 1) lor Bool.to_int (c = '1')) 0 v

let zero ~width =
  if width < 0 then invalid_arg "Bitstring.zero";
  String.make width '0'

let concat vs = String.concat "" vs
let sub v ~pos ~len = String.sub v pos len

let random st ~width =
  if width < 0 then invalid_arg "Bitstring.random";
  String.init width (fun _ -> if Random.State.bool st then '1' else '0')

let random_in_range st ~width ~lo ~hi =
  if width < 0 || width > 62 then invalid_arg "Bitstring.random_in_range: width";
  if lo < 0 || hi <= lo || (width < 62 && hi > 1 lsl width) then
    invalid_arg "Bitstring.random_in_range: empty or out-of-bounds range";
  of_int ~width (lo + Random.State.int st (hi - lo))

let fold_bits f v init =
  let acc = ref init in
  String.iteri (fun i c -> acc := f i (c = '1') !acc) v;
  !acc
