module B = Util.Bitstring

type t = { m : int; n : int; log2m : int }

let ceil_log2 m =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) ((x + 1) / 2) in
  go 0 m

let make ~m ~n =
  if m < 1 || m land (m - 1) <> 0 then
    invalid_arg "Intervals.make: m must be a positive power of two";
  let log2m = ceil_log2 m in
  if n < log2m then invalid_arg "Intervals.make: n < log2 m";
  { m; n; log2m }

let n p = p.n
let log2m p = p.log2m

let index_of p v =
  if B.length v <> p.n then invalid_arg "Intervals.index_of: wrong length";
  if p.log2m = 0 then 1
  else B.to_int (B.sub v ~pos:0 ~len:p.log2m) + 1

let mem p j v = index_of p v = j

let check_j p j =
  if j < 1 || j > p.m then invalid_arg "Intervals: interval index out of range"

let random_element st p j =
  check_j p j;
  let top = B.of_int ~width:p.log2m (j - 1) in
  let rest = B.random st ~width:(p.n - p.log2m) in
  B.concat [ top; rest ]

let min_element p j =
  check_j p j;
  let top = B.of_int ~width:p.log2m (j - 1) in
  B.concat [ top; B.zero ~width:(p.n - p.log2m) ]
