type t = int array
(* invariant: t.(i) ∈ {1..m} for all i, all distinct; t.(i-1) = ϕ(i). *)

let of_array a =
  let m = Array.length a in
  let seen = Array.make (m + 1) false in
  Array.iter
    (fun x ->
      if x < 1 || x > m then invalid_arg "Permutation.of_array: value out of range";
      if seen.(x) then invalid_arg "Permutation.of_array: duplicate value";
      seen.(x) <- true)
    a;
  Array.copy a

let to_array p = Array.copy p
let size = Array.length

let apply p i =
  if i < 1 || i > Array.length p then invalid_arg "Permutation.apply";
  p.(i - 1)

let identity m = Array.init m (fun i -> i + 1)

let inverse p =
  let m = Array.length p in
  let q = Array.make m 0 in
  Array.iteri (fun i x -> q.(x - 1) <- i + 1) p;
  q

let compose f g = Array.map (fun x -> f.(x - 1)) g
let equal a b = a = b

let random st m =
  let a = identity m in
  for i = m - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let is_power_of_two m = m > 0 && m land (m - 1) = 0

let reverse_binary m =
  if not (is_power_of_two m) then
    invalid_arg "Permutation.reverse_binary: m must be a positive power of two";
  let bits =
    let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
    go 0 m
  in
  let rev_bits x =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if (x lsr b) land 1 = 1 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  (* Sort 0-based indices by reversed binary representation; the sorted
     listing, shifted to 1-based, is (ϕ(1),..,ϕ(m)). Reversal is an
     involution, so the listing at position j is rev_bits(j) itself. *)
  Array.init m (fun j -> rev_bits j + 1)

(* Longest strictly increasing subsequence by patience sorting: tails.(k)
   holds the smallest possible tail of an increasing subsequence of
   length k+1. *)
let longest_increasing a =
  let n = Array.length a in
  let tails = Array.make n 0 in
  let len = ref 0 in
  Array.iter
    (fun x ->
      (* binary search for the first tail >= x *)
      let lo = ref 0 and hi = ref !len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if tails.(mid) < x then lo := mid + 1 else hi := mid
      done;
      tails.(!lo) <- x;
      if !lo = !len then incr len)
    a;
  !len

let longest_decreasing a =
  longest_increasing (Array.map (fun x -> -x) a)

let sortedness p = max (longest_increasing p) (longest_decreasing p)
