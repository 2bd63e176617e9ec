let log2 x = log x /. log 2.0

type lemma21 = { min_m : float; min_k : int; min_n : float }

let lemma21_thresholds ~t ~r ~m ~k =
  if t < 2 then invalid_arg "Params.lemma21_thresholds: t >= 2";
  let min_m = (24.0 *. (float_of_int (t + 1) ** float_of_int (4 * r))) +. 1.0 in
  let min_k = (2 * m) + 3 in
  let min_n =
    1.0 +. ((float_of_int ((m * m) + 1)) *. log2 (2.0 *. float_of_int k))
  in
  { min_m; min_k; min_n }

let lemma21_ok ~t ~r ~m ~k ~n =
  t >= 2
  &&
  let th = lemma21_thresholds ~t ~r ~m ~k in
  float_of_int m >= th.min_m && k >= th.min_k && float_of_int n >= th.min_n

let input_size ~m =
  (* saturate on overflow (m^4 exceeds 62 bits around m = 2^15):
     input_size is only compared against thresholds, monotonically *)
  let cube = m * m * m in
  if m > 0 && cube / m / m <> m then max_int / 2
  else begin
    let v = 2 * m * (cube + 1) in
    if v < 0 then max_int / 2 else v
  end

let eq3_holds ~t ~r ~m =
  let n_sz = input_size ~m in
  float_of_int m >= (24.0 *. (float_of_int (t + 1) ** float_of_int (4 * r n_sz))) +. 1.0

let eq4_holds ~t ~d ~r ~s ~m =
  let n_sz = input_size ~m in
  let rhs =
    1.0
    +. (float_of_int (d * t * t) *. float_of_int (r n_sz) *. float_of_int (s n_sz))
    +. (3.0 *. float_of_int t *. log2 (float_of_int n_sz))
  in
  float_of_int (m * m * m) >= rhs

let find_min_m ~t ~d ~r ~s ~cap =
  let rec go m =
    if m > cap then None
    else if eq3_holds ~t ~r ~m && eq4_holds ~t ~d ~r ~s ~m then Some m
    else go (2 * m)
  in
  go 2

let r_const c = fun _ -> c

let r_log ?(scale = 1.0) () =
 fun n -> max 1 (int_of_float (ceil (scale *. log2 (float_of_int (max 2 n)))))

let s_fourth_root ?(scale = 1.0) () =
 fun n ->
  let fn = float_of_int (max 2 n) in
  max 1 (int_of_float (ceil (scale *. (fn ** 0.25) /. log2 fn)))
