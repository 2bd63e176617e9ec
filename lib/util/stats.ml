let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let fn = float_of_int n in
  let sx = Array.fold_left (fun acc (x, _) -> acc +. x) 0.0 pts in
  let sy = Array.fold_left (fun acc (_, y) -> acc +. y) 0.0 pts in
  let sxx = Array.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 pts in
  let sxy = Array.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 pts in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
  let a = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let b = (sy -. (a *. sx)) /. fn in
  let ybar = sy /. fn in
  let ss_tot = Array.fold_left (fun acc (_, y) -> acc +. ((y -. ybar) ** 2.0)) 0.0 pts in
  let ss_res =
    Array.fold_left (fun acc (x, y) -> acc +. ((y -. ((a *. x) +. b)) ** 2.0)) 0.0 pts
  in
  let r2 = if ss_tot < 1e-12 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  (a, b, r2)

let log2_fit pts =
  linear_fit
    (Array.map
       (fun (x, y) -> (log (float_of_int x) /. log 2.0, float_of_int y))
       pts)

let binomial_ci95 ~successes ~trials =
  if trials <= 0 then invalid_arg "Stats.binomial_ci95: trials";
  let p = float_of_int successes /. float_of_int trials in
  let half = 1.96 *. sqrt (p *. (1.0 -. p) /. float_of_int trials) in
  (Float.max 0.0 (p -. half), Float.min 1.0 (p +. half))
