let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted xs in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* statistics.quantiles(method='exclusive'): with m = n + 1, cut point
   i sits at position i*m/4 (1-based, clamped to [1, n-1]) of the sorted
   data, interpolated — or, for tiny samples, extrapolated — in
   quarters. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let a = sorted xs in
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)
