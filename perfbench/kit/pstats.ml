(* Sample statistics. A percentile is reported only when the sample puts
   at least [min_beyond] observations strictly above its rank, so a tail
   figure always rests on more than a handful of points. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest value with at least p% of the sample at or
   below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Error "no samples"
  else if p <= 0. || p > 100. then Error (Printf.sprintf "percentile %g out of range" p)
  else begin
    let k = rank ~n p in
    let beyond = n - k in
    if p < 100. && beyond < min_beyond then
      Error
        (Printf.sprintf "p%g needs %d samples beyond it, have %d of %d" p
           min_beyond beyond n)
    else Ok (sorted xs).(k - 1)
  end

(* The plain median (mean of the middle pair), for figures that are not
   tail claims: medians over repeated timings. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  end
