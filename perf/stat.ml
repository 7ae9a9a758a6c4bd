(* Order statistics for the benchmark's read-outs. *)

let sorted l = List.sort Float.compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (its default "exclusive" method), so the spreads this
   benchmark prints are the ones an outside check computes. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* The tail sample: the highest percentile, at most P99.9, that leaves
   at least ten samples above it (nearest rank). Returns the value and
   the percentile it stands for. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else
    let at_999 = int_of_float (Float.ceil (0.999 *. float_of_int n)) - 1 in
    let i = max ((n - 1) / 2) (min at_999 (n - 11)) in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)
