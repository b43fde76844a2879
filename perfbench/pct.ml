(* Order statistics for benchmark samples. Percentiles use the nearest
   rank on the sorted samples, so a reported percentile is always one
   measured value, never an interpolation. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

(* [nearest_rank xs p], p in [0, 100]; nan on no samples. *)
let nearest_rank xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan else (sorted xs).(rank n p - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles a tail may be reported at, highest first. *)
let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest candidate percentile that still has at least [beyond]
   samples above its rank: a tail figure resting on fewer samples than
   that is one or two outliers, not a tail. [None] when even the median
   lacks them. *)
let tail_percentile ?(beyond = 10) n =
  List.find_opt (fun p -> n - rank n p >= beyond) tail_candidates

let geomean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)
