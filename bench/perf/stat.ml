(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [q] in 0..100 *)
let percentile xs q =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median xs = percentile xs 50.

(* The highest percentile of this ladder with at least ten samples
   beyond it; the median when there are too few samples for any.  The
   ladder stops at p99: beyond it, a 15-second run on a shared host
   measures scheduler and collector hiccups, not the compiler. *)
let tail_percentile n =
  List.find_opt
    (fun q -> float_of_int n *. (1. -. (q /. 100.)) >= 10.)
    [ 99.; 98.; 95.; 90.; 75. ]
  |> Option.value ~default:50.

let percentile_label q =
  if Float.is_integer q then Printf.sprintf "p%.0f" q else Printf.sprintf "p%g" q

(* First and third quartile as Python's statistics.quantiles(xs, n=4)
   computes them (the default "exclusive" method), so spreads printed
   here match the ones an outside checker derives from the same runs. *)
let quartiles xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* least-squares slope of log y against log x: the scaling exponent *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  if n < 2. then nan
  else
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))
