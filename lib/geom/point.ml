type t = { x : int; y : int }

let make x y = { x; y }
let origin = { x = 0; y = 0 }
let add a b = { x = a.x + b.x; y = a.y + b.y }
let sub a b = { x = a.x - b.x; y = a.y - b.y }
let neg p = sub origin p
let equal a b = a.x = b.x && a.y = b.y


let colinear_axis a b =
  if a.y = b.y then Some `H
  else if a.x = b.x then Some `V
  else None

