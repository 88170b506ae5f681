type t = int array

let create n = Array.init n Fun.id

(* path halving: every visited node skips to its grandparent *)
let rec find t i =
  let p = t.(i) in
  if p = i then i
  else begin
    let g = t.(p) in
    t.(i) <- g;
    if g = p then p else find t g
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri <> rj then t.(ri) <- rj

let labels t =
  Array.iteri (fun i _ -> t.(i) <- find t i) t;
  t
