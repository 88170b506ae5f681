(* next.(s) = s while s is free; a taken slot points further right *)
type t = int array

let create size =
  let next = Array.make (size + 1) 0 in
  for s = 1 to size do
    next.(s) <- s
  done;
  next

(* path halving: each slot on the walk is pointed two steps on *)
let find next s =
  let s = ref s in
  while next.(!s) <> !s do
    let up = next.(!s) in
    next.(!s) <- next.(up);
    s := next.(up)
  done;
  !s

let take next s =
  if s >= Array.length next - 1 then invalid_arg "Next_free.take: sentinel";
  next.(s) <- s + 1
