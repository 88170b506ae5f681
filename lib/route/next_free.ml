(* next.(s) = s while s is free; a taken slot points further right *)
type t = int array

let create size = Array.init (size + 1) Fun.id

let find next s =
  let root = ref s in
  while next.(!root) <> !root do
    root := next.(!root)
  done;
  let s = ref s in
  while !s <> !root do
    let up = next.(!s) in
    next.(!s) <- !root;
    s := up
  done;
  !root

let take next s =
  if s >= Array.length next - 1 then invalid_arg "Next_free.take: sentinel";
  next.(s) <- s + 1
