(* The constructive placer as it was before its barycentre loop summed
   positions per net: per-item neighbour lists, one entry per (net,
   other member) pair, summed with [List.fold_left].  Kept as the
   differential oracle for [Sc_place.Placer.ordered] and
   [Sc_place.Placer.best_of] in test_place_route.ml.  Positions are
   whole numbers, so the per-net sums need only reach the same values,
   not add the same floats in the same order, for placements to agree
   bit for bit. *)

open Sc_place.Placer

let default_rows p =
  let n = Array.length p.kinds in
  max 1 (int_of_float (sqrt (float_of_int (max n 1))))

let fold_rows p order nrows =
  let n = Array.length order in
  let per_row = max 1 ((n + nrows - 1) / nrows) in
  let x = Array.make n 0 in
  let row = Array.make n 0 in
  let row_width = ref 0 in
  let idx = ref 0 in
  for r = 0 to nrows - 1 do
    let count = min per_row (n - !idx) in
    let items = Array.sub order !idx (max count 0) in
    let items = if r land 1 = 1 then Array.of_list (List.rev (Array.to_list items)) else items in
    let cursor = ref 0 in
    Array.iter
      (fun item ->
        x.(item) <- !cursor;
        row.(item) <- r;
        cursor := !cursor + p.widths.(item))
      items;
    row_width := max !row_width !cursor;
    idx := !idx + count
  done;
  { problem = p; x; row; nrows; row_width = !row_width }

let ordered ?nrows p =
  let n = Array.length p.kinds in
  let nrows = match nrows with Some r -> r | None -> default_rows p in
  let pos = Array.init n float_of_int in
  let neighbours = Array.make n [] in
  Array.iter
    (fun net ->
      Array.iter
        (fun a ->
          Array.iter (fun b -> if a <> b then neighbours.(a) <- b :: neighbours.(a)) net)
        net)
    p.nets;
  for _pass = 1 to 12 do
    let next = Array.copy pos in
    for i = 0 to n - 1 do
      match neighbours.(i) with
      | [] -> ()
      | ns ->
        let sum = List.fold_left (fun acc j -> acc +. pos.(j)) 0.0 ns in
        next.(i) <- (pos.(i) +. (sum /. float_of_int (List.length ns))) /. 2.0
    done;
    Array.blit next 0 pos 0 n;
    let ranked = Array.init n (fun i -> i) in
    Array.sort (fun a b -> Float.compare pos.(a) pos.(b)) ranked;
    Array.iteri (fun rank item -> pos.(item) <- float_of_int rank) ranked
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare pos.(a) pos.(b)) order;
  fold_rows p order nrows

(* [Placer.best_of] run sequentially from this [ordered] start *)
let best_of ?(seeds = 4) ?iters ?nrows p =
  let starts =
    improve_cost ?iters (ordered ?nrows p)
    :: List.init seeds (fun k -> improve_cost ?iters (random ~seed:(100 + k) ?nrows p))
  in
  fst
    (List.fold_left
       (fun (bp, bc) (cp, cc) -> if cc < bc then (cp, cc) else (bp, bc))
       (List.hd starts) (List.tl starts))
