type t = { width : int; points : Point.t list }

let make ~width points =
  if width <= 0 then invalid_arg "Path.make: width must be positive";
  { width; points }

let rec segments = function
  | a :: (b :: _ as rest) -> (a, b) :: segments rest
  | [ _ ] | [] -> []

let is_manhattan p =
  List.for_all
    (fun (a, b) -> Point.colinear_axis a b <> None)
    (segments p.points)

let length p =
  List.fold_left (fun acc (a, b) -> acc + Point.manhattan a b) 0 (segments p.points)

let to_rects p =
  if p.width mod 2 <> 0 then
    invalid_arg "Path.to_rects: width must be even (half-width padding)";
  let h = p.width / 2 in
  let seg_rect (a : Point.t) (b : Point.t) =
    match Point.colinear_axis a b with
    | Some `H ->
      Rect.make (min a.Point.x b.Point.x - h) (a.Point.y - h)
        (max a.Point.x b.Point.x + h) (a.Point.y + h)
    | Some `V ->
      Rect.make (a.Point.x - h) (min a.Point.y b.Point.y - h)
        (a.Point.x + h) (max a.Point.y b.Point.y + h)
    | None -> invalid_arg "Path.to_rects: non-Manhattan segment"
  in
  match p.points with
  | [] -> []
  | [ pt ] ->
    [ Rect.make (pt.Point.x - h) (pt.Point.y - h) (pt.Point.x + h) (pt.Point.y + h) ]
  | pts -> List.map (fun (a, b) -> seg_rect a b) (segments pts)

let translate d p = { p with points = List.map (Point.add d) p.points }

let transform t p = { p with points = List.map (Transform.apply t) p.points }

let bbox p =
  match to_rects p with
  | [] -> None
  | r :: rs -> Some (List.fold_left Rect.union_bbox r rs)
