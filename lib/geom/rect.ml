type t = { xmin : int; ymin : int; xmax : int; ymax : int }

let make x0 y0 x1 y1 =
  { xmin = Int.min x0 x1
  ; ymin = Int.min y0 y1
  ; xmax = Int.max x0 x1
  ; ymax = Int.max y0 y1
  }

let width r = r.xmax - r.xmin
let height r = r.ymax - r.ymin
let area r = width r * height r
let is_empty r = width r = 0 || height r = 0

let center r =
  Point.make ((r.xmin + r.xmax) / 2) ((r.ymin + r.ymax) / 2)

let corners r = (Point.make r.xmin r.ymin, Point.make r.xmax r.ymax)

let translate (p : Point.t) r =
  { xmin = r.xmin + p.x
  ; ymin = r.ymin + p.y
  ; xmax = r.xmax + p.x
  ; ymax = r.ymax + p.y
  }

let inflate d r =
  let x0 = r.xmin - d and x1 = r.xmax + d in
  let y0 = r.ymin - d and y1 = r.ymax + d in
  if x0 <= x1 && y0 <= y1 then { xmin = x0; ymin = y0; xmax = x1; ymax = y1 }
  else
    let c = center r in
    { xmin = c.Point.x; ymin = c.Point.y; xmax = c.Point.x; ymax = c.Point.y }

let overlaps a b =
  a.xmin < b.xmax && b.xmin < a.xmax && a.ymin < b.ymax && b.ymin < a.ymax

let touches_or_overlaps a b =
  a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax && b.ymin <= a.ymax

let inter a b =
  if overlaps a b then
    Some
      { xmin = Int.max a.xmin b.xmin
      ; ymin = Int.max a.ymin b.ymin
      ; xmax = Int.min a.xmax b.xmax
      ; ymax = Int.min a.ymax b.ymax
      }
  else None

let minus a b =
  if not (overlaps a b) then [ a ]
  else begin
    let pieces = ref [] in
    let piece x0 y0 x1 y1 =
      if x0 < x1 && y0 < y1 then pieces := make x0 y0 x1 y1 :: !pieces
    in
    (* left and right slabs, then the middle strips below and above *)
    piece a.xmin a.ymin (Int.min a.xmax b.xmin) a.ymax;
    piece (Int.max a.xmin b.xmax) a.ymin a.xmax a.ymax;
    let mx0 = Int.max a.xmin b.xmin and mx1 = Int.min a.xmax b.xmax in
    piece mx0 a.ymin mx1 (Int.min a.ymax b.ymin);
    piece mx0 (Int.max a.ymin b.ymax) mx1 a.ymax;
    !pieces
  end

let union_bbox a b =
  { xmin = Int.min a.xmin b.xmin
  ; ymin = Int.min a.ymin b.ymin
  ; xmax = Int.max a.xmax b.xmax
  ; ymax = Int.max a.ymax b.ymax
  }

let separation a b =
  let gap lo1 hi1 lo2 hi2 = Int.max 0 (Int.max (lo2 - hi1) (lo1 - hi2)) in
  let dx = gap a.xmin a.xmax b.xmin b.xmax in
  let dy = gap a.ymin a.ymax b.ymin b.ymax in
  Int.max dx dy

(* a structured constant: static data, never in the minor heap *)
let zero = { xmin = 0; ymin = 0; xmax = 0; ymax = 0 }

let array_of_list rs =
  let a = Array.make (List.length rs) zero in
  List.iteri (fun i r -> a.(i) <- r) rs;
  a

let equal a b =
  a.xmin = b.xmin && a.ymin = b.ymin && a.xmax = b.xmax && a.ymax = b.ymax

let compare a b =
  let c = Int.compare a.xmin b.xmin in
  if c <> 0 then c
  else
    let c = Int.compare a.ymin b.ymin in
    if c <> 0 then c
    else
      let c = Int.compare a.xmax b.xmax in
      if c <> 0 then c else Int.compare a.ymax b.ymax

let pp ppf r =
  Format.fprintf ppf "[%d,%d..%d,%d]" r.xmin r.ymin r.xmax r.ymax

let to_string r = Format.asprintf "%a" pp r
