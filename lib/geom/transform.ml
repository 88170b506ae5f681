type orient = R0 | R90 | R180 | R270 | MX | MX90 | MY | MY90

type t = { orient : orient; shift : Point.t }

let identity = { orient = R0; shift = Point.origin }
let make ?(orient = R0) shift = { orient; shift }
let translation x y = { orient = R0; shift = Point.make x y }

(* Each orientation is an orthogonal matrix [| a b; c d |] acting as
   (x, y) -> (a*x + b*y, c*x + d*y).  Composition and inversion go through
   this representation, which keeps the eight-element group closed without a
   64-entry case table. *)
let matrix = function
  | R0 -> (1, 0, 0, 1)
  | R90 -> (0, -1, 1, 0)
  | R180 -> (-1, 0, 0, -1)
  | R270 -> (0, 1, -1, 0)
  | MX -> (1, 0, 0, -1)
  | MY -> (-1, 0, 0, 1)
  | MX90 -> (0, 1, 1, 0)
  | MY90 -> (0, -1, -1, 0)

let of_matrix = function
  | 1, 0, 0, 1 -> R0
  | 0, -1, 1, 0 -> R90
  | -1, 0, 0, -1 -> R180
  | 0, 1, -1, 0 -> R270
  | 1, 0, 0, -1 -> MX
  | -1, 0, 0, 1 -> MY
  | 0, 1, 1, 0 -> MX90
  | 0, -1, -1, 0 -> MY90
  | _ -> assert false

let apply_orient o (p : Point.t) =
  let a, b, c, d = matrix o in
  Point.make ((a * p.Point.x) + (b * p.Point.y)) ((c * p.Point.x) + (d * p.Point.y))

let apply t p = Point.add (apply_orient t.orient p) t.shift

(* The image of each axis interval, written out per orientation: no
   intermediate points, so flattening allocates only the result. *)
let apply_rect t (r : Rect.t) =
  let sx = t.shift.Point.x and sy = t.shift.Point.y in
  match t.orient with
  | R0 -> Rect.make (sx + r.xmin) (sy + r.ymin) (sx + r.xmax) (sy + r.ymax)
  | R90 -> Rect.make (sx - r.ymax) (sy + r.xmin) (sx - r.ymin) (sy + r.xmax)
  | R180 -> Rect.make (sx - r.xmax) (sy - r.ymax) (sx - r.xmin) (sy - r.ymin)
  | R270 -> Rect.make (sx + r.ymin) (sy - r.xmax) (sx + r.ymax) (sy - r.xmin)
  | MX -> Rect.make (sx + r.xmin) (sy - r.ymax) (sx + r.xmax) (sy - r.ymin)
  | MY -> Rect.make (sx - r.xmax) (sy + r.ymin) (sx - r.xmin) (sy + r.ymax)
  | MX90 -> Rect.make (sx + r.ymin) (sy + r.xmin) (sx + r.ymax) (sy + r.xmax)
  | MY90 -> Rect.make (sx - r.ymax) (sy - r.xmax) (sx - r.ymin) (sy - r.xmin)

let orient_compose o2 o1 =
  let a2, b2, c2, d2 = matrix o2 in
  let a1, b1, c1, d1 = matrix o1 in
  of_matrix
    ( (a2 * a1) + (b2 * c1)
    , (a2 * b1) + (b2 * d1)
    , (c2 * a1) + (d2 * c1)
    , (c2 * b1) + (d2 * d1) )

let orient_invert o =
  let a, b, c, d = matrix o in
  of_matrix (a, c, b, d)

let compose outer inner =
  { orient = orient_compose outer.orient inner.orient
  ; shift = Point.add (apply_orient outer.orient inner.shift) outer.shift
  }

let invert t =
  let o = orient_invert t.orient in
  { orient = o; shift = Point.neg (apply_orient o t.shift) }

let equal a b = a.orient = b.orient && Point.equal a.shift b.shift

let orient_to_string = function
  | R0 -> "R0"
  | R90 -> "R90"
  | R180 -> "R180"
  | R270 -> "R270"
  | MX -> "MX"
  | MX90 -> "MX90"
  | MY -> "MY"
  | MY90 -> "MY90"

let orient_of_string = function
  | "R0" -> Some R0
  | "R90" -> Some R90
  | "R180" -> Some R180
  | "R270" -> Some R270
  | "MX" -> Some MX
  | "MX90" -> Some MX90
  | "MY" -> Some MY
  | "MY90" -> Some MY90
  | _ -> None

let all_orients = [ R0; R90; R180; R270; MX; MX90; MY; MY90 ]
