(** Manhattan transformations.

    A layout instance is placed by one of the eight Manhattan orientations
    (the symmetry group of the square) followed by a translation.  This is
    the transformation model of CIF symbol calls (rotate by multiples of 90
    degrees, mirror in x or y, translate). *)

(** The eight orientations.  [R0] is the identity; [R90] rotates 90 degrees
    counter-clockwise; [MX] mirrors across the x axis (negates y); [MY]
    mirrors across the y axis (negates x); [MX90]/[MY90] are the mirrors
    followed by a 90-degree rotation. *)
type orient = R0 | R90 | R180 | R270 | MX | MX90 | MY | MY90

type t = { orient : orient; shift : Point.t }

val identity : t

val make : ?orient:orient -> Point.t -> t

val translation : int -> int -> t

(** [matrix o] is the orientation as an orthogonal matrix [(a, b, c, d)]
    mapping [(x, y)] to [(a*x + b*y, c*x + d*y)]; one of [a], [b] is 0,
    the other ±1, and likewise [c], [d]. *)
val matrix : orient -> int * int * int * int

(** [apply t p] transforms the point: orientation first, then shift. *)
val apply : t -> Point.t -> Point.t

val apply_rect : t -> Rect.t -> Rect.t

(** [compose outer inner] is the transform equivalent to applying [inner]
    first and then [outer]: [apply (compose outer inner) p =
    apply outer (apply inner p)]. *)
val compose : t -> t -> t

val invert : t -> t

val equal : t -> t -> bool

val orient_to_string : orient -> string

val orient_of_string : string -> orient option

val all_orients : orient list
