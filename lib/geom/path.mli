(** Manhattan wire paths.

    A path is a centre-line through a list of points plus a width; wires in
    the layout are paths.  Only Manhattan (axis-parallel) segments can be
    converted to rectangles — the conversion pads each segment by half the
    width so that consecutive segments join without notches, matching CIF
    "wire" semantics for rectilinear wires. *)

type t = { width : int; points : Point.t list }

val make : width:int -> Point.t list -> t

(** [is_manhattan p] is true when every segment is axis-parallel. *)
val is_manhattan : t -> bool

(** [to_rects p] converts a Manhattan path to covering rectangles.

    @raise Invalid_argument on a non-Manhattan segment or an odd width. *)
val to_rects : t -> Rect.t list

val translate : Point.t -> t -> t

val transform : Transform.t -> t -> t

val bbox : t -> Rect.t option
