(** Axis-aligned integer rectangles.

    Rectangles are kept normalized: [xmin <= xmax] and [ymin <= ymax].
    A rectangle with zero width or height is degenerate; [is_empty]
    reports it.  Most of the layout database is built from rectangles,
    as was usual for NMOS Mead–Conway artwork. *)

type t = private { xmin : int; ymin : int; xmax : int; ymax : int }

(** [make x0 y0 x1 y1] normalizes the corner order. *)
val make : int -> int -> int -> int -> t

(** [of_center_wh ~cx ~cy ~w ~h] builds the rectangle centred at
    [(cx, cy)].  Width and height must be non-negative. *)
val of_center_wh : cx:int -> cy:int -> w:int -> h:int -> t

(** [of_corner_wh ~x ~y ~w ~h] builds the rectangle whose lower-left
    corner is [(x, y)]. *)
val of_corner_wh : x:int -> y:int -> w:int -> h:int -> t

val width : t -> int

val height : t -> int

val area : t -> int

val is_empty : t -> bool

val center : t -> Point.t

val corners : t -> Point.t * Point.t
(** Lower-left and upper-right corners. *)

val translate : Point.t -> t -> t

(** [inflate d r] grows the rectangle by [d] on every side ([d] may be
    negative; the result is clamped to a degenerate rectangle at the
    centre rather than denormalizing). *)
val inflate : int -> t -> t

val overlaps : t -> t -> bool
(** Strict interior overlap: touching edges do not count. *)

val touches_or_overlaps : t -> t -> bool

val inter : t -> t -> t option
(** Intersection, [None] if the interiors are disjoint. *)

(** [minus a b] is the parts of [a] outside [b]: [[a]] itself unless
    they {!overlaps}, otherwise at most four non-empty rectangles with
    disjoint interiors, listed top strip, bottom strip, right slab, left
    slab (the strips span [b]'s columns, the slabs [a]'s full height). *)
val minus : t -> t -> t list

val union_bbox : t -> t -> t

(** [zero] is the degenerate rectangle at the origin, a static constant:
    [Array.make n zero] never forces a minor collection, where
    [Array.make], [Array.init], [Array.map] and [Array.of_list] empty the
    whole minor heap first when they build an array of more than 256
    elements from a freshly allocated one.  Fill such arrays after
    making them on [zero]. *)
val zero : t

(** [array_of_list rs] is [Array.of_list rs], made on {!zero}. *)
val array_of_list : t list -> t array

(** [separation a b] is the Euclidean-free rectilinear separation used by
    design-rule checking: the maximum of the x-gap and y-gap between the
    two rectangles, 0 when they touch or overlap. *)
val separation : t -> t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
