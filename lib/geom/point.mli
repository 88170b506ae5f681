(** Integer points on the lambda grid.

    All geometry in the silicon compiler lives on an integer grid whose unit
    is the technology's lambda (Mead–Conway scalable rules). *)

type t = { x : int; y : int }

val make : int -> int -> t

val origin : t

val add : t -> t -> t

val sub : t -> t -> t

(** [neg p] is [sub origin p]. *)
val neg : t -> t

val equal : t -> t -> bool

(** Manhattan (L1) distance. *)
val manhattan : t -> t -> int

(** [colinear_axis p q] is [Some `H] when the two points share a y
    coordinate, [Some `V] when they share an x coordinate (a degenerate
    point is reported as [`H]), and [None] for a diagonal pair. *)
val colinear_axis : t -> t -> [ `H | `V ] option

val pp : Format.formatter -> t -> unit
