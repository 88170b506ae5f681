(** A uniform-grid bucket index over a fixed array of rectangles.

    The bounding box of the rectangles is cut into square tiles sized so
    that there is about one rectangle per tile; each rectangle is listed
    in every tile it touches.  A query visits only the tiles it touches,
    so finding the neighbours of one rectangle costs the number of
    rectangles near it, not the number in its x-column: stacked cell
    rows no longer make neighbour searches quadratic.

    Rectangles are named by their position in the array given to
    {!create}; degenerate (zero-width or zero-height) rectangles are
    indexed like any other. *)

type t

(** [create rects] indexes [rects]; the array must not be mutated
    afterwards.  The tile size is derived from the bounding box and the
    count, so there is nothing to tune. *)
val create : Rect.t array -> t

(** The indexed array. *)
val rects : t -> Rect.t array

(** Scratch space for queries: one per task, reused across queries, so
    a query allocates nothing once the buffer has grown to fit.  A
    cursor may be used by one domain at a time; the index it reads may
    be shared. *)
type cursor

val cursor : t -> cursor

(** [near c ~within r] finds every indexed rectangle [q] with
    [Rect.separation r q <= within] (so [~within:0] finds those that
    touch or overlap [r]) and returns how many there are.  Their indices
    are [hit c 0 .. hit c (n - 1)], ascending and without duplicates,
    until the next query on [c].  [within] must be non-negative. *)
val near : cursor -> within:int -> Rect.t -> int

(** [hit c k] is the [k]-th index found by the last {!near} on [c]. *)
val hit : cursor -> int -> int

(** [components t] labels touch-connected regions: [(components t).(i)
    = (components t).(j)] iff rectangles [i] and [j] are joined by a
    chain of rectangles, each touching or overlapping the next.  A
    label is the index of one member of its region. *)
val components : t -> int array

(** [subtract c r] is the parts of [r] outside every indexed rectangle:
    [r] is cut by each rectangle it overlaps with {!Rect.minus}, in
    ascending index order.  It uses [c] for its own query. *)
val subtract : cursor -> Rect.t -> Rect.t list
