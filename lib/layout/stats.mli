(** Layout statistics.

    The paper's comparisons (compiled vs. manual design, E1/E2) are made in
    terms of area and device count; this module measures both from the
    geometry itself, so the numbers do not depend on how a layout was
    produced. *)

type t =
  { cell_name : string
  ; bbox_area : int  (** bounding-box area, square lambda *)
  ; width : int
  ; height : int
  ; layer_area : int array
        (** drawn area per layer, by [Layer.index], overlaps counted
            twice; summed per distinct cell *)
  ; transistors : int  (** transistor channels in the flat layout *)
  ; rects : int  (** flattened rectangle count *)
  ; cells : int  (** distinct cells in the hierarchy *)
  ; instances : int  (** total instantiations, transitively *)
  }

(** [measure c] visits each distinct cell of [c] once, as
    {!transistor_count} does, and flattens no more than it. *)
val measure : Cell.t -> t

(** Transistor channels: poly over diffusion minus buried-contact area
    (a buried contact joins the two layers; it is not a gate).
    [pieces] holds each poly rectangle's crossings with the diffusion,
    in poly order, each cut by the buried contacts it overlaps
    ({!Sc_geom.Rect_index.subtract}); [region] labels touching pieces
    alike ({!Sc_geom.Rect_index.components}).  A region is one
    transistor, however many boxes draw it. *)
type channels = { pieces : Sc_geom.Rect_index.t; region : int array }

(** [channels ~poly ~diffusion ~buried] recognises the channels of flat
    rectangles given per layer.  Every candidate search is a grid-index
    query: near-linear in the rectangle count for locally sparse
    layouts. *)
val channels :
  poly:Sc_geom.Rect.t array ->
  diffusion:Sc_geom.Rect.t array ->
  buried:Sc_geom.Rect.t array ->
  channels

(** [transistor_count c] is the number of channel regions in the
    flattened layout; [Sc_extract.Extractor.extract] makes one device
    per region, so the two always agree.

    It is computed hierarchically and flattens only where channel
    geometry of different parts touches.  Each distinct cell is visited
    once, children first.  A cell's nodes are its own poly, diffusion
    and buried rectangles (one node) and each instance that draws on
    those layers; a node's box is the bounding box of that geometry,
    seen through the instance transform.  Nodes whose boxes touch or
    overlap form a group ({!Sc_geom.Rect_index.components}).  A group of
    one instance counts what its cell counts; every other group is
    flattened on the three layers and counted by {!channels}.  The
    result equals the flat count on every layout: a channel piece, and
    every piece touching it, lies inside the boxes of the nodes that
    draw it, and region counts do not change under the eight
    orientations.

    Cost: one pass over each distinct cell's own geometry, plus the
    flattened groups.  A chip of library cells whose channel geometry
    stays inside their bounding boxes (pdp8) flattens nothing.  The
    worst case is artwork in which everything touches, as in PLAs and
    routed modules: there a group flattens its subtree again at each
    level of the hierarchy. *)
val transistor_count : Cell.t -> int

val pp : Format.formatter -> t -> unit
