(** Flattening a cell hierarchy to mask geometry.

    Flattening expands every instance transitively and returns plain
    layer/rectangle pairs in the root coordinate system — the form needed
    by design-rule checking and by area/transistor statistics.  Wires are
    converted to their covering rectangles. *)

open Sc_geom
open Sc_tech

type flat_box = { layer : Layer.t; rect : Rect.t }

(** [run c] flattens the whole hierarchy under [c]. *)
val run : Cell.t -> flat_box list

(** [run_layers c ls], indexed by [Layer.index], holds for each layer
    of [ls] the rectangles of [run c] on that layer, in the same order,
    and [[]] for the other layers.  One traversal; boxes on other layers
    are skipped, not flattened. *)
val run_layers : Cell.t -> Layer.t list -> Rect.t list array

(** [ports c] returns every port of every instance, transitively, in root
    coordinates, with instance-path-qualified names ("a.b.port"). *)
val ports : Cell.t -> Cell.port list
