(** Lambda design-rule checking.

    The checker flattens a cell and verifies the {!Sc_tech.Rules.deck}:

    - minimum width per rectangle (the 1979-era rectangle discipline:
      generators draw features as rectangles of legal width, so rectangle
      granularity is the right check);
    - minimum spacing between *electrically distinct* groups on a layer —
      rectangles that touch or overlap are merged into one group first, so
      abutting tiles of one wire are never flagged against each other;
    - cross-layer spacing (e.g. poly to unrelated diffusion), where shapes
      with interior overlap are exempt because a poly-over-diffusion
      crossing is a transistor, not a violation (edge abutment without
      overlap is still flagged);
    - enclosure (contact cuts inside metal, glass inside pad metal).

    Each layer is sorted into {!Sc_geom.Rect.compare} order (xmin
    first) by {!Sc_geom.Rect.sort}, a radix sort, and put in a
    {!Sc_geom.Rect_index}, a uniform grid of about one rectangle per
    tile.  The neighbour rules (spacing, region labelling, cross-layer
    spacing over a linear merge of both sorted layers, enclosure
    candidates) ask the index for the rectangles within the rule
    distance, so a rectangle's cost is the number of shapes near it:
    for layouts of bounded density the deck runs in near-linear time in
    n rectangles and k violations, however many cell rows share an
    x-range.

    Violation order: width violations come first, per layer in
    flattening order.  Spacing and enclosure violations follow in
    {!Sc_geom.Rect.compare} order of their witness rectangles (a
    witness's spacing violations in that order of the other rectangle),
    and cross-layer violations in merged-array order of each pair's
    earlier member.  Apart from the width rule, the order is a function
    of the geometry alone, not of the order of the flattened boxes.

    Sorting and indexing run one task per layer, then the rules run as
    independent tasks (per rule, per layer, and per slice of the sorted
    array for enclosure) on an {!Sc_par.Pool} — the process default
    unless [?pool] is given.  Task results are concatenated in
    submission order, so the violation list is identical at every pool
    size. *)

open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t  (** a rectangle that witnesses the violation *)
  ; detail : string
  }

val check : ?pool:Sc_par.Pool.t -> Cell.t -> violation list

(** [check_flat boxes] runs the deck on already flattened geometry. *)
val check_flat : ?pool:Sc_par.Pool.t -> Flatten.flat_box list -> violation list

val is_clean : Cell.t -> bool

val pp_violation : Format.formatter -> violation -> unit

val report : Format.formatter -> violation list -> unit
