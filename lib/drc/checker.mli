(** Lambda design-rule checking.

    The checker verifies the {!Sc_tech.Rules.deck}:

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

    {b The kernel.}  {!check_flat} runs the deck on one set of
    rectangles.  Each layer is put in a {!Sc_geom.Rect_index}, a uniform
    grid of about one rectangle per tile, and the neighbour rules
    (spacing, region labelling, cross-layer spacing, enclosure
    candidates) ask the index for the rectangles within the rule
    distance, so a rectangle's cost is the number of shapes near it:
    for layouts of bounded density the deck runs in near-linear time in
    n rectangles and k violations, however many cell rows share an
    x-range.  Indexing runs one task per layer, then the rules run as
    independent tasks (per rule, per layer, and per slice of the inner
    rectangles for enclosure): in the caller, or on [?pool] when one is
    given, their results merged in submission order, so the violation
    list is identical at every pool size.

    {b The hierarchical check.}  {!check} checks each distinct cell of
    the hierarchy once, in its own coordinates, and never flattens:
    - the kernel runs on each cell's own rectangles;
    - from the leaves up, a cell's instances are checked against each
      other only inside interaction windows, where their bounding boxes
      grown by the largest interaction distance meet, and against the
      cell's own rectangles near them; a window fetches an instance's
      geometry only inside the window;
    - a cell's spacing regions are its own regions and its instances'
      regions, joined through the touching pairs the windows found.
    Two outcomes depend on context and are decided again at each
    placement, in every parent up to the root: a spacing pair in
    distinct regions of a cell (a neighbour may join them) and an
    enclosure that fails inside a cell (a neighbour's metal may
    complete it).  A cell numbers its regions compactly only so that
    its parents can number their instances' regions; the root has no
    parent, so it numbers none: it decides each open gap by the
    union-find roots of its two regions, and builds a layer's
    union-find only when a gap on that layer is still open.  A pass
    stays a pass, and width and cross-layer
    violations are definite; they are expanded once per placement,
    skipping subtrees that have none.  The whole check runs in the
    calling domain.  The result equals [check_flat (Flatten.run c)],
    order included.

    Violation order: width violations come first, per layer in
    flattening order.  Spacing and enclosure violations follow in
    {!Sc_geom.Rect.compare} order of their witness rectangles (a
    witness's spacing violations in that order of the other rectangle),
    and cross-layer violations in merged-array order of each pair's
    earlier member.  Apart from the width rule, the order is a function
    of the geometry alone, not of the order of the flattened boxes.  (A
    witness drawn several times lists its partners once per copy, as a
    scan of the sorted rectangles meets them.) *)

open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t  (** a rectangle that witnesses the violation *)
  ; detail : string
  }

(** [check c] checks the hierarchy under [c], each distinct cell once. *)
val check : Cell.t -> violation list

(** [check_flat boxes] runs the deck on already flattened geometry: the
    hierarchical check's kernel and its test oracle. *)
val check_flat : ?pool:Sc_par.Pool.t -> Flatten.flat_box list -> violation list

val is_clean : Cell.t -> bool

val report : Format.formatter -> violation list -> unit
