(** Row-based standard-cell placement.

    Experiment E4 contrasts structured placement with unstructured: the
    placer offers a random baseline, a constructive barycentre/serpentine
    placement, and a swap-based improvement pass, all measured by
    half-perimeter wire length (HPWL).

    Items are the gates of a flattened circuit; their widths come from
    the standard-cell library and all share the library cell height.
    [to_layout] materializes a placement into real geometry: rows of
    cells separated by routing channels. *)

open Sc_netlist

type problem = private
  { kinds : Gate.kind array  (** per item *)
  ; widths : int array
  ; names : string array
  ; nets : int array array  (** net -> connected item indices, distinct *)
  }

(** [problem_of_circuit c] flattens [c]; items are gates, nets are the
    circuit's nets restricted to gate endpoints (single-item nets are
    dropped — they contribute nothing to HPWL). *)
val problem_of_circuit : Circuit.t -> problem

type placement =
  { problem : problem
  ; x : int array  (** lower-left cell x per item *)
  ; row : int array
  ; nrows : int
  ; row_width : int  (** widest row *)
  }

(** [random ?seed ?nrows p] — shuffle items into serpentine rows. *)
val random : ?seed:int -> ?nrows:int -> problem -> placement

(** Constructive placement: barycentre-ordered items folded into rows. *)
val ordered : ?nrows:int -> problem -> placement

(** [improve ?iters placement] — greedy pairwise-swap descent on HPWL.
    Candidate swaps are priced incrementally (only the nets touching the
    two swapped items are re-measured), but the walk is identical to a
    full-recompute descent: same RNG stream, same acceptances. *)
val improve : ?iters:int -> placement -> placement

(** [improve_cost ?iters placement] — as {!improve}, also returning the
    final HPWL (always equal to [hpwl] of the returned placement). *)
val improve_cost : ?iters:int -> placement -> placement * int

(** [best_of ?seeds ?iters ?nrows p] — multi-start placement: the
    constructive {!ordered} start plus [seeds] (default 4) {!random}
    restarts, each refined by {!improve} in turn.  Returns the placement
    with the lowest HPWL; ties keep the earliest start. *)
val best_of : ?seeds:int -> ?iters:int -> ?nrows:int -> problem -> placement

(** Half-perimeter wire length over all nets, cell centres as pins. *)
val hpwl : placement -> int

(** [to_layout ~name placement] — rows of library cells with 30 lambda
    of routing space between rows.
    Alternate rows are flipped in y so that power rails of facing rows
    line up.  The cell is {!Sc_layout.Compose.of_instances} of the
    placed gates, so its ports are the gates' ports as "g<item>.<port>",
    derived from the instances when read ({!Sc_layout.Cell.ports}):
    building it costs words per gate, not per port. *)
val to_layout : name:string -> placement -> Sc_layout.Cell.t

(** Routed wiring-management cost of a placement: for every adjacent
    row pair, the nets crossing that boundary become a channel-routing
    problem (one pin per side per net, snapped to a 14-lambda grid with
    top and bottom pins on alternating half-grids so vertical constraints
    never conflict) and the real channel router assigns tracks.

    The result is the aggregate channel height — the E4 metric:
    structured placement needs fewer tracks. *)
type routed_channels =
  { channels : Sc_route.Channel.routed list
  ; total_height : int  (** sum of channel heights, lambda *)
  }

(** [route_channels placement] routes one channel per row boundary that
    some net crosses, bottom boundary first.

    Pin assignment runs in an {!Sc_obs.Obs.span} named ["pins"] (each
    channel then routes in its own ["channel"] span, with
    {!Sc_route.Channel.route}: track assignments only, no geometry).
    Per boundary it costs one pass over the nets plus near-linear time
    in the pins: every net's lowest and highest row and total centre
    are found once, the boundaries are visited bottom up with each
    net's bottom-side sum kept running, and a colliding pin takes the
    next free grid slot through a path-compressed next-free array
    ({!Sc_route.Next_free}) sized by the largest cell centre.  Each
    channel's pin lists are made just before it routes. *)
val route_channels : placement -> routed_channels
