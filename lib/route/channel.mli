(** Channel routing.

    The classic two-layer channel model of the period: pins enter a
    horizontal channel from the top and bottom edges at integer x
    positions; each net gets horizontal *metal* trunk segments on tracks
    and vertical *poly* branches to its pins, joined by contacts.

    The router is left-edge with a vertical constraint graph: when a
    column holds a top pin of net [a] and a bottom pin of net [b], [a]'s
    trunk must lie above [b]'s.  With [dogleg] enabled, nets are split at
    their pins into pin-to-pin sub-segments first, which breaks most
    constraint cycles and often lowers the track count (the E-series
    ablation toggles this).

    Pins of the same x and net on both edges connect with a single
    through-branch.  Pin x positions must be at least 7 lambda apart
    (metal surround pitch); violations raise [Invalid_argument].

    Routing and drawing are separate steps.  {!route} computes the track
    assignment on flat integer arrays and draws nothing: the compiler's
    route pass only needs the track counts and heights, so it never
    builds geometry.  {!draw} turns an assignment into the channel's
    artwork, for callers that place the channel in a chip
    ([Sc_chip.Assemble.pack]) or check it.

    Cost: each edge's pins are put in x order through 7-lambda buckets
    (sorted instead when the channel is much wider than its pins), and
    a walk over that column order lists the segments by left edge; each
    track then takes its segments in one scan of the unplaced ones,
    jumping by binary search past every trunk it takes.  An
    unconstrained channel of n pins and s segments routes in
    O(n + s log s); a segment waiting on a vertical constraint is
    stepped over once per track it waits.  The temporary arrays are
    kept per domain and reused, so a channel allocates little beyond
    its result. *)

type pin = { x : int; net : int }

type spec =
  { top : pin list  (** pins on the channel's top edge *)
  ; bottom : pin list
  ; width : int  (** channel width in lambda; pins must fit inside *)
  }

(** A routed channel: its size and its track assignment.

    Pins are numbered [0 .. n-1] in column order: ascending x, and where
    a bottom and a top pin share a column, the bottom one first.
    Segments — trunk intervals of one net, in the order {!draw} emits
    them — are numbered [0 .. s-1]; segment [i] drops branches to the
    pins [branches.(first.(i))], [branches.(first.(i) + 1)], ...,
    [branches.(last.(i))], left to right, and its trunk runs from the
    first of them to the last. *)
type routed =
  { height : int  (** channel height consumed, in lambda *)
  ; tracks : int
  ; trunk_length : int  (** total horizontal wire length *)
  ; pin_x : int array  (** per pin: its x *)
  ; pin_top : bool array  (** per pin: on the top edge (else the bottom) *)
  ; branches : int array  (** pin numbers, grouped by segment as above *)
  ; first : int array  (** per segment *)
  ; last : int array  (** per segment *)
  ; track : int array  (** per segment: its track, 0 the topmost *)
  ; throughs : int list  (** x of each through-branch, in drawing order *)
  }

exception Unroutable of string

(** @raise Unroutable when the vertical constraint graph is cyclic and
    doglegs are disabled or cannot break the cycle.

    The whole routing runs inside an {!Sc_obs.Obs.span} named
    ["channel"]: if [Unroutable] (or [Invalid_argument] from pin
    validation) is raised, the span is still closed and recorded —
    [Obs.span] re-raises after finishing the frame — so traces show the
    aborted attempt and the exception reaches the caller unchanged. *)
val route : ?dogleg:bool -> spec -> routed

(** [draw r] — the channel's geometry in channel coordinates: (0,0)
    bottom-left, y growing upward to [r.height]; pins are touched at
    y=0 and y=height.  Per segment, its metal trunk, then for each of
    its pins a contact, the contact's metal surround and the poly
    branch; the through-branches last. *)
val draw : routed -> Sc_layout.Cell.t
