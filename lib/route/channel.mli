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

    Cost: the segments are sorted by left edge once; each track then
    takes its segments in one scan of the unplaced ones, jumping by
    binary search past every trunk it takes.  An unconstrained channel
    of n segments routes in O(n log n); a segment waiting on a vertical
    constraint is stepped over once per track it waits. *)

type pin = { x : int; net : int }

type spec =
  { top : pin list  (** pins on the channel's top edge *)
  ; bottom : pin list
  ; width : int  (** channel width in lambda; pins must fit inside *)
  }

type routed =
  { height : int  (** channel height consumed, in lambda *)
  ; tracks : int
  ; layout : Sc_layout.Cell.t
      (** geometry in channel coordinates: (0,0) bottom-left,
          y grows upward to [height]; pins touched at y=0 / y=height *)
  ; trunk_length : int  (** total horizontal wire length *)
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

(** [river ~width pairs] — order-preserving two-row connection: pair
    [(xb, xt)] joins bottom pin at [xb] to top pin at [xt]; implemented as
    a channel with one net per pair. *)
val river : width:int -> (int * int) list -> routed
