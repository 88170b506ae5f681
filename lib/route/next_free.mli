(** Next-free search over the slots [0 .. size-1]: a union-find whose
    taken slots point past themselves.  Lookups compress the paths they
    walk, so any sequence of k {!find}/{!take} calls costs near-linear
    time however the requests collide — where probing a set of taken
    slots one by one costs O(k²) when requests pile up on one spot.

    Channel pin assignment ([Sc_place.Placer.route_channels]) hands
    out grid slots with it, and the left-edge router ({!Channel.route})
    splices placed segments out of its sorted scan with it. *)

type t

(** [create size] — all of [0 .. size-1] free.  Slot [size] is a
    sentinel: {!find} returns it when nothing at or after the start is
    free, and it can never be taken. *)
val create : int -> t

(** [find t s] — the smallest free slot [>= s] ([size] if none).
    @raise Invalid_argument if [s] is outside [0 .. size]. *)
val find : t -> int -> int

(** [take t s] marks the free slot [s] taken.
    @raise Invalid_argument if [s] is outside [0 .. size-1]. *)
val take : t -> int -> unit
