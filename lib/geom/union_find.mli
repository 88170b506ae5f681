(** Disjoint sets over [0 .. n - 1], with path halving: the one
    union-find behind {!Rect_index.components} and circuit extraction's
    electrical nodes. *)

type t

(** [create n] puts each of [0 .. n - 1] in a set of its own. *)
val create : int -> t

(** [find t i] is the representative of [i]'s set, one of its members. *)
val find : t -> int -> int

(** [union t i j] merges the sets of [i] and [j]; [j]'s representative
    represents the result. *)
val union : t -> int -> int -> unit

(** [labels t] points every element straight at its representative and
    returns [t]'s own array, allocating nothing: [(labels t).(i) =
    find t i] until the next {!union}. *)
val labels : t -> int array
