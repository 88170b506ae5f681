(** Hash-consed reduced ordered binary decision diagrams.

    The canonical-form workhorse of the equivalence checker: every
    boolean function over an ordered variable set has exactly one node,
    so function equality is integer equality.  Nodes live in one growable
    arena per manager; {!and_}/{!or_}/{!xor}/{!ite} are memoized
    (dynamic-programming over node pairs), so each distinct sub-problem
    is solved once.

    Variable indices are levels: smaller index = closer to the root.
    Choosing that order well is the whole game for BDD size — the
    ordering heuristics live in {!Miter} where the circuit structure is
    visible. *)

type man
(** A node arena plus unique table and operation caches. *)

type t = private int
(** A node handle.  Handles from different managers must not be mixed.
    Equal handles (of one manager) denote equal functions. *)

(** A fresh manager; [size_hint] pre-sizes the node arena. *)
val create : ?size_hint:int -> unit -> man

val zero : t
(** The constant-false terminal. *)

val one : t
(** The constant-true terminal. *)

val var : man -> int -> t
(** [var m i] — the function of variable [i].
    @raise Invalid_argument when [i < 0]. *)

val not_ : man -> t -> t
(** Complement (memoized, like all operations below). *)

val and_ : man -> t -> t -> t
(** Conjunction. *)

val or_ : man -> t -> t -> t
(** Disjunction. *)

val xor : man -> t -> t -> t
(** Exclusive or. *)

val xnor : man -> t -> t -> t
(** Equivalence (complement of {!xor}). *)

val ite : man -> t -> t -> t -> t
(** [ite m f g h] = if [f] then [g] else [h]. *)

val is_false : t -> bool
(** Is this the {!zero} terminal (unsatisfiable)? *)

val node_count : man -> int
(** Nodes allocated in the manager so far (terminals included). *)

val sat_one : man -> t -> (int * bool) list
(** One satisfying assignment, as [(variable, value)] pairs on a root-to-
    [one] path; variables not listed are don't-care.
    @raise Invalid_argument on [zero]. *)
