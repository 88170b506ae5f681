(** Cubes of a multi-output boolean cover.

    A cube is a product term over [n] input variables — each literal is
    0, 1 or don't-care — together with the set of outputs it drives,
    kept as a bitmask (so at most 62 outputs).  This is the PLA
    personality-row view of logic: the input part is the AND plane, the
    output mask the OR plane. *)

type lit = Zero | One | Dash

type t = private { lits : lit array; outputs : int }

(** [make lits outputs] with [outputs] a non-zero bitmask.
    @raise Invalid_argument when [outputs] is 0 or negative. *)
val make : lit array -> int -> t

(** [of_string s outputs] parses "01-0" notation. *)
val of_string : string -> int -> t

(** [minterm bits outputs] builds a full cube from booleans. *)
val minterm : bool array -> int -> t

val num_inputs : t -> int

(** Number of Dash literals. *)
val free_count : t -> int

(** [covers_input c bits] — does the input part contain the minterm? *)
val covers_input : t -> bool array -> bool

(** [covers c c'] — input part of [c] contains that of [c'] and the output
    mask of [c] is a superset of [c']'s. *)
val covers : t -> t -> bool

(** [merge c c'] — when the input parts are at distance exactly 1 and the
    output masks intersect, the QM merge: the differing variable goes to
    Dash, outputs to the intersection. *)
val merge : t -> t -> t option

(** [raise_lit c i] sets literal [i] to Dash. *)
val raise_lit : t -> int -> t

(** [cofactor_lit c i v] restricts variable [i] to value [v]: [None] if the
    cube does not intersect that half-space, otherwise the cube with
    literal [i] erased to Dash. *)
val cofactor_lit : t -> int -> bool -> t option

val equal : t -> t -> bool

val to_string : t -> string
