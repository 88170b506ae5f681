(** Three-valued logic for simulation: 0, 1 and unknown.

    The X value gives honest answers about uninitialized state: a
    flip-flop that was never loaded reads X, and X is contagious except
    through controlling inputs (0 AND X = 0, 1 OR X = 1). *)

type t = V0 | V1 | VX

(** [true] is {!V1}, [false] is {!V0}. *)
val of_bool : bool -> t

(** [None] on {!VX}. *)
val to_bool : t -> bool option

(** [eval_gate kind ins] — the 3-valued semantics of a combinational gate.
    @raise Invalid_argument on sequential kinds. *)
val eval_gate : Sc_netlist.Gate.kind -> t array -> t

(** Structural equality ([VX] equals only [VX]). *)
val equal : t -> t -> bool
