(** Multi-output sum-of-products covers.

    A cover is the logic-level description of a PLA: a set of cubes over a
    fixed number of inputs and outputs.  Output [o] of the function is the
    OR of the cubes whose output mask has bit [o] set. *)

type t = private { ninputs : int; noutputs : int; cubes : Cube.t list }

(** @raise Invalid_argument when a cube's arity mismatches or
    [noutputs > 62]. *)
val make : ninputs:int -> noutputs:int -> Cube.t list -> t

(** [of_on_sets ~ninputs rows] builds a cover from string rows
    ["01-" , "10"] (input part, output part).  Output parts use '1' for
    driven outputs. *)
val of_rows : ninputs:int -> noutputs:int -> (string * string) list -> t

(** [of_function ~ninputs ~noutputs f] tabulates [f] over all minterms
    (exponential; [ninputs <= 20]). *)
val of_function :
  ninputs:int -> noutputs:int -> (bool array -> bool array) -> t

val term_count : t -> int

val eval : t -> bool array -> bool array

(** [cube_covered cube t] — is every (input minterm, output) pair of [cube]
    covered by [t]?  Decided per output bit by cofactor tautology, without
    enumerating minterms. *)
val cube_covered : Cube.t -> t -> bool

(** [union a b]
    @raise Invalid_argument on arity mismatch. *)
val union : t -> t -> t
