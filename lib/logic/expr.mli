(** Boolean expressions.

    The front-ends (behavioral compiler, PLA programming) describe logic as
    expressions; [to_cover] turns a vector of expressions into a
    multi-output SOP cover by structural translation (negation-normal form,
    then distribution), with identical product terms shared between
    outputs — exactly how a PLA shares AND-plane rows. *)

type t =
  | Var of int
  | Const of bool
  | Not of t
  | And of t list
  | Or of t list
  | Xor of t * t

val var : int -> t

val ( &&& ) : t -> t -> t

val ( ||| ) : t -> t -> t

val not_ : t -> t

val xor : t -> t -> t

val eval : (int -> bool) -> t -> bool

(** [to_cover ~ninputs outputs] builds the multi-output cover whose output
    [o] equals [List.nth outputs o].

    @raise Invalid_argument if an expression mentions a variable
    [>= ninputs]. *)
val to_cover : ninputs:int -> t list -> Cover.t

val to_string : t -> string
