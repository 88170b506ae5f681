(** Primitive gates of the standard-module set.

    The NMOS standard modules are inverting logic (inverters, NANDs,
    NORs) plus the composite cells a 1979 module library would provide:
    AND/OR (a NAND/NOR with an output inverter), XOR, a 2-way multiplexer,
    and clocked state (transparent latch and master-slave D flip-flop,
    optionally with a load enable).  All sequential elements share one
    implicit global clock, giving synchronous single-phase semantics. *)

type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2  (** inputs a, b, sel; output = sel ? b : a *)
  | Dff  (** input d *)
  | Dffe  (** inputs d, en: holds when en = 0 *)
  | Const0
  | Const1

val arity : kind -> int

val is_sequential : kind -> bool

(** Evaluate a combinational gate on booleans.
    @raise Invalid_argument on sequential or arity mismatch. *)
val eval : kind -> bool array -> bool

(** Transistor cost of the gate in the NMOS module library (used for the
    space comparisons of E1/E2). *)
val transistors : kind -> int

(** Unit-delay model: gate delay in tau units (pass-through cells cost 0,
    inverting gates 1, composites more). *)
val delay : kind -> int

val all : kind list

val to_string : kind -> string
