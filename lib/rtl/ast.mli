(** Abstract syntax of the behavioral description language.

    A small ISP-flavoured register-transfer language (after Barbacci et
    al.'s ISPS, the paper's reference [4]): a design declares inputs,
    outputs and registers with bit widths, and a behaviour — a statement
    list executed once per clock cycle.  Register assignments take effect
    at the end of the cycle (all right-hand sides see pre-cycle values);
    textual order gives priority (last assignment wins).  Outputs are
    combinational and must be assigned on every path. *)

type unop = Not  (** bitwise complement *)

type binop =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Lt
  | Gt
  | Shl  (** shift by a constant right operand *)
  | Shr

type expr =
  | Const of int
  | Ref of string
  | Bit of string * int  (** single-bit select *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Decode of expr * (int * stmt list) list * stmt list
      (** decode e: cases by constant, with default *)

type decl = { dname : string; width : int }

type design =
  { name : string
  ; inputs : decl list
  ; outputs : decl list
  ; regs : decl list
  ; wires : decl list
      (** combinational temporaries: assigned then read within one cycle
          (blocking); they carry no state *)
  ; body : stmt list
  }

val pp : Format.formatter -> design -> unit
