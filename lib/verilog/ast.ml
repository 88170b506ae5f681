open Sc_pipeline

type unop = Bnot

type binop =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Shl
  | Shr

type expr =
  | Number of { value : int; width : int option; npos : Diag.pos }
  | Id of string * Diag.pos
  | Index of string * int * Diag.pos
  | Slice of string * int * int * Diag.pos
  | Unop of unop * expr * Diag.pos
  | Binop of binop * expr * expr * Diag.pos
  | Cond of { cond : expr; t : expr; f : expr; cpos : Diag.pos }
  | Concat of expr list * Diag.pos

type stmt =
  | Nonblocking of { target : string; rhs : expr; spos : Diag.pos }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list; spos : Diag.pos }
  | Case of
      { scrutinee : expr
      ; arms : (expr * stmt list) list
      ; default : stmt list
      ; spos : Diag.pos
      }

type dir =
  | Input
  | Output

type kind =
  | Wire
  | Reg

type range =
  { msb : int
  ; lsb : int
  }

type decl =
  { name : string
  ; dir : dir option
  ; kind : kind
  ; range : range option
  ; dpos : Diag.pos
  }

type item =
  | Decl of decl
  | Assign of { lhs : string; rhs : expr; apos : Diag.pos }
  | Always of
      { edges : (string * Diag.pos) list
      ; body : stmt list
      ; apos : Diag.pos
      }

type module_ =
  { mname : string
  ; ports : string list
  ; items : item list
  ; mpos : Diag.pos
  }

let expr_pos = function
  | Number { npos; _ } -> npos
  | Id (_, p) | Index (_, _, p) | Slice (_, _, _, p) -> p
  | Unop (_, _, p) | Binop (_, _, _, p) | Concat (_, p) -> p
  | Cond { cpos; _ } -> cpos
