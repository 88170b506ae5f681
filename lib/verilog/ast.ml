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
  | Number of { value : int; width : int option; npos : Lexer.pos }
  | Id of string * Lexer.pos
  | Index of string * int * Lexer.pos
  | Slice of string * int * int * Lexer.pos
  | Unop of unop * expr * Lexer.pos
  | Binop of binop * expr * expr * Lexer.pos
  | Cond of { cond : expr; t : expr; f : expr; cpos : Lexer.pos }
  | Concat of expr list * Lexer.pos

type stmt =
  | Nonblocking of { target : string; rhs : expr; spos : Lexer.pos }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list; spos : Lexer.pos }
  | Case of
      { scrutinee : expr
      ; arms : (expr * stmt list) list
      ; default : stmt list
      ; spos : Lexer.pos
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
  ; dpos : Lexer.pos
  }

type item =
  | Decl of decl
  | Assign of { lhs : string; rhs : expr; apos : Lexer.pos }
  | Always of
      { edges : (string * Lexer.pos) list
      ; body : stmt list
      ; apos : Lexer.pos
      }

type module_ =
  { mname : string
  ; ports : string list
  ; items : item list
  ; mpos : Lexer.pos
  }

let expr_pos = function
  | Number { npos; _ } -> npos
  | Id (_, p) | Index (_, _, p) | Slice (_, _, _, p) -> p
  | Unop (_, _, p) | Binop (_, _, _, p) | Concat (_, p) -> p
  | Cond { cpos; _ } -> cpos
