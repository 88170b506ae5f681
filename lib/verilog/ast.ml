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

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Shl -> "<<"
  | Shr -> ">>"

let rec pp_expr ppf = function
  | Number { value; width = Some w; _ } -> Format.fprintf ppf "%d'd%d" w value
  | Number { value; width = None; _ } -> Format.fprintf ppf "%d" value
  | Id (n, _) -> Format.pp_print_string ppf n
  | Index (n, i, _) -> Format.fprintf ppf "%s[%d]" n i
  | Slice (n, h, l, _) -> Format.fprintf ppf "%s[%d:%d]" n h l
  | Unop (Bnot, e, _) -> Format.fprintf ppf "~%a" pp_atom e
  | Binop (op, a, b, _) ->
    Format.fprintf ppf "%a %s %a" pp_atom a (binop_to_string op) pp_atom b
  | Cond { cond; t; f; _ } ->
    Format.fprintf ppf "%a ? %a : %a" pp_atom cond pp_atom t pp_atom f
  | Concat (parts, _) ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      parts

and pp_atom ppf e =
  match e with
  | Number _ | Id _ | Index _ | Slice _ | Concat _ -> pp_expr ppf e
  | _ -> Format.fprintf ppf "(%a)" pp_expr e
