open Lexer

let keywords =
  [ "module"; "inputs"; "outputs"; "registers"; "wires"; "behavior"; "if"
  ; "then"; "else"; "end"; "decode"; "default"
  ]

(* A precedence level: operands parsed by [next], joined by the
   operators [ops] maps their symbols to.  [right] nests to the right,
   [once] takes at most one operator, [left] folds to the left. *)
let operator st ops =
  match peek st with
  | Sym s -> (
    match ops s with
    | Some _ as op ->
      advance st;
      op
    | None -> None)
  | _ -> None

let rec right next ops st =
  let a = next st in
  match operator st ops with
  | Some op -> Ast.Binop (op, a, right next ops st)
  | None -> a

let once next ops st =
  let a = next st in
  match operator st ops with Some op -> Ast.Binop (op, a, next st) | None -> a

let left next ops st =
  let rec loop a =
    match operator st ops with
    | Some op -> loop (Ast.Binop (op, a, next st))
    | None -> a
  in
  loop (next st)

(* expressions, loosest first: | ^ & cmp shift add unary atom *)
let rec parse_or st =
  right parse_xor (function "|" -> Some Ast.Or | _ -> None) st

and parse_xor st =
  right parse_and (function "^" -> Some Ast.Xor | _ -> None) st

and parse_and st =
  right parse_cmp (function "&" -> Some Ast.And | _ -> None) st

and parse_cmp st =
  once parse_shift
    (function
      | "==" -> Some Ast.Eq
      | "!=" -> Some Ast.Ne
      | "<" -> Some Ast.Lt
      | ">" -> Some Ast.Gt
      | _ -> None)
    st

and parse_shift st =
  once parse_add
    (function "<<" -> Some Ast.Shl | ">>" -> Some Ast.Shr | _ -> None)
    st

and parse_add st =
  left parse_unary
    (function "+" -> Some Ast.Add | "-" -> Some Ast.Sub | _ -> None)
    st

and parse_unary st =
  if accept st (Sym "~") then Ast.Unop (Ast.Not, parse_unary st)
  else parse_atom st

and parse_atom st =
  match peek st with
  | Int v ->
    advance st;
    Ast.Const v
  | Sym "(" ->
    advance st;
    let e = parse_or st in
    expect_sym st ")";
    e
  | Ident i when not (List.mem i keywords) ->
    advance st;
    if accept st (Sym "[") then begin
      let b = expect_int st in
      expect_sym st "]";
      Ast.Bit (i, b)
    end
    else Ast.Ref i
  | t -> fail st "expected an expression, found %s" (describe t)

let rec parse_stmt st =
  match peek st with
  | Ident "if" ->
    advance st;
    let c = parse_or st in
    expect_kw st "then";
    let t = parse_stmts st in
    let e = if accept st (Ident "else") then parse_stmts st else [] in
    expect_kw st "end";
    Ast.If (c, t, e)
  | Ident "decode" ->
    advance st;
    let scrutinee = parse_or st in
    let rec cases acc dflt =
      match peek st with
      | Int v ->
        advance st;
        expect_sym st ":";
        cases ((v, parse_stmts st) :: acc) dflt
      | Ident "default" ->
        advance st;
        expect_sym st ":";
        cases acc (parse_stmts st)
      | _ -> Ast.Decode (scrutinee, List.rev acc, dflt)
    in
    let d = cases [] [] in
    expect_kw st "end";
    d
  | _ ->
    let target = expect_ident st keywords in
    expect_sym st ":=";
    let e = parse_or st in
    expect_sym st ";";
    Ast.Assign (target, e)

and parse_stmts st =
  match peek st with
  | Ident i when not (List.mem i keywords) || i = "if" || i = "decode" ->
    let s = parse_stmt st in
    s :: parse_stmts st
  | _ -> []

let parse_decls st =
  let rec loop acc =
    let name = expect_ident st keywords in
    expect_sym st "[";
    let w = expect_int st in
    expect_sym st "]";
    let acc = { Ast.dname = name; width = w } :: acc in
    if accept st (Sym ",") then loop acc
    else begin
      expect_sym st ";";
      List.rev acc
    end
  in
  loop []

let parse_design st =
  expect_kw st "module";
  let name = expect_ident st keywords in
  expect_sym st ";";
  (* declaration sections, each repeatable, in any order *)
  let sections =
    List.map (fun s -> (s, ref [])) [ "inputs"; "outputs"; "registers"; "wires" ]
  in
  let rec decls () =
    match peek st with
    | Ident s when List.mem_assoc s sections ->
      advance st;
      let r = List.assoc s sections in
      r := !r @ parse_decls st;
      decls ()
    | _ -> ()
  in
  decls ();
  let declared s = !(List.assoc s sections) in
  expect_kw st "behavior";
  let body = parse_stmts st in
  expect_kw st "end";
  if peek st <> Eof then fail st "trailing input after final end";
  { Ast.name
  ; inputs = declared "inputs"
  ; outputs = declared "outputs"
  ; regs = declared "registers"
  ; wires = declared "wires"
  ; body
  }

module Diag = Sc_pipeline.Diag

let syntax text =
  match parse_design (create text) with
  | d -> Ok d
  | exception Error (loc, msg) -> Error (Diag.v ~loc ~stage:"parse" msg)

let parse text = Result.map_error Diag.located (syntax text)

let design text =
  Result.bind (syntax text) (fun d ->
      match Check.check d with
      | [] -> Ok d
      | e :: _ -> Error (Diag.v ~stage:"parse" ("check: " ^ e)))
