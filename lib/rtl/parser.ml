type token =
  | Tident of string
  | Tint of int
  | Tsym of string  (** punctuation and operators, as written *)
  | Teof

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let keywords =
  [ "module"; "inputs"; "outputs"; "registers"; "wires"; "behavior"; "if"
  ; "then"; "else"; "end"; "decode"; "default"
  ]

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let emit t = tokens := t :: !tokens in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while !pos < n do
    let c = text.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && !pos + 1 < n && text.[!pos + 1] = '-' then begin
      (* comment to end of line *)
      while !pos < n && text.[!pos] <> '\n' do
        incr pos
      done
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !pos in
      while !pos < n && is_ident_char text.[!pos] do
        incr pos
      done;
      emit (Tident (String.sub text start (!pos - start)))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !pos in
      incr pos;
      let base, digits_start =
        if c = '0' && !pos < n && (text.[!pos] = 'x' || text.[!pos] = 'b') then begin
          let b = if text.[!pos] = 'x' then 16 else 2 in
          incr pos;
          (b, !pos)
        end
        else (10, start)
      in
      let is_digit ch =
        match base with
        | 16 ->
          (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')
          || (ch >= 'A' && ch <= 'F')
        | 2 -> ch = '0' || ch = '1'
        | _ -> ch >= '0' && ch <= '9'
      in
      while !pos < n && is_digit text.[!pos] do
        incr pos
      done;
      let digits = String.sub text digits_start (!pos - digits_start) in
      let value =
        match base with
        | 16 -> int_of_string ("0x" ^ digits)
        | 2 -> int_of_string ("0b" ^ digits)
        | _ -> int_of_string digits
      in
      emit (Tint value)
    end
    else begin
      let two =
        if !pos + 1 < n then String.sub text !pos 2 else ""
      in
      match two with
      | ":=" | "==" | "!=" | "<<" | ">>" ->
        emit (Tsym two);
        pos := !pos + 2
      | _ -> (
        match c with
        | ';' | ',' | ':' | '<' | '>' | '+' | '-' | '&' | '^' | '|' | '~'
        | '(' | ')' | '[' | ']' ->
          emit (Tsym (String.make 1 c));
          incr pos
        | _ -> fail "unexpected character %C" c)
    end;
    ignore (peek ())
  done;
  emit Teof;
  List.rev !tokens

type state = { mutable toks : token list }

let peek st = match st.toks with t :: _ -> t | [] -> Teof

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect_sym st s =
  match peek st with
  | Tsym s' when s = s' -> advance st
  | t ->
    fail "expected %S, found %s" s
      (match t with
      | Tident i -> i
      | Tint v -> string_of_int v
      | Tsym s -> s
      | Teof -> "end of input")

let expect_kw st kw =
  match peek st with
  | Tident i when i = kw -> advance st
  | _ -> fail "expected keyword %S" kw

let expect_ident st =
  match peek st with
  | Tident i when not (List.mem i keywords) ->
    advance st;
    i
  | Tident i -> fail "unexpected keyword %S" i
  | _ -> fail "expected identifier"

let expect_int st =
  match peek st with
  | Tint v ->
    advance st;
    v
  | _ -> fail "expected integer"

(* expressions, loosest first: | ^ & cmp shift add unary atom *)
let rec parse_or st =
  let a = parse_xor st in
  match peek st with
  | Tsym "|" ->
    advance st;
    Ast.Binop (Ast.Or, a, parse_or st)
  | _ -> a

and parse_xor st =
  let a = parse_and st in
  match peek st with
  | Tsym "^" ->
    advance st;
    Ast.Binop (Ast.Xor, a, parse_xor st)
  | _ -> a

and parse_and st =
  let a = parse_cmp st in
  match peek st with
  | Tsym "&" ->
    advance st;
    Ast.Binop (Ast.And, a, parse_and st)
  | _ -> a

and parse_cmp st =
  let a = parse_shift st in
  match peek st with
  | Tsym "==" ->
    advance st;
    Ast.Binop (Ast.Eq, a, parse_shift st)
  | Tsym "!=" ->
    advance st;
    Ast.Binop (Ast.Ne, a, parse_shift st)
  | Tsym "<" ->
    advance st;
    Ast.Binop (Ast.Lt, a, parse_shift st)
  | Tsym ">" ->
    advance st;
    Ast.Binop (Ast.Gt, a, parse_shift st)
  | _ -> a

and parse_shift st =
  let a = parse_add st in
  match peek st with
  | Tsym "<<" ->
    advance st;
    Ast.Binop (Ast.Shl, a, parse_add st)
  | Tsym ">>" ->
    advance st;
    Ast.Binop (Ast.Shr, a, parse_add st)
  | _ -> a

and parse_add st =
  let rec loop a =
    match peek st with
    | Tsym "+" ->
      advance st;
      loop (Ast.Binop (Ast.Add, a, parse_unary st))
    | Tsym "-" ->
      advance st;
      loop (Ast.Binop (Ast.Sub, a, parse_unary st))
    | _ -> a
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Tsym "~" ->
    advance st;
    Ast.Unop (Ast.Not, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | Tint v ->
    advance st;
    Ast.Const v
  | Tsym "(" ->
    advance st;
    let e = parse_or st in
    expect_sym st ")";
    e
  | Tident i when not (List.mem i keywords) ->
    advance st;
    (match peek st with
    | Tsym "[" ->
      advance st;
      let b = expect_int st in
      expect_sym st "]";
      Ast.Bit (i, b)
    | _ -> Ast.Ref i)
  | _ -> fail "expected expression"

let starts_stmt = function
  | Tident i -> not (List.mem i keywords) || i = "if" || i = "decode"
  | _ -> false

let rec parse_stmt st =
  match peek st with
  | Tident "if" ->
    advance st;
    let c = parse_or st in
    expect_kw st "then";
    let t = parse_stmts st in
    let e =
      match peek st with
      | Tident "else" ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    expect_kw st "end";
    Ast.If (c, t, e)
  | Tident "decode" ->
    advance st;
    let scrutinee = parse_or st in
    let cases = ref [] in
    let dflt = ref [] in
    let rec cases_loop () =
      match peek st with
      | Tint v ->
        advance st;
        expect_sym st ":";
        cases := (v, parse_stmts st) :: !cases;
        cases_loop ()
      | Tident "default" ->
        advance st;
        expect_sym st ":";
        dflt := parse_stmts st;
        cases_loop ()
      | _ -> ()
    in
    cases_loop ();
    expect_kw st "end";
    Ast.Decode (scrutinee, List.rev !cases, !dflt)
  | _ ->
    let target = expect_ident st in
    expect_sym st ":=";
    let e = parse_or st in
    expect_sym st ";";
    Ast.Assign (target, e)

and parse_stmts st =
  let acc = ref [] in
  while starts_stmt (peek st) do
    acc := parse_stmt st :: !acc
  done;
  List.rev !acc

let parse_decls st =
  let rec loop acc =
    let name = expect_ident st in
    expect_sym st "[";
    let w = expect_int st in
    expect_sym st "]";
    let acc = { Ast.dname = name; width = w } :: acc in
    match peek st with
    | Tsym "," ->
      advance st;
      loop acc
    | _ ->
      expect_sym st ";";
      List.rev acc
  in
  loop []

let parse_design st =
  expect_kw st "module";
  let name = expect_ident st in
  expect_sym st ";";
  let inputs = ref [] and outputs = ref [] and regs = ref [] in
  let wires = ref [] in
  let rec sections () =
    match peek st with
    | Tident "inputs" ->
      advance st;
      inputs := !inputs @ parse_decls st;
      sections ()
    | Tident "outputs" ->
      advance st;
      outputs := !outputs @ parse_decls st;
      sections ()
    | Tident "registers" ->
      advance st;
      regs := !regs @ parse_decls st;
      sections ()
    | Tident "wires" ->
      advance st;
      wires := !wires @ parse_decls st;
      sections ()
    | _ -> ()
  in
  sections ();
  expect_kw st "behavior";
  let body = parse_stmts st in
  expect_kw st "end";
  (match peek st with
  | Teof -> ()
  | _ -> fail "trailing input after final end");
  { Ast.name
  ; inputs = !inputs
  ; outputs = !outputs
  ; regs = !regs
  ; wires = !wires
  ; body
  }

let parse text =
  match parse_design { toks = tokenize text } with
  | d -> Ok d
  | exception Error msg -> Error msg

let parse_expr text =
  let st = { toks = tokenize text } in
  match
    let e = parse_or st in
    match peek st with Teof -> e | _ -> fail "trailing input"
  with
  | e -> Ok e
  | exception Error msg -> Error msg
