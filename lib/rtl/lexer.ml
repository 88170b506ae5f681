module Diag = Sc_pipeline.Diag

type token =
  | Ident of string
  | Int of int
  | Sym of string
  | Eof

type lexeme =
  { tok : token
  ; pos : Diag.pos
  }

exception Error of Diag.pos * string

let describe = function
  | Ident i -> i
  | Int v -> string_of_int v
  | Sym s -> s
  | Eof -> "end of input"

type t =
  { text : string
  ; mutable i : int  (* the first character not yet scanned *)
  ; mutable line : int
  ; mutable bol : int  (* offset of the current line's first character *)
  ; mutable cur : lexeme
  }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_bin c = c = '0' || c = '1'

(* one-character symbols; the two-character ones are matched first *)
let symbols = ";,:<>+-&^|~()[]{}=*/%."

let is_symbol2 a b =
  match (a, b) with
  | (':' | '=' | '!' | '<' | '>'), '=' | '<', '<' | '>', '>' -> true
  | _ -> false

(* move [st.i] past blanks and comments *)
let rec skip st =
  let text = st.text and n = String.length st.text in
  if st.i < n then
    match text.[st.i] with
    | '\n' ->
      st.i <- st.i + 1;
      st.line <- st.line + 1;
      st.bol <- st.i;
      skip st
    | ' ' | '\t' | '\r' ->
      st.i <- st.i + 1;
      skip st
    | '-' when st.i + 1 < n && text.[st.i + 1] = '-' ->
      while st.i < n && text.[st.i] <> '\n' do
        st.i <- st.i + 1
      done;
      skip st
    | _ -> ()

let take st ok =
  while st.i < String.length st.text && ok st.text.[st.i] do
    st.i <- st.i + 1
  done

let error pos fmt = Format.kasprintf (fun s -> raise (Error (pos, s))) fmt

(* the lexeme starting at or after [st.i] *)
let scan st =
  skip st;
  let text = st.text and n = String.length st.text in
  let start = st.i in
  let pos = { Diag.line = st.line; col = start - st.bol + 1 } in
  let tok =
    if start = n then Eof
    else
      let c = text.[start] in
      let next = if start + 1 < n then text.[start + 1] else ' ' in
      if is_ident_start c then begin
        take st is_ident_char;
        Ident (String.sub text start (st.i - start))
      end
      else if is_digit c then begin
        (match (c, next) with
        | '0', 'x' ->
          st.i <- start + 2;
          take st is_hex
        | '0', 'b' ->
          st.i <- start + 2;
          take st is_bin
        | _ -> take st is_digit);
        let literal = String.sub text start (st.i - start) in
        if literal = "0x" || literal = "0b" then
          error pos "literal %s has no digits" literal;
        (* int_of_string reads the 0x/0b prefixes as written here *)
        match int_of_string_opt literal with
        | Some v -> Int v
        | None -> error pos "literal %s does not fit in an integer" literal
      end
      else if is_symbol2 c next then begin
        st.i <- start + 2;
        Sym (String.sub text start 2)
      end
      else if String.contains symbols c then begin
        st.i <- start + 1;
        Sym (String.make 1 c)
      end
      else error pos "unexpected character %C" c
  in
  { tok; pos }

let create text =
  let cur = { tok = Eof; pos = { Diag.line = 1; col = 1 } } in
  let st = { text; i = 0; line = 1; bol = 0; cur } in
  st.cur <- scan st;
  st

let peek st = st.cur.tok
let pos st = st.cur.pos
let advance st = if st.cur.tok <> Eof then st.cur <- scan st

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let tokenize text =
  match
    let st = create text in
    let rec all acc =
      let l = st.cur in
      if l.tok = Eof then List.rev (l :: acc) else (advance st; all (l :: acc))
    in
    all []
  with
  | lexemes -> Ok lexemes
  | exception Error (p, msg) -> Error (p, msg)

let fail st fmt = error st.cur.pos fmt

let expect st tok =
  if not (accept st tok) then
    fail st "expected %S, found %s" (describe tok) (describe (peek st))

let expect_sym st s = expect st (Sym s)
let expect_kw st kw = expect st (Ident kw)

let expect_ident st reserved =
  match peek st with
  | Ident i when not (List.mem i reserved) ->
    advance st;
    i
  | Ident i -> fail st "unexpected keyword %S" i
  | t -> fail st "expected an identifier, found %s" (describe t)

let expect_int st =
  match peek st with
  | Int v ->
    advance st;
    v
  | t -> fail st "expected an integer, found %s" (describe t)
