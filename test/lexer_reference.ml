(* The ISP tokenizer as it was before the ISP, layout-language and
   chip-block frontends shared one lexer (Sc_rtl.Lexer): no positions,
   ISP's own symbol set, and int_of_string's Failure escaping on a
   malformed or oversized literal.  Kept verbatim as the oracle of the
   lexer-reference property in test_rtl.ml. *)

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
