module Diag = Sc_pipeline.Diag

type token =
  | Id of string
  | Number of { value : int; width : int option }
  | Sym of string
  | Eof

type lexeme =
  { tok : token
  ; pos : Diag.pos
  }

let token_to_string = function
  | Id i -> Printf.sprintf "identifier '%s'" i
  | Number { value; width = Some w } -> Printf.sprintf "number %d'd%d" w value
  | Number { value; width = None } -> Printf.sprintf "number %d" value
  | Sym s -> Printf.sprintf "'%s'" s
  | Eof -> "end of input"

let fail loc fmt = Diag.failf ~loc ~stage:"verilog.parse" fmt

(* literal widths share sc_rtl's 1..30 ceiling: the interpreter and the
   synthesizer both hold buses in OCaml ints *)
let max_width = 30

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_id_char c = is_id_start c || (c >= '0' && c <= '9') || c = '$'

let is_dec c = c >= '0' && c <= '9'

let digit_value c =
  if c >= '0' && c <= '9' then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then 10 + Char.code c - Char.code 'a'
  else if c >= 'A' && c <= 'F' then 10 + Char.code c - Char.code 'A'
  else -1

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let pos = ref 0 in
  let line = ref 1 in
  let bol = ref 0 (* offset of the current line's first character *) in
  let here () = { Diag.line = !line; col = !pos - !bol + 1 } in
  let advance () =
    (if !pos < n && text.[!pos] = '\n' then begin
       incr line;
       bol := !pos + 1
     end);
    incr pos
  in
  let peek k = if !pos + k < n then Some text.[!pos + k] else None in
  let emit p t = tokens := { tok = t; pos = p } :: !tokens in
  (* digits of [base] starting at !pos, underscores skipped; returns the
     value, failing on overflow past 2^max_width or on an empty run *)
  let scan_digits p base what =
    let start = !pos in
    let value = ref 0 in
    let digits = ref 0 in
    let continue = ref true in
    while !continue do
      match peek 0 with
      | Some '_' when !digits > 0 -> advance ()
      | Some c when digit_value c >= 0 && digit_value c < base ->
        value := (!value * base) + digit_value c;
        incr digits;
        if !value >= 1 lsl max_width then
          fail p "%s too large (buses are at most %d bits)" what max_width;
        advance ()
      | _ -> continue := false
    done;
    if !digits = 0 then fail { p with col = start - !bol + 1 } "missing digits in %s" what;
    !value
  in
  (* 'd12, 'b1010, 'hff, 'o17 — the part after the optional size *)
  let scan_based p width =
    advance () (* the quote *);
    let base =
      match peek 0 with
      | Some ('d' | 'D') -> 10
      | Some ('b' | 'B') -> 2
      | Some ('h' | 'H') -> 16
      | Some ('o' | 'O') -> 8
      | Some c -> fail (here ()) "unknown literal base '%c' (expected d, b, h or o)" c
      | None -> fail (here ()) "unexpected end of input in literal"
    in
    advance ();
    let value = scan_digits p base "literal" in
    (match width with
    | Some w when value >= 1 lsl w ->
      fail p "literal value %d does not fit in %d bits" value w
    | _ -> ());
    emit p (Number { value; width })
  in
  while !pos < n do
    let c = text.[!pos] in
    let p = here () in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !pos < n && text.[!pos] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = Some '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !pos < n do
        if text.[!pos] = '*' && peek 1 = Some '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then fail p "unterminated block comment"
    end
    else if is_id_start c || c = '$' then begin
      let start = !pos in
      advance ();
      while (match peek 0 with Some c' -> is_id_char c' | None -> false) do
        advance ()
      done;
      emit p (Id (String.sub text start (!pos - start)))
    end
    else if is_dec c then begin
      let value = scan_digits p 10 "constant" in
      match peek 0 with
      | Some '\'' ->
        if value < 1 || value > max_width then
          fail p "literal width %d out of range 1..%d" value max_width;
        scan_based p (Some value)
      | _ -> emit p (Number { value; width = None })
    end
    else if c = '\'' then scan_based p None
    else begin
      let two = if !pos + 1 < n then String.sub text !pos 2 else "" in
      match two with
      | "<=" | ">=" | "==" | "!=" | "<<" | ">>" | "&&" | "||" ->
        emit p (Sym two);
        advance ();
        advance ()
      | _ -> (
        match c with
        | ';' | ',' | ':' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '=' | '<'
        | '>' | '+' | '-' | '&' | '|' | '^' | '~' | '@' | '#' | '*' | '/' | '!'
        | '%' | '.' ->
          emit p (Sym (String.make 1 c));
          advance ()
        | _ -> fail p "unexpected character %C" c)
    end
  done;
  emit (here ()) Eof;
  List.rev !tokens
