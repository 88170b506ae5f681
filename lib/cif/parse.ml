exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* A tiny cursor over the input string.  CIF separators are generous: any
   character that cannot start a token separates tokens, so the scanner
   mostly skips until it sees something meaningful. *)
type cursor = { text : string; mutable pos : int }

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'

(* Comments nest and may appear between any two tokens. *)
let rec skip_comment cur depth =
  match peek cur with
  | None -> fail "unterminated comment"
  | Some '(' ->
    advance cur;
    skip_comment cur (depth + 1)
  | Some ')' ->
    advance cur;
    if depth > 1 then skip_comment cur (depth - 1)
  | Some _ ->
    advance cur;
    skip_comment cur depth

let rec skip_separators cur =
  match peek cur with
  | Some c when (not (is_digit c)) && (not (is_upper c)) && c <> '-' && c <> '(' && c <> ';' ->
    advance cur;
    skip_separators cur
  | Some '(' ->
    advance cur;
    skip_comment cur 1;
    skip_separators cur
  | _ -> ()

let read_int cur =
  skip_separators cur;
  let neg =
    match peek cur with
    | Some '-' ->
      advance cur;
      true
    | _ -> false
  in
  let start = cur.pos in
  let rec loop () =
    match peek cur with
    | Some c when is_digit c ->
      advance cur;
      loop ()
    | _ -> ()
  in
  loop ();
  if cur.pos = start then fail "expected integer at position %d" start;
  let v = int_of_string (String.sub cur.text start (cur.pos - start)) in
  if neg then -v else v

let read_int_opt cur =
  skip_separators cur;
  match peek cur with
  | Some c when is_digit c || c = '-' -> Some (read_int cur)
  | _ -> None

(* Semicolon terminates every command. *)
let expect_semi cur =
  skip_separators cur;
  match peek cur with
  | Some ';' -> advance cur
  | Some c -> fail "expected ';', found %c at %d" c cur.pos
  | None -> fail "expected ';', found end of input"

let read_ints_until_semi cur =
  let rec loop acc =
    match read_int_opt cur with
    | Some v -> loop (v :: acc)
    | None -> List.rev acc
  in
  let vs = loop [] in
  expect_semi cur;
  vs

let pair_up cmd vs =
  let rec go = function
    | x :: y :: rest -> (x, y) :: go rest
    | [] -> []
    | [ _ ] -> fail "%s: odd number of coordinates" cmd
  in
  go vs

(* Layer names and user-extension text run to the semicolon. *)
let read_until_semi cur =
  let start = cur.pos in
  let rec loop () =
    match peek cur with
    | Some ';' -> ()
    | Some _ ->
      advance cur;
      loop ()
    | None -> fail "unterminated command"
  in
  loop ();
  let s = String.sub cur.text start (cur.pos - start) in
  advance cur;
  String.trim s

let read_layer_name cur =
  skip_separators cur;
  let start = cur.pos in
  let rec loop () =
    match peek cur with
    | Some c when is_upper c || is_digit c ->
      advance cur;
      loop ()
    | _ -> ()
  in
  loop ();
  if cur.pos = start then fail "L: missing layer name";
  let name = String.sub cur.text start (cur.pos - start) in
  expect_semi cur;
  name

let read_trans_ops cur =
  let rec loop acc =
    skip_separators cur;
    match peek cur with
    | Some 'T' ->
      advance cur;
      let x = read_int cur in
      let y = read_int cur in
      loop (Ast.Translate (x, y) :: acc)
    | Some 'M' ->
      advance cur;
      skip_separators cur;
      (match peek cur with
      | Some 'X' ->
        advance cur;
        loop (Ast.Mirror_x :: acc)
      | Some 'Y' ->
        advance cur;
        loop (Ast.Mirror_y :: acc)
      | _ -> fail "M must be followed by X or Y")
    | Some 'R' ->
      advance cur;
      let a = read_int cur in
      let b = read_int cur in
      loop (Ast.Rotate (a, b) :: acc)
    | _ -> List.rev acc
  in
  let ops = loop [] in
  expect_semi cur;
  ops

let rec parse_command cur : Ast.command option =
  skip_separators cur;
  match peek cur with
  | None -> None
  | Some ';' ->
    (* blank command *)
    advance cur;
    parse_command_again cur
  | Some 'D' ->
    advance cur;
    skip_separators cur;
    (match peek cur with
    | Some 'S' ->
      advance cur;
      let n = read_int cur in
      let a = match read_int_opt cur with Some v -> v | None -> 1 in
      let b = match read_int_opt cur with Some v -> v | None -> 1 in
      expect_semi cur;
      Some (Ast.Def_start (n, a, b))
    | Some 'F' ->
      advance cur;
      expect_semi cur;
      Some Ast.Def_finish
    | Some 'D' ->
      advance cur;
      let n = read_int cur in
      expect_semi cur;
      Some (Ast.Def_delete n)
    | _ -> fail "D must be followed by S, F or D")
  | Some 'L' ->
    advance cur;
    Some (Ast.Layer (read_layer_name cur))
  | Some 'B' ->
    advance cur;
    (match read_ints_until_semi cur with
    | [ l; w; cx; cy ] -> Some (Ast.Box { length = l; width = w; cx; cy })
    | [ l; w; cx; cy; dx; dy ] ->
      (* Only axis-parallel directions are representable in our geometry. *)
      if dy = 0 && dx <> 0 then Some (Ast.Box { length = l; width = w; cx; cy })
      else if dx = 0 && dy <> 0 then
        Some (Ast.Box { length = w; width = l; cx; cy })
      else fail "B: non-Manhattan box direction %d %d" dx dy
    | vs -> fail "B: expected 4 or 6 integers, got %d" (List.length vs))
  | Some 'P' ->
    advance cur;
    Some (Ast.Polygon (pair_up "P" (read_ints_until_semi cur)))
  | Some 'W' ->
    advance cur;
    (match read_ints_until_semi cur with
    | w :: rest -> Some (Ast.Wire { width = w; points = pair_up "W" rest })
    | [] -> fail "W: missing width")
  | Some 'C' ->
    advance cur;
    let n = read_int cur in
    Some (Ast.Call (n, read_trans_ops cur))
  | Some 'E' ->
    advance cur;
    Some Ast.End
  | Some c when is_digit c ->
    advance cur;
    Some (Ast.User (Char.code c - Char.code '0', read_until_semi cur))
  | Some c -> fail "unexpected character %c at %d" c cur.pos

and parse_command_again cur = parse_command cur

let parse text =
  let cur = { text; pos = 0 } in
  let rec loop acc =
    match parse_command cur with
    | Some (Ast.End as cmd) -> List.rev (cmd :: acc)
    | Some cmd -> loop (cmd :: acc)
    | None -> List.rev acc
  in
  match loop [] with
  | file -> Ok file
  | exception Error msg -> Error msg
