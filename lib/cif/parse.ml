module Diag = Sc_pipeline.Diag

(* a failure at a byte offset of the text; [parse] turns the offset
   into a line and column *)
exception Error of int * string

let fail at fmt = Format.kasprintf (fun s -> raise (Error (at, s))) fmt

(* A tiny cursor over the input string.  CIF separators are generous: any
   character that cannot start a token separates tokens, so the scanner
   mostly skips until it sees something meaningful.  [cmd] is the offset
   of the current command's first character, where an error about the
   command as a whole points. *)
type cursor =
  { text : string
  ; mutable pos : int
  ; mutable cmd : int
  }

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'

(* Comments nest and may appear between any two tokens; [start] is the
   offset of the outermost '('. *)
let rec skip_comment cur start depth =
  match peek cur with
  | None -> fail start "unterminated comment"
  | Some '(' ->
    advance cur;
    skip_comment cur start (depth + 1)
  | Some ')' ->
    advance cur;
    if depth > 1 then skip_comment cur start (depth - 1)
  | Some _ ->
    advance cur;
    skip_comment cur start depth

let rec skip_separators cur =
  match peek cur with
  | Some c when (not (is_digit c)) && (not (is_upper c)) && c <> '-' && c <> '(' && c <> ';' ->
    advance cur;
    skip_separators cur
  | Some '(' ->
    let start = cur.pos in
    advance cur;
    skip_comment cur start 1;
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
  if cur.pos = start then fail start "expected integer";
  let digits = String.sub cur.text start (cur.pos - start) in
  match int_of_string_opt digits with
  | Some v -> if neg then -v else v
  | None -> fail start "integer %s out of range" digits

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
  | Some c -> fail cur.pos "expected ';', found %c" c
  | None -> fail cur.pos "expected ';', found end of input"

let read_ints_until_semi cur =
  let rec loop acc =
    match read_int_opt cur with
    | Some v -> loop (v :: acc)
    | None -> List.rev acc
  in
  let vs = loop [] in
  expect_semi cur;
  vs

let pair_up cur cmd vs =
  let rec go = function
    | x :: y :: rest -> (x, y) :: go rest
    | [] -> []
    | [ _ ] -> fail cur.cmd "%s: odd number of coordinates" cmd
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
    | None -> fail cur.cmd "unterminated command"
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
  if cur.pos = start then fail start "L: missing layer name";
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
      | _ -> fail cur.pos "M must be followed by X or Y")
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
  cur.cmd <- cur.pos;
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
    | _ -> fail cur.pos "D must be followed by S, F or D")
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
      else fail cur.cmd "B: non-Manhattan box direction %d %d" dx dy
    | vs -> fail cur.cmd "B: expected 4 or 6 integers, got %d" (List.length vs))
  | Some 'P' ->
    advance cur;
    Some (Ast.Polygon (pair_up cur "P" (read_ints_until_semi cur)))
  | Some 'W' ->
    advance cur;
    (match read_ints_until_semi cur with
    | w :: rest -> Some (Ast.Wire { width = w; points = pair_up cur "W" rest })
    | [] -> fail cur.cmd "W: missing width")
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
  | Some c -> fail cur.pos "unexpected character %c" c

and parse_command_again cur = parse_command cur

(* the line and column of a byte offset, counted only when parsing fails *)
let position text off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min off (String.length text) - 1 do
    if text.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { Diag.line = !line; col = off - !bol + 1 }

let parse text =
  let cur = { text; pos = 0; cmd = 0 } in
  let rec loop acc =
    match parse_command cur with
    | Some (Ast.End as cmd) -> List.rev (cmd :: acc)
    | Some cmd -> loop (cmd :: acc)
    | None -> List.rev acc
  in
  match loop [] with
  | file -> Ok file
  | exception Error (off, msg) ->
    Error (Diag.located (Diag.v ~loc:(position text off) ~stage:"cif" msg))
