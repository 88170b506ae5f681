type trans_op =
  | Translate of int * int
  | Mirror_x
  | Mirror_y
  | Rotate of int * int

type command =
  | Def_start of int * int * int
  | Def_finish
  | Def_delete of int
  | Layer of string
  | Box of { length : int; width : int; cx : int; cy : int }
  | Polygon of (int * int) list
  | Wire of { width : int; points : (int * int) list }
  | Call of int * trans_op list
  | Comment of string
  | User of int * string
  | End

type file = command list

(* Decimal digits of [n <= 0], most significant first; working on the
   negative side keeps [min_int] exact. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let add_pair b x y =
  add_int b x;
  Buffer.add_char b ' ';
  add_int b y

let add_trans b = function
  | Translate (x, y) ->
    Buffer.add_string b "T ";
    add_pair b x y
  | Mirror_x -> Buffer.add_string b "M X"
  | Mirror_y -> Buffer.add_string b "M Y"
  | Rotate (x, y) ->
    Buffer.add_string b "R ";
    add_pair b x y

let add_points b pts =
  List.iter
    (fun (x, y) ->
      Buffer.add_char b ' ';
      add_pair b x y)
    pts

let add_command b cmd =
  (match cmd with
  | Def_start (n, a, d) ->
    Buffer.add_string b "DS ";
    add_int b n;
    Buffer.add_char b ' ';
    add_pair b a d;
    Buffer.add_char b ';'
  | Def_finish -> Buffer.add_string b "DF;"
  | Def_delete n ->
    Buffer.add_string b "DD ";
    add_int b n;
    Buffer.add_char b ';'
  | Layer l ->
    Buffer.add_string b "L ";
    Buffer.add_string b l;
    Buffer.add_char b ';'
  | Box x ->
    Buffer.add_string b "B ";
    add_pair b x.length x.width;
    Buffer.add_char b ' ';
    add_pair b x.cx x.cy;
    Buffer.add_char b ';'
  | Polygon pts ->
    Buffer.add_char b 'P';
    add_points b pts;
    Buffer.add_char b ';'
  | Wire w ->
    Buffer.add_string b "W ";
    add_int b w.width;
    add_points b w.points;
    Buffer.add_char b ';'
  | Call (n, ops) ->
    Buffer.add_string b "C ";
    add_int b n;
    List.iter
      (fun op ->
        Buffer.add_char b ' ';
        add_trans b op)
      ops;
    Buffer.add_char b ';'
  | Comment s ->
    Buffer.add_char b '(';
    Buffer.add_string b s;
    Buffer.add_string b ");"
  | User (d, s) ->
    add_int b d;
    if s <> "" then begin
      Buffer.add_char b ' ';
      Buffer.add_string b s
    end;
    Buffer.add_char b ';'
  | End -> Buffer.add_char b 'E');
  Buffer.add_char b '\n'
