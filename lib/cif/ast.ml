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

let check file =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let in_def = ref None in
  let ended = ref false in
  let defined = Hashtbl.create 16 in
  List.iter
    (fun cmd ->
      if !ended then err "command after E";
      match cmd with
      | Def_start (n, _, b) ->
        if b = 0 then err "DS %d: zero scale denominator" n;
        (match !in_def with
        | Some m -> err "DS %d nested inside DS %d" n m
        | None -> in_def := Some n);
        if Hashtbl.mem defined n then err "symbol %d defined twice" n;
        Hashtbl.replace defined n ()
      | Def_finish -> (
        match !in_def with
        | Some _ -> in_def := None
        | None -> err "DF without matching DS")
      | Def_delete _ -> ()
      | Layer _ | Box _ | Polygon _ | Wire _ ->
        if !in_def = None then err "geometry outside a symbol definition"
      | Call (n, _) ->
        if (not (Hashtbl.mem defined n)) && !in_def = None then
          err "call of undefined symbol %d" n
      | Comment _ | User _ -> ()
      | End ->
        if !in_def <> None then err "E inside a symbol definition";
        ended := true)
    file;
  if not !ended then err "missing E command";
  (match !in_def with Some n -> err "unterminated DS %d" n | None -> ());
  List.rev !errs

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

let to_string file =
  let b = Buffer.create 4096 in
  List.iter (add_command b) file;
  Buffer.contents b
