open Sc_geom
open Sc_tech
open Sc_layout

(* Coordinates are doubled on output so that centres of odd-sized boxes stay
   integral; the DS scale is halved to compensate. *)
let scale_a = Rules.centimicrons_per_lambda / 2
let scale_b = 1

(* the orientation's CIF operations, in front of [rest] *)
let orient_ops (o : Transform.orient) rest =
  match o with
  | Transform.R0 -> rest
  | Transform.R90 -> Ast.Rotate (0, 1) :: rest
  | Transform.R180 -> Ast.Rotate (-1, 0) :: rest
  | Transform.R270 -> Ast.Rotate (0, -1) :: rest
  | Transform.MX -> Ast.Mirror_y :: rest
  | Transform.MY -> Ast.Mirror_x :: rest
  | Transform.MX90 -> Ast.Mirror_y :: Ast.Rotate (0, 1) :: rest
  | Transform.MY90 -> Ast.Mirror_x :: Ast.Rotate (0, 1) :: rest

let legal = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [Some (base, i)] when [text] is [base ^ o ^ i ^ c] for a run of
   digits [i]: a bus bit "base[i]" (['['] and [']']) or the
   "base_i_" it is written as (['_'] twice) *)
let bus o c text =
  let n = String.length text in
  match if n > 2 && text.[n - 1] = c then String.rindex_from_opt text (n - 2) o else None with
  | Some j
    when j < n - 2
         && String.for_all (fun d -> d >= '0' && d <= '9') (String.sub text (j + 1) (n - 2 - j))
    -> Some (String.sub text 0 j, String.sub text (j + 1) (n - 2 - j))
  | _ -> None

(* A name as CIF text, in one of three forms no text is in twice:
   - a bus bit "base[i]" of a legal base is "base_i_";
   - any other non-empty name of legal characters that does not end in
     "_<digits>_" stands for itself;
   - in every other name each byte but a letter, digit, '.' or '-' ('_'
     and '%' included) becomes '%' and two hex digits, and the empty
     name is a lone '%'.
   So the escape is injective and never empty, and {!unescape} undoes
   it. *)
let escape name =
  match bus '[' ']' name with
  | Some (base, i) when String.for_all legal base -> base ^ "_" ^ i ^ "_"
  | _ when name <> "" && String.for_all legal name && bus '_' '_' name = None -> name
  | _ when name = "" -> "%"
  | _ ->
    let b = Buffer.create (3 * String.length name) in
    String.iter
      (fun c ->
        if legal c && c <> '_' then Buffer.add_char b c
        else Printf.bprintf b "%%%02X" (Char.code c))
      name;
    Buffer.contents b

let unescape text =
  let n = String.length text in
  let hex k = if k < n then String.index_opt "0123456789ABCDEF" text.[k] else None in
  if text = "%" then ""
  else if String.contains text '%' then begin
    let b = Buffer.create n in
    let rec go i =
      if i < n then
        match (text.[i], hex (i + 1), hex (i + 2)) with
        | '%', Some h, Some l ->
          Buffer.add_char b (Char.chr ((16 * h) + l));
          go (i + 3)
        | c, _, _ ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go 0;
    Buffer.contents b
  end
  else match bus '_' '_' text with Some (base, i) -> base ^ "[" ^ i ^ "]" | None -> text

let box_command (r : Rect.t) =
  Ast.Box
    { length = 2 * Rect.width r
    ; width = 2 * Rect.height r
    ; cx = r.Rect.xmin + r.Rect.xmax
    ; cy = r.Rect.ymin + r.Rect.ymax
    }

(* A port label, "94 name x y layer" (user extension 9, subcommand 4: a
   point label) at the port's doubled centre. *)
let label (p : Cell.port) =
  let r = p.rect in
  Ast.User
    ( 9
    , String.concat " "
        [ "4"
        ; escape p.pname
        ; string_of_int (r.Rect.xmin + r.Rect.xmax)
        ; string_of_int (r.Rect.ymin + r.Rect.ymax)
        ; Layer.cif_name p.layer
        ] )

(* [symbol f number c numbering] feeds [f] the commands defining [c]:
   its name, its geometry grouped by layer (one L command per layer, in
   [Layer.all] order, each layer's boxes in element order), its own port
   labels and its instance calls.  In a promoting cell each call follows
   its instance's name ("91 name", Magic's convention): the elaborator
   rebuilds the promoted "<inst>.<port>" ports from those names and the
   called symbols' own labels, so no symbol repeats a port of another. *)
let symbol f number (c : Cell.t) numbering =
  f (Ast.Def_start (number, scale_a, scale_b));
  f (Ast.User (9, escape c.name));
  List.iter
    (fun layer ->
      let started = ref false in
      let box r =
        if not !started then begin
          started := true;
          f (Ast.Layer (Layer.cif_name layer))
        end;
        f (box_command r)
      in
      List.iter
        (function
          | Cell.Box (l, r) when Layer.equal l layer -> box r
          | Cell.Wire (l, p) when Layer.equal l layer -> List.iter box (Path.to_rects p)
          | Cell.Box _ | Cell.Wire _ -> ())
        c.elements)
    Layer.all;
  List.iter (fun p -> f (label p)) c.ports;
  List.iter
    (fun (i : Cell.inst) ->
      let shift = i.trans.Transform.shift in
      if c.promotes then f (Ast.User (9, "1 " ^ escape i.inst_name));
      f
        (Ast.Call
           ( Cell.Tbl.find numbering i.cell
           , orient_ops i.trans.Transform.orient
               [ Ast.Translate (2 * shift.Point.x, 2 * shift.Point.y) ] )))
    c.instances;
  f Ast.Def_finish

(* The one CIF generator: feeds [f] every command of [root]'s file in
   order, one symbol per distinct cell, then the root call. *)
let commands f root =
  let cells = Cell.all_cells root in
  let numbering = Cell.Tbl.create 64 in
  List.iteri (fun i c -> Cell.Tbl.add numbering c (i + 1)) cells;
  f (Ast.Comment "CIF 2.0 generated by the silicon compiler");
  List.iter (fun c -> symbol f (Cell.Tbl.find numbering c) c numbering) cells;
  f (Ast.Call (Cell.Tbl.find numbering root, []));
  f Ast.End

let file_of_cell root =
  let file = ref [] in
  commands (fun c -> file := c :: !file) root;
  List.rev !file

type emitted =
  { text : string
  ; commands : int
  ; rects : (string * int) list
  ; rects_total : int
  }

(* the per-layer counter names, built once *)
let rect_counters =
  List.map
    (fun l -> (Layer.cif_name l, "cif.rects." ^ Layer.cif_name l))
    Layer.all

let rect_counter l =
  try List.assoc l rect_counters with Not_found -> "cif.rects." ^ l

let replay_counters e =
  Sc_obs.Obs.count "cif.commands" e.commands;
  Sc_obs.Obs.count "cif.bytes" (String.length e.text);
  List.iter (fun (l, n) -> Sc_obs.Obs.count (rect_counter l) n) e.rects;
  Sc_obs.Obs.count "cif.rects" e.rects_total

(* One walk prints every command into one buffer and takes the census
   for the QoR snapshot: the command count and the boxes per layer,
   tracking the active layer exactly as a CIF consumer would. *)
let emit cell =
  Sc_obs.Obs.span "emit" @@ fun () ->
  let buf = Buffer.create 65536 in
  let count = ref 0 and current = ref "" in
  let per_layer = Hashtbl.create 8 in
  commands
    (fun c ->
      Ast.add_command buf c;
      incr count;
      match c with
      | Ast.Layer l -> current := l
      | Ast.Box _ ->
        Hashtbl.replace per_layer !current
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_layer !current))
      | _ -> ())
    cell;
  let rects =
    Hashtbl.fold (fun layer n acc -> (layer, n) :: acc) per_layer []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let e =
    { text = Buffer.contents buf
    ; commands = !count
    ; rects
    ; rects_total = List.fold_left (fun a (_, n) -> a + n) 0 rects
    }
  in
  replay_counters e;
  e

let to_string cell = (emit cell).text

let write path cell =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string cell))
