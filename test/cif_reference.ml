(* The CIF printer as it was before it wrote into one [Buffer]: a
   [Format] printer over the command list.  Kept verbatim as the
   differential oracle for [Sc_cif.Ast.add_command] and
   [Sc_cif.Emit.emit] in test_cif.ml. *)

open Sc_cif.Ast

let pp_trans ppf = function
  | Translate (x, y) -> Format.fprintf ppf "T %d %d" x y
  | Mirror_x -> Format.fprintf ppf "M X"
  | Mirror_y -> Format.fprintf ppf "M Y"
  | Rotate (a, b) -> Format.fprintf ppf "R %d %d" a b

let pp_points ppf pts =
  List.iter (fun (x, y) -> Format.fprintf ppf " %d %d" x y) pts

let pp_command ppf = function
  | Def_start (n, a, b) -> Format.fprintf ppf "DS %d %d %d;" n a b
  | Def_finish -> Format.fprintf ppf "DF;"
  | Def_delete n -> Format.fprintf ppf "DD %d;" n
  | Layer l -> Format.fprintf ppf "L %s;" l
  | Box b -> Format.fprintf ppf "B %d %d %d %d;" b.length b.width b.cx b.cy
  | Polygon pts -> Format.fprintf ppf "P%a;" pp_points pts
  | Wire w -> Format.fprintf ppf "W %d%a;" w.width pp_points w.points
  | Call (n, ops) ->
    Format.fprintf ppf "C %d" n;
    List.iter (fun op -> Format.fprintf ppf " %a" pp_trans op) ops;
    Format.fprintf ppf ";"
  | Comment s -> Format.fprintf ppf "(%s);" s
  | User (d, s) ->
    if s = "" then Format.fprintf ppf "%d;" d else Format.fprintf ppf "%d %s;" d s
  | End -> Format.fprintf ppf "E"

let pp ppf file =
  List.iter (fun c -> Format.fprintf ppf "%a@\n" pp_command c) file

let to_string file = Format.asprintf "%a" pp file
