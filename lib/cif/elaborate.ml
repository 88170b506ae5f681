open Sc_geom
open Sc_tech
open Sc_layout

type error =
  | Syntax of string
  | Off_grid of string
  | Unknown_layer of string
  | Undefined_symbol of int
  | Unsupported of string
  | Structure of string

let error_to_string = function
  | Syntax s -> "syntax: " ^ s
  | Off_grid s -> "off-grid: " ^ s
  | Unknown_layer s -> "unknown layer: " ^ s
  | Undefined_symbol n -> Printf.sprintf "undefined symbol %d" n
  | Unsupported s -> "unsupported: " ^ s
  | Structure s -> "structure: " ^ s

exception Err of error

let fail e = raise (Err e)

(* Convert a doubled symbol-unit coordinate to lambda.  A value [v] in
   symbol units scaled by a/b lands at v*a/b centimicrons; doubled
   coordinates carry an extra factor of two. *)
let to_lambda ~a ~b ~doubled v =
  let num = v * a in
  let den = b * Rules.centimicrons_per_lambda * if doubled then 2 else 1 in
  if num mod den <> 0 then
    fail (Off_grid (Printf.sprintf "%d * %d / %d" v a den))
  else num / den

let layer_of_name name =
  match Layer.of_cif_name name with
  | Some l -> l
  | None -> fail (Unknown_layer name)

(* A box arrives as doubled corners so odd sizes stay on grid. *)
let rect_of_box ~a ~b (box : int * int * int * int) =
  let length, width, cx, cy = box in
  let x0 = to_lambda ~a ~b ~doubled:true ((2 * cx) - length) in
  let x1 = to_lambda ~a ~b ~doubled:true ((2 * cx) + length) in
  let y0 = to_lambda ~a ~b ~doubled:true ((2 * cy) - width) in
  let y1 = to_lambda ~a ~b ~doubled:true ((2 * cy) + width) in
  Rect.make x0 y0 x1 y1

let rect_of_polygon ~a ~b pts =
  match pts with
  | [ (x0, y0); (x1, y1); (x2, y2); (x3, y3) ]
    when (x0 = x1 && y1 = y2 && x2 = x3 && y3 = y0)
         || (y0 = y1 && x1 = x2 && y2 = y3 && x3 = x0) ->
    let c v = to_lambda ~a ~b ~doubled:false v in
    Rect.make (c (min (min x0 x1) (min x2 x3))) (c (min (min y0 y1) (min y2 y3)))
      (c (max (max x0 x1) (max x2 x3)))
      (c (max (max y0 y1) (max y2 y3)))
  | _ -> fail (Unsupported "non-rectangular polygon")

let transform_of_ops ~a ~b ops =
  List.fold_left
    (fun acc op ->
      let t =
        match op with
        | Ast.Translate (x, y) ->
          Transform.translation
            (to_lambda ~a ~b ~doubled:false x)
            (to_lambda ~a ~b ~doubled:false y)
        | Ast.Mirror_x -> Transform.make ~orient:Transform.MY Point.origin
        | Ast.Mirror_y -> Transform.make ~orient:Transform.MX Point.origin
        | Ast.Rotate (1, 0) -> Transform.identity
        | Ast.Rotate (0, 1) -> Transform.make ~orient:Transform.R90 Point.origin
        | Ast.Rotate (-1, 0) -> Transform.make ~orient:Transform.R180 Point.origin
        | Ast.Rotate (0, -1) -> Transform.make ~orient:Transform.R270 Point.origin
        | Ast.Rotate (x, y) ->
          fail (Unsupported (Printf.sprintf "non-Manhattan rotation %d %d" x y))
      in
      Transform.compose t acc)
    Transform.identity ops

type builder =
  { number : int
  ; scale_a : int
  ; scale_b : int
  ; mutable name : string option
  ; mutable elements : Cell.element list
  ; mutable ports : Cell.port list
  ; mutable instances : Cell.inst list
  ; mutable layer : Layer.t
  ; mutable pending : string option  (** a "91" name awaiting its call *)
  ; mutable named : int  (** calls named by "91" *)
  }

let parse_port_extension text =
  match String.split_on_char ' ' (String.trim text) with
  | [ name; sx; sy; layer ] -> (
    match (int_of_string_opt sx, int_of_string_opt sy) with
    | Some x, Some y -> Some (name, x, y, layer)
    | _ -> None)
  | _ -> None

let cell_of_file file =
  let table : (int, Cell.t) Hashtbl.t = Hashtbl.create 32 in
  let current = ref None in
  let last_defined = ref None in
  let top_call = ref None in
  let finish (b : builder) =
    let name =
      match b.name with Some n -> n | None -> Printf.sprintf "sym%d" b.number
    in
    let structure fmt =
      Printf.ksprintf
        (fun s -> fail (Structure (Printf.sprintf "symbol %d (%s): %s" b.number name s)))
        fmt
    in
    Option.iter (structure "91 %s names no call") b.pending;
    if b.named > 0 && b.named < List.length b.instances then
      structure "%d of its %d calls have no 91 name" (List.length b.instances - b.named)
        (List.length b.instances);
    (* named calls are the instances whose ports this cell promotes *)
    let cell =
      match
        Cell.make ~name ~ports:(List.rev b.ports) ~instances:(List.rev b.instances)
          ~promote:(b.named > 0) (List.rev b.elements)
      with
      | cell -> cell
      | exception Invalid_argument msg -> structure "%s" msg
    in
    Hashtbl.replace table b.number cell;
    last_defined := Some cell
  in
  let lookup n =
    match Hashtbl.find_opt table n with
    | Some c -> c
    | None -> fail (Undefined_symbol n)
  in
  let handle cmd =
    match (cmd, !current) with
    | Ast.Def_start (n, a, b), None ->
      if b = 0 then fail (Structure "zero scale denominator");
      current :=
        Some
          { number = n
          ; scale_a = a
          ; scale_b = b
          ; name = None
          ; elements = []
          ; ports = []
          ; instances = []
          ; layer = Layer.Diffusion
          ; pending = None
          ; named = 0
          }
    | Ast.Def_start (n, _, _), Some _ ->
      fail (Structure (Printf.sprintf "nested DS %d" n))
    | Ast.Def_finish, Some b ->
      finish b;
      current := None
    | Ast.Def_finish, None -> fail (Structure "DF without DS")
    | Ast.Def_delete n, _ -> Hashtbl.remove table n
    | Ast.Layer l, Some b -> b.layer <- layer_of_name l
    | Ast.Layer _, None -> fail (Structure "L outside definition")
    | Ast.Box { length; width; cx; cy }, Some b ->
      let r = rect_of_box ~a:b.scale_a ~b:b.scale_b (length, width, cx, cy) in
      b.elements <- Cell.Box (b.layer, r) :: b.elements
    | Ast.Box _, None -> fail (Structure "B outside definition")
    | Ast.Polygon pts, Some b ->
      let r = rect_of_polygon ~a:b.scale_a ~b:b.scale_b pts in
      b.elements <- Cell.Box (b.layer, r) :: b.elements
    | Ast.Polygon _, None -> fail (Structure "P outside definition")
    | Ast.Wire { width; points }, Some b ->
      let w = to_lambda ~a:b.scale_a ~b:b.scale_b ~doubled:false width in
      let pts =
        List.map
          (fun (x, y) ->
            Point.make
              (to_lambda ~a:b.scale_a ~b:b.scale_b ~doubled:false x)
              (to_lambda ~a:b.scale_a ~b:b.scale_b ~doubled:false y))
          points
      in
      b.elements <- Cell.Wire (b.layer, Path.make ~width:w pts) :: b.elements
    | Ast.Wire _, None -> fail (Structure "W outside definition")
    | Ast.Call (n, ops), Some b ->
      let t = transform_of_ops ~a:b.scale_a ~b:b.scale_b ops in
      let name = b.pending in
      b.pending <- None;
      if name <> None then b.named <- b.named + 1;
      b.instances <- Cell.instantiate ?name ~trans:t (lookup n) :: b.instances
    | Ast.Call (n, ops), None ->
      (* Top-level call: coordinates are raw centimicrons. *)
      let t = transform_of_ops ~a:1 ~b:1 ops in
      top_call := Some (lookup n, t)
    | Ast.User (9, text), Some b when String.starts_with ~prefix:"1 " text -> (
      let name = Emit.unescape (String.trim (String.sub text 2 (String.length text - 2))) in
      match b.pending with
      | Some first ->
        fail
          (Structure
             (Printf.sprintf "symbol %d: 91 %s follows 91 %s with no call between" b.number
                name first))
      | None -> b.pending <- Some name)
    | Ast.User (9, text), None when String.starts_with ~prefix:"1 " text ->
      fail (Structure "91 outside definition")
    | Ast.User (9, text), Some b when not (String.starts_with ~prefix:"4 " text) ->
      b.name <- Some (Emit.unescape (String.trim text))
    | Ast.User (9, text), Some b -> (
      let text = String.sub text 2 (String.length text - 2) in
      match parse_port_extension text with
      | Some (name, sx, sy, layer) ->
        (* The port centre may sit on the half-lambda grid; rebuild a rect
           of width 0 or 1 whose doubled centre matches exactly. *)
        let dx = to_lambda ~a:(2 * b.scale_a) ~b:b.scale_b ~doubled:false sx in
        let dy = to_lambda ~a:(2 * b.scale_a) ~b:b.scale_b ~doubled:false sy in
        let lo v = if v >= 0 then v / 2 else (v - 1) / 2 in
        let px0 = lo dx and py0 = lo dy in
        b.ports <-
          { Cell.pname = Emit.unescape name
          ; layer = layer_of_name layer
          ; rect = Rect.make px0 py0 (dx - px0) (dy - py0)
          }
          :: b.ports
      | None -> fail (Syntax ("bad 94 extension: " ^ text)))
    | Ast.User _, _ -> ()
    | Ast.Comment _, _ -> ()
    | Ast.End, Some _ -> fail (Structure "E inside definition")
    | Ast.End, None -> ()
  in
  match List.iter handle file with
  | () -> (
    match (!top_call, !last_defined) with
    | Some (cell, t), _ when Transform.equal t Transform.identity -> Ok cell
    | Some (cell, t), _ ->
      Ok (Cell.make ~name:(cell.Cell.name ^ "_top") ~instances:[ Cell.instantiate ~trans:t cell ] [])
    | None, Some cell -> Ok cell
    | None, None -> Error (Structure "no symbol defined")
  )
  | exception Err e -> Error e

let of_string text =
  match Parse.parse text with
  | Ok file -> cell_of_file file
  | Error msg -> Error (Syntax msg)

let flat_signature cell =
  List.sort compare
    (List.map
       (fun (fb : Flatten.flat_box) ->
         ( Layer.index fb.layer
         , fb.rect.Rect.xmin
         , fb.rect.Rect.ymin
         , fb.rect.Rect.xmax
         , fb.rect.Rect.ymax ))
       (Flatten.run cell))

(* A label carries a port's doubled centre, not its rectangle. *)
let port_signature cell =
  List.sort compare
    (List.map
       (fun (p : Cell.port) ->
         ( p.pname
         , Layer.index p.layer
         , p.rect.Rect.xmin + p.rect.Rect.xmax
         , p.rect.Rect.ymin + p.rect.Rect.ymax ))
       (Cell.ports cell))

let roundtrip_ok cell =
  match of_string (Emit.to_string cell) with
  | Ok cell' ->
    flat_signature cell = flat_signature cell' && port_signature cell = port_signature cell'
  | Error _ -> false
