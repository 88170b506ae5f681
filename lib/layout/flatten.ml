open Sc_geom
open Sc_tech

type flat_box = { layer : Layer.t; rect : Rect.t }

(* [collect keep box root] — [box layer rect] for every flattened box on
   a layer [keep] accepts, the last one visited first; boxes on other
   layers are never transformed or allocated *)
let collect keep box root =
  let rec go trans (c : Cell.t) acc =
    let acc =
      List.fold_left
        (fun acc e ->
          match e with
          | Cell.Box (l, r) when keep l -> box l (Transform.apply_rect trans r) :: acc
          | Cell.Wire (l, p) when keep l ->
            List.fold_left
              (fun acc r -> box l r :: acc)
              acc
              (Path.to_rects (Path.transform trans p))
          | Cell.Box _ | Cell.Wire _ -> acc)
        acc c.elements
    in
    List.fold_left
      (fun acc (i : Cell.inst) -> go (Transform.compose trans i.trans) i.cell acc)
      acc c.instances
  in
  go Transform.identity root []

let run root = collect (fun _ -> true) (fun layer rect -> { layer; rect }) root

let run_layer root l = collect (Layer.equal l) (fun _ rect -> rect) root

let ports root =
  let rec go prefix trans (c : Cell.t) acc =
    let acc =
      List.fold_left
        (fun acc (p : Cell.port) ->
          { p with
            Cell.pname = (if prefix = "" then p.pname else prefix ^ "." ^ p.pname)
          ; rect = Transform.apply_rect trans p.rect
          }
          :: acc)
        acc c.ports
    in
    List.fold_left
      (fun acc (i : Cell.inst) ->
        let prefix' =
          if prefix = "" then i.inst_name else prefix ^ "." ^ i.inst_name
        in
        go prefix' (Transform.compose trans i.trans) i.cell acc)
      acc c.instances
  in
  go "" Transform.identity root []

let layer_areas root =
  let areas = Array.make Layer.count 0 in
  List.iter
    (fun fb ->
      let i = Layer.index fb.layer in
      areas.(i) <- areas.(i) + Rect.area fb.rect)
    (run root);
  areas
