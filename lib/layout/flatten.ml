open Sc_geom
open Sc_tech

type flat_box = { layer : Layer.t; rect : Rect.t }

(* [fold keep f root acc] folds [f layer rect] over every flattened box
   on a layer [keep] accepts, in visiting order; boxes on other layers
   are never transformed or allocated *)
let fold keep f root acc =
  let rec go trans (c : Cell.t) acc =
    let acc =
      List.fold_left
        (fun acc e ->
          match e with
          | Cell.Box (l, r) when keep l -> f l (Transform.apply_rect trans r) acc
          | Cell.Wire (l, p) when keep l ->
            List.fold_left
              (fun acc r -> f l r acc)
              acc
              (Path.to_rects (Path.transform trans p))
          | Cell.Box _ | Cell.Wire _ -> acc)
        acc c.elements
    in
    List.fold_left
      (fun acc (i : Cell.inst) -> go (Transform.compose trans i.trans) i.cell acc)
      acc c.instances
  in
  go Transform.identity root acc

let run root =
  fold (fun _ -> true) (fun layer rect acc -> { layer; rect } :: acc) root []

let run_layers root ls =
  let wanted = Array.make Layer.count false in
  List.iter (fun l -> wanted.(Layer.index l) <- true) ls;
  fold
    (fun l -> wanted.(Layer.index l))
    (fun l rect by_layer ->
      let i = Layer.index l in
      by_layer.(i) <- rect :: by_layer.(i);
      by_layer)
    root (Array.make Layer.count [])

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
        acc (Cell.ports c)
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
