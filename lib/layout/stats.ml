open Sc_geom
open Sc_tech

type t =
  { cell_name : string
  ; bbox_area : int
  ; width : int
  ; height : int
  ; layer_area : int array
  ; transistors : int
  ; rects : int
  ; cells : int
  ; instances : int
  }

type channels = { pieces : Rect_index.t; region : int array }

(* A grid index over the diffusion finds the strips each poly rectangle
   crosses, and one over the buried contacts the cuts each crossing
   loses; a third index over the pieces labels the regions, so a gate
   drawn in several touching boxes is one channel. *)
let channels ~poly ~diffusion ~buried =
  let near_diff = Rect_index.cursor (Rect_index.create diffusion) in
  let near_cut = Rect_index.cursor (Rect_index.create buried) in
  let pieces = ref [] in
  Array.iter
    (fun p ->
      for k = 0 to Rect_index.near near_diff ~within:0 p - 1 do
        match Rect.inter p diffusion.(Rect_index.hit near_diff k) with
        | Some g when not (Rect.is_empty g) ->
          pieces := List.rev_append (Rect_index.subtract near_cut g) !pieces
        | _ -> ()
      done)
    poly;
  let pieces = Rect_index.create (Rect.array_of_list (List.rev !pieces)) in
  { pieces; region = Rect_index.components pieces }

let transistor_count c =
  let on = Flatten.run_layers c [ Layer.Poly; Layer.Diffusion; Layer.Buried ] in
  let layer l = Rect.array_of_list on.(Layer.index l) in
  let { region; _ } =
    channels ~poly:(layer Layer.Poly) ~diffusion:(layer Layer.Diffusion)
      ~buried:(layer Layer.Buried)
  in
  let roots = ref 0 in
  Array.iteri (fun i r -> if r = i then incr roots) region;
  !roots

let count_instances root =
  let memo = Cell.Tbl.create 64 in
  let rec go (c : Cell.t) =
    match Cell.Tbl.find_opt memo c with
    | Some n -> n
    | None ->
      let n =
        List.fold_left
          (fun acc (i : Cell.inst) -> acc + 1 + go i.cell)
          0 c.instances
      in
      Cell.Tbl.add memo c n;
      n
  in
  go root

let measure c =
  { cell_name = c.Cell.name
  ; bbox_area = Cell.area c
  ; width = Cell.width c
  ; height = Cell.height c
  ; layer_area = Flatten.layer_areas c
  ; transistors = transistor_count c
  ; rects = Cell.flat_rect_count c
  ; cells = List.length (Cell.all_cells c)
  ; instances = count_instances c
  }

let layer_area t l = t.layer_area.(Layer.index l)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cell %s: %dx%d lambda (area %d)@ transistors %d, rects %d, cells %d, insts %d@]"
    t.cell_name t.width t.height t.bbox_area t.transistors t.rects t.cells
    t.instances
