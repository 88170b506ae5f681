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

(* Gate regions = connected groups of poly/diffusion intersection
   rectangles.  A grid index over the diffusion finds the strips each
   poly rectangle crosses; a second index over the intersections labels
   the regions, so a gate drawn in several touching boxes is counted
   once. *)
let overlap_regions polys diffs =
  let diffs = Rect_index.create (Array.of_list diffs) in
  let diff_rects = Rect_index.rects diffs in
  let near = Rect_index.cursor diffs in
  let inters = ref [] in
  List.iter
    (fun p ->
      for k = 0 to Rect_index.near near ~within:0 p - 1 do
        match Rect.inter p diff_rects.(Rect_index.hit near k) with
        | Some r when not (Rect.is_empty r) -> inters := r :: !inters
        | _ -> ()
      done)
    polys;
  let region = Rect_index.components (Rect_index.create (Array.of_list !inters)) in
  let roots = ref 0 in
  Array.iteri (fun i r -> if r = i then incr roots) region;
  !roots

let transistor_count c =
  overlap_regions
    (Flatten.run_layer c Layer.Poly)
    (Flatten.run_layer c Layer.Diffusion)

let count_instances root =
  let memo = Hashtbl.create 64 in
  let rec go (c : Cell.t) =
    match Hashtbl.find_opt memo c.id with
    | Some n -> n
    | None ->
      let n =
        List.fold_left
          (fun acc (i : Cell.inst) -> acc + 1 + go i.cell)
          0 c.instances
      in
      Hashtbl.add memo c.id n;
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
