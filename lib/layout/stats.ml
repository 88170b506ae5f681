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

let count_regions { region; _ } =
  let roots = ref 0 in
  Array.iteri (fun i r -> if r = i then incr roots) region;
  !roots

(* One distinct cell, in its own coordinates: its own rectangles on the
   channel layers (poly, diffusion, buried, in that slot order), its
   instances that draw on them, the bounding box of all that geometry
   (its active box), its channel count, its drawn area per layer, and
   its flattened rectangles and instantiations, transitively. *)
type summary =
  { own : Rect.t list array
  ; active_insts : (Transform.t * summary) list
  ; active : Rect.t option
  ; count : int
  ; area : int array
  ; rects : int
  ; insts : int
  }

let slot = function
  | Layer.Poly -> 0
  | Layer.Diffusion -> 1
  | Layer.Buried -> 2
  | _ -> -1

(* [gather on trans s] adds the channel-layer rectangles of [s]'s whole
   subtree, seen through [trans], to [on] *)
let rec gather on trans s =
  for k = 0 to 2 do
    List.iter (fun r -> on.(k) <- Transform.apply_rect trans r :: on.(k)) s.own.(k)
  done;
  List.iter (fun (t, child) -> gather on (Transform.compose trans t) child) s.active_insts

let bbox_of = function
  | [] -> None
  | r :: rs -> Some (List.fold_left Rect.union_bbox r rs)

(* The channels of one cell, from its nodes: its own channel-layer
   rectangles [own] (by slot) when they have a box [own_box], and each
   instance of [insts], whose active box in the cell is the same
   position of [boxes].  A channel piece lies inside its poly and its
   diffusion rectangle, and so does every piece touching it: pieces of
   nodes whose boxes do not touch never meet, and no buried contact
   cuts a piece outside its own node's box.  So groups of touching
   boxes count independently.  A group of one instance counts what its
   cell counts, in any of the eight orientations; the other groups are
   flattened together on the channel layers and counted as flat
   rectangles. *)
let count_nodes own own_box insts boxes =
  let nodes = Rect.array_of_list (Option.to_list own_box @ boxes) in
  let n = Array.length nodes in
  if n = 0 then 0
  else begin
    let group = Rect_index.components (Rect_index.create nodes) in
    let size = Array.make n 0 in
    Array.iter (fun g -> size.(g) <- size.(g) + 1) group;
    let first = if own_box = None then 0 else 1 in
    let on = if first = 1 then Array.copy own else Array.make 3 [] in
    let lone = ref 0 in
    List.iteri
      (fun k (t, s) ->
        if size.(group.(first + k)) = 1 then lone := !lone + s.count else gather on t s)
      insts;
    if Array.for_all (( = ) []) on then !lone
    else begin
      let layer k = Rect.array_of_list on.(k) in
      !lone
      + count_regions
          (channels ~poly:(layer 0) ~diffusion:(layer 1) ~buried:(layer 2))
    end
  end

(* Each distinct cell under [root] once, children first: [root]'s
   summary and the number of distinct cells.  A wire counts as one
   rectangle per segment, as {!Cell.flat_rect_count} counts it. *)
let summarize root =
  let memo = Cell.Tbl.create 64 in
  let rec visit (c : Cell.t) =
    match Cell.Tbl.find_opt memo c with
    | Some s -> s
    | None ->
      let own = Array.make 3 [] and area = Array.make Layer.count 0 in
      let add l r =
        let i = Layer.index l in
        area.(i) <- area.(i) + Rect.area r;
        let k = slot l in
        if k >= 0 then own.(k) <- r :: own.(k)
      in
      let rects = ref 0 in
      List.iter
        (function
          | Cell.Box (l, r) ->
            incr rects;
            add l r
          | Cell.Wire (l, p) ->
            rects := !rects + max 1 (List.length p.Path.points - 1);
            List.iter (add l) (Path.to_rects p))
        c.elements;
      let own_box = bbox_of (own.(0) @ own.(1) @ own.(2)) in
      let all = ref 0 in
      let active_insts, boxes =
        List.fold_left
          (fun (insts, boxes) (i : Cell.inst) ->
            let s = visit i.cell in
            for l = 0 to Layer.count - 1 do
              area.(l) <- area.(l) + s.area.(l)
            done;
            rects := !rects + s.rects;
            all := !all + 1 + s.insts;
            match s.active with
            | None -> (insts, boxes)
            | Some b -> ((i.trans, s) :: insts, Transform.apply_rect i.trans b :: boxes))
          ([], []) c.instances
      in
      let s =
        { own
        ; active_insts
        ; active = bbox_of (Option.to_list own_box @ boxes)
        ; count = count_nodes own own_box active_insts boxes
        ; area
        ; rects = !rects
        ; insts = !all
        }
      in
      Cell.Tbl.add memo c s;
      s
  in
  let s = visit root in
  (s, Cell.Tbl.length memo)

let transistor_count c = (fst (summarize c)).count

let measure c =
  let s, cells = summarize c in
  { cell_name = c.Cell.name
  ; bbox_area = Cell.area c
  ; width = Cell.width c
  ; height = Cell.height c
  ; layer_area = s.area
  ; transistors = s.count
  ; rects = s.rects
  ; cells
  ; instances = s.insts
  }

let layer_area t l = t.layer_area.(Layer.index l)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cell %s: %dx%d lambda (area %d)@ transistors %d, rects %d, cells %d, insts %d@]"
    t.cell_name t.width t.height t.bbox_area t.transistors t.rects t.cells
    t.instances
