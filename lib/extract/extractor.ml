open Sc_geom
open Sc_tech
open Sc_layout

type device =
  { gate : int
  ; terminals : int list
  ; depletion : bool
  }

type netlist =
  { node_count : int
  ; devices : device list
  ; named : (string * int) list
  ; warnings : string list
  }

(* [overlapping index off r] is every indexed rectangle whose interior
   meets [r]'s, as [off + index], the highest index first *)
let overlapping index off =
  let near = Rect_index.cursor index and rects = Rect_index.rects index in
  fun r ->
    let acc = ref [] in
    for k = 0 to Rect_index.near near ~within:0 r - 1 do
      let j = Rect_index.hit near k in
      if Rect.overlaps rects.(j) r then acc := (off + j) :: !acc
    done;
    !acc

(* the first indexed rectangle touching or overlapping [r], as
   [off + index] *)
let first_touching index off r =
  let near = Rect_index.cursor index in
  if Rect_index.near near ~within:0 r > 0 then Some (off + Rect_index.hit near 0)
  else None

let extract cell =
  let flat =
    Flatten.run_layers cell
      Layer.[ Poly; Diffusion; Metal; Contact; Buried; Implant ]
  in
  let layer l =
    Array.of_list
      (List.filter (fun r -> not (Rect.is_empty r)) flat.(Layer.index l))
  in
  let polys = layer Layer.Poly in
  let diffs = layer Layer.Diffusion in
  let metals = layer Layer.Metal in
  let burieds = layer Layer.Buried in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  (* 1. channels, exactly as [Stats.transistor_count] counts them *)
  let channels = Stats.channels ~poly:polys ~diffusion:diffs ~buried:burieds in
  let gates = Rect_index.rects channels.pieces in
  (* 2. sever diffusion at the channels *)
  let diff_pieces =
    let near = Rect_index.cursor channels.pieces in
    Array.of_list
      (List.concat_map (Rect_index.subtract near) (Array.to_list diffs))
  in
  (* 3. one node space: poly, then diffusion pieces, then metal, each
     layer's touching rectangles joined *)
  let poly_index = Rect_index.create polys in
  let diff_index = Rect_index.create diff_pieces in
  let metal_index = Rect_index.create metals in
  let np = Array.length polys and nd = Array.length diff_pieces in
  let nodes = Union_find.create (np + nd + Array.length metals) in
  List.iter
    (fun (index, off) ->
      Array.iteri
        (fun i r -> Union_find.union nodes (off + i) (off + r))
        (Rect_index.components index))
    [ (poly_index, 0); (diff_index, np); (metal_index, np + nd) ];
  let poly_under = overlapping poly_index 0 in
  let diff_under = overlapping diff_index np in
  let metal_under = overlapping metal_index (np + nd) in
  Array.iter
    (fun cut ->
      let ms = metal_under cut and ps = poly_under cut and ds = diff_under cut in
      if ms = [] then warn "contact at %s has no metal" (Rect.to_string cut);
      if ps = [] && ds = [] then
        warn "contact at %s reaches nothing" (Rect.to_string cut);
      match ms @ ps @ ds with
      | first :: rest -> List.iter (Union_find.union nodes first) rest
      | [] -> ())
    (layer Layer.Contact);
  (* a buried contact joins one poly and one diffusion rectangle under
     it, the highest-indexed of each *)
  Array.iter
    (fun b ->
      match (poly_under b, diff_under b) with
      | p :: _, d :: _ -> Union_find.union nodes p d
      | _ -> warn "buried contact at %s joins nothing" (Rect.to_string b))
    burieds;
  (* 4. one device per channel region: the gate is the poly over its
     first piece (every piece lies under the poly it was cut from), the
     terminals are the diffusion nodes touching any of its pieces, and
     an implant over any piece makes it depletion mode *)
  let members = Array.make (Array.length gates) [] in
  for i = Array.length gates - 1 downto 0 do
    let r = channels.region.(i) in
    members.(r) <- i :: members.(r)
  done;
  let near_diff = Rect_index.cursor diff_index in
  let implanted = overlapping (Rect_index.create (layer Layer.Implant)) 0 in
  let devices = ref [] in
  Array.iter
    (function
      | [] -> ()
      | first :: _ as pieces ->
        let terms = ref [] in
        List.iter
          (fun i ->
            for k = 0 to Rect_index.near near_diff ~within:0 gates.(i) - 1 do
              let t = Union_find.find nodes (np + Rect_index.hit near_diff k) in
              if not (List.mem t !terms) then terms := t :: !terms
            done)
          pieces;
        let k = List.length !terms in
        if k <> 2 then
          warn "channel at %s has %d terminals" (Rect.to_string gates.(first)) k;
        devices :=
          { gate = Union_find.find nodes (List.hd (poly_under gates.(first)))
          ; terminals = List.rev !terms
          ; depletion = List.exists (fun i -> implanted gates.(i) <> []) pieces
          }
          :: !devices)
    members;
  (* 5. named nodes from ports *)
  let named =
    List.filter_map
      (fun (p : Cell.port) ->
        let node =
          match p.layer with
          | Layer.Poly -> first_touching poly_index 0 p.rect
          | Layer.Diffusion -> first_touching diff_index np p.rect
          | Layer.Metal -> first_touching metal_index (np + nd) p.rect
          | _ -> None
        in
        match node with
        | Some n -> Some (p.pname, n)
        | None ->
          warn "port %s touches no conductor" p.pname;
          None)
      cell.Cell.ports
  in
  (* number the nodes in use densely, in order of first mention *)
  let canon = Array.make (np + nd + Array.length metals) (-1) in
  let next = ref 0 in
  let id n =
    let r = Union_find.find nodes n in
    if canon.(r) < 0 then begin
      canon.(r) <- !next;
      incr next
    end;
    canon.(r)
  in
  let devices =
    List.map
      (fun d ->
        let gate = id d.gate in
        { d with gate; terminals = List.map id d.terminals })
      (List.rev !devices)
  in
  let named = List.map (fun (n, node) -> (n, id node)) named in
  { node_count = !next; devices; named; warnings = List.rev !warnings }

let node_of t name =
  match List.assoc_opt name t.named with
  | Some n -> n
  | None -> raise Not_found

let pp ppf t =
  Format.fprintf ppf "extracted: %d nodes, %d devices (%d depletion)"
    t.node_count (List.length t.devices)
    (List.length (List.filter (fun d -> d.depletion) t.devices));
  if t.warnings <> [] then
    Format.fprintf ppf ", %d warnings" (List.length t.warnings)
