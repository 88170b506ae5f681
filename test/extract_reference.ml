(* The circuit extractor as it was before it moved onto the rectangle
   index: all-pairs poly x diffusion channels, every diffusion strip cut
   against every channel and every channel against every buried
   contact, a sort-and-sweep region labelling and a union-find without
   path compression.  Kept verbatim (minus the record types, shared with
   [Sc_extract.Extractor], and [node_of]/[pp]) as the differential
   oracle for [Sc_extract.Extractor.extract] in test_extract.ml, the way
   route_reference.ml keeps the old router. *)

open Sc_geom
open Sc_tech
open Sc_layout
open Sc_extract.Extractor

(* --- small union-find --- *)

type uf = { parent : int array }

let uf_create n = { parent = Array.init n (fun i -> i) }

let rec uf_find u i = if u.parent.(i) = i then i else uf_find u u.parent.(i)

let uf_union u a b =
  let ra = uf_find u a and rb = uf_find u b in
  if ra <> rb then u.parent.(ra) <- rb

(* [subtract r cuts] returns the parts of [r] not covered by any cut. *)
let subtract r cuts =
  let rec go pieces = function
    | [] -> pieces
    | cut :: rest ->
      let pieces =
        List.concat_map
          (fun p ->
            match Rect.inter p cut with
            | None -> [ p ]
            | Some _ ->
              let frags = ref [] in
              let push x0 y0 x1 y1 =
                if x0 < x1 && y0 < y1 then frags := Rect.make x0 y0 x1 y1 :: !frags
              in
              push p.Rect.xmin p.Rect.ymin
                (min p.Rect.xmax cut.Rect.xmin)
                p.Rect.ymax;
              push (max p.Rect.xmin cut.Rect.xmax) p.Rect.ymin p.Rect.xmax
                p.Rect.ymax;
              let mx0 = max p.Rect.xmin cut.Rect.xmin
              and mx1 = min p.Rect.xmax cut.Rect.xmax in
              push mx0 p.Rect.ymin mx1 (min p.Rect.ymax cut.Rect.ymin);
              push mx0 (max p.Rect.ymin cut.Rect.ymax) mx1 p.Rect.ymax;
              !frags)
          pieces
      in
      go pieces rest
  in
  go [ r ] cuts

(* group rectangles into touch-connected regions; returns (region index per
   rect, region count) *)
let regions rects =
  let arr = Array.of_list rects in
  let n = Array.length arr in
  let u = uf_create n in
  (* sort an index array by xmin for a bounded scan *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare arr.(a).Rect.xmin arr.(b).Rect.xmin) order;
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    let j = ref (oi + 1) in
    while !j < n && arr.(order.(!j)).Rect.xmin <= arr.(i).Rect.xmax do
      if Rect.touches_or_overlaps arr.(i) arr.(order.(!j)) then
        uf_union u i order.(!j);
      incr j
    done
  done;
  let region_of = Array.init n (fun i -> uf_find u i) in
  (arr, region_of)

let extract cell =
  let flat = Flatten.run cell in
  let layer l =
    List.filter_map
      (fun (fb : Flatten.flat_box) ->
        if Layer.equal fb.layer l && not (Rect.is_empty fb.rect) then
          Some fb.rect
        else None)
      flat
  in
  let polys = layer Layer.Poly in
  let diffs = layer Layer.Diffusion in
  let metals = layer Layer.Metal in
  let contacts = layer Layer.Contact in
  let burieds = layer Layer.Buried in
  let implants = layer Layer.Implant in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  (* 1. channels: poly-over-diffusion intersections, merged when touching.
     Regions under a buried contact are direct poly-diffusion connections,
     not channels — subtract them first. *)
  let raw_gates =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun d ->
            match Rect.inter p d with
            | Some g when not (Rect.is_empty g) ->
              List.filter (fun piece -> not (Rect.is_empty piece))
                (subtract g burieds)
            | _ -> [])
          diffs)
      polys
  in
  let gate_arr, gate_region = regions raw_gates in
  let gate_groups = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      let key = gate_region.(i) in
      let cur = try Hashtbl.find gate_groups key with Not_found -> [] in
      Hashtbl.replace gate_groups key (r :: cur))
    gate_arr;
  (* 2. sever diffusion at the channels *)
  let gate_rects = Array.to_list gate_arr in
  let diff_pieces = List.concat_map (fun d -> subtract d gate_rects) diffs in
  (* 3. conductor regions per layer *)
  let poly_arr, poly_region = regions polys in
  let diff_arr, diff_region = regions diff_pieces in
  let metal_arr, metal_region = regions metals in
  (* 4. one node space: poly regions, then diff, then metal *)
  let np = Array.length poly_arr
  and nd = Array.length diff_arr
  and nm = Array.length metal_arr in
  let nodes = uf_create (np + nd + nm) in
  let poly_node i = poly_region.(i) in
  let diff_node i = np + diff_region.(i) in
  let metal_node i = np + nd + metal_region.(i) in
  let overlapping arr pred r =
    let acc = ref [] in
    Array.iteri (fun i a -> if Rect.overlaps a r then acc := pred i :: !acc) arr;
    !acc
  in
  List.iter
    (fun cut ->
      let ms = overlapping metal_arr metal_node cut in
      let ps = overlapping poly_arr poly_node cut in
      let ds = overlapping diff_arr diff_node cut in
      (match ms with
      | [] -> warn "contact at %s has no metal" (Rect.to_string cut)
      | _ -> ());
      (match (ps, ds) with
      | [], [] -> warn "contact at %s reaches nothing" (Rect.to_string cut)
      | _ -> ());
      match ms @ ps @ ds with
      | first :: rest -> List.iter (uf_union nodes first) rest
      | [] -> ())
    contacts;
  List.iter
    (fun b ->
      let ps = overlapping poly_arr poly_node b in
      let ds = overlapping diff_arr diff_node b in
      match (ps, ds) with
      | p :: _, d :: _ -> uf_union nodes p d
      | _ -> warn "buried contact at %s joins nothing" (Rect.to_string b))
    burieds;
  (* 5. devices *)
  let devices =
    Hashtbl.fold
      (fun _key rects acc ->
        (* gate terminal: the poly region of a poly rect overlapping the
           channel *)
        let sample = List.hd rects in
        let gate_nodes = overlapping poly_arr poly_node sample in
        let gate =
          match gate_nodes with
          | g :: _ -> uf_find nodes g
          | [] ->
            warn "channel at %s has no poly region" (Rect.to_string sample);
            -1
        in
        (* source/drain: diffusion pieces touching any channel rect *)
        let terms = ref [] in
        Array.iteri
          (fun i piece ->
            if List.exists (fun g -> Rect.touches_or_overlaps piece g) rects
            then begin
              let node = uf_find nodes (diff_node i) in
              if not (List.mem node !terms) then terms := node :: !terms
            end)
          diff_arr;
        (match List.length !terms with
        | 2 -> ()
        | k ->
          warn "channel at %s has %d terminals" (Rect.to_string sample) k);
        let depletion =
          List.exists
            (fun g -> List.exists (fun imp -> Rect.overlaps imp g) implants)
            rects
        in
        { gate; terminals = !terms; depletion } :: acc)
      gate_groups []
  in
  (* 6. named nodes from ports *)
  let named =
    List.filter_map
      (fun (p : Cell.port) ->
        let find arr node_of =
          let acc = ref None in
          Array.iteri
            (fun i a ->
              if !acc = None && Rect.touches_or_overlaps a p.rect then
                acc := Some (uf_find nodes (node_of i)))
            arr;
          !acc
        in
        let node =
          match p.layer with
          | Layer.Poly -> find poly_arr poly_node
          | Layer.Diffusion -> find diff_arr diff_node
          | Layer.Metal -> find metal_arr metal_node
          | _ -> None
        in
        match node with
        | Some n -> Some (p.pname, n)
        | None ->
          warn "port %s touches no conductor" p.pname;
          None)
      (Cell.ports cell)
  in
  (* canonicalize node numbers densely *)
  let canon = Hashtbl.create 32 in
  let next = ref 0 in
  let id n =
    let r = uf_find nodes n in
    match Hashtbl.find_opt canon r with
    | Some v -> v
    | None ->
      let v = !next in
      incr next;
      Hashtbl.replace canon r v;
      v
  in
  let devices =
    List.map
      (fun d ->
        { d with
          gate = (if d.gate >= 0 then id d.gate else -1)
        ; terminals = List.map id d.terminals
        })
      devices
  in
  let named = List.map (fun (n, node) -> (n, id node)) named in
  { node_count = !next; devices; named; warnings = List.rev !warnings }
