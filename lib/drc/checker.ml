open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t
  ; detail : string
  }

(* --- rectangle cover: is [target] fully covered by the union of [covers]?
   Recursive splitting: find a cover overlapping the target and recurse
   on the at most four pieces of the target outside it. *)
let rec covered target covers =
  Rect.is_empty target
  ||
  match List.find_opt (fun c -> Rect.overlaps c target) covers with
  | None -> false
  | Some c -> List.for_all (fun p -> covered p covers) (Rect.minus target c)

(* the non-empty rectangles of each layer, by [Layer.index], the last
   flattened first *)
let layer_arrays flat =
  let count = Array.make Layer.count 0 in
  let each f =
    List.iter
      (fun (fb : Flatten.flat_box) ->
        if not (Rect.is_empty fb.rect) then f (Layer.index fb.layer) fb.rect)
      flat
  in
  each (fun i _ -> count.(i) <- count.(i) + 1);
  let layers = Array.map (fun n -> Array.make n (Rect.make 0 0 0 0)) count in
  each (fun i r ->
      count.(i) <- count.(i) - 1;
      layers.(i).(count.(i)) <- r);
  layers

(* split [0, n) into at most [parts] contiguous ranges *)
let ranges n parts =
  let parts = max 1 (min parts n) in
  let per = (n + parts - 1) / parts in
  List.init parts (fun k -> (k * per, min n ((k + 1) * per)))
  |> List.filter (fun (lo, hi) -> lo < hi)

(* The deck is decomposed into independent tasks (per layer, per rule,
   and — for enclosure — per contiguous slice of the sorted inner
   rectangles) and run on the worker pool.  Each task accumulates
   its own violations in scan order; concatenating the task results in
   submission order reproduces the sequential list exactly, so any [-j]
   level yields byte-identical reports.

   Neighbour rules find candidates through a {!Rect_index} (shared by a
   layer's tasks, one cursor per task) and then apply the same pair
   tests a sweep over the xmin-sorted array would: the index returns
   every rectangle within the rule distance in ascending array order,
   so each rectangle's violations come out in sweep order. *)
let check_flat ?pool flat =
  let pool = match pool with Some p -> p | None -> Sc_par.Pool.default () in
  let collect f =
    let violations = ref [] in
    let add rule where detail =
      violations := { rule; where; detail } :: !violations
    in
    f add;
    List.rev !violations
  in
  (* First step, one task per layer: the width rule in flattening
     order, then the layer is sorted by xmin in place and indexed for
     the neighbour rules. *)
  let by_layer = layer_arrays flat in
  let layers =
    Sc_par.Pool.map_list ~label:"drc.layer" pool
      (fun l ->
        let rects = by_layer.(Layer.index l) in
        let widths =
          collect (fun add ->
              let w = Rules.min_width l in
              Array.iter
                (fun r ->
                  let narrow = Int.min (Rect.width r) (Rect.height r) in
                  if narrow < w then
                    add (Rules.Min_width (l, w)) r
                      (Printf.sprintf "feature is %d lambda wide" narrow))
                rects)
        in
        Array.sort (fun r1 r2 -> Int.compare r1.Rect.xmin r2.Rect.xmin) rects;
        (widths, Rect_index.create rects))
      Layer.all
  in
  let index = Array.of_list (List.map snd layers) in
  let layer_index l = index.(Layer.index l) in
  let shards n = ranges n (4 * Sc_par.Pool.size pool) in
  (* Same-layer spacing between distinct regions: one task per layer
     (region labelling needs the whole layer).  Each pair is tested
     from its earlier member [i], within the x-window [xmin_j <=
     xmax_i + s]. *)
  let spacing_tasks =
    List.filter_map
      (fun l ->
        let s = Rules.min_spacing l in
        if s > 0 then
          Some
            (fun () ->
              collect (fun add ->
                  let idx = layer_index l in
                  let rects = Rect_index.rects idx in
                  let region = Rect_index.components idx in
                  let near = Rect_index.cursor idx in
                  Array.iteri
                    (fun i ri ->
                      for k = 0 to Rect_index.near near ~within:(s - 1) ri - 1 do
                        let j = Rect_index.hit near k in
                        let rj = rects.(j) in
                        if j > i
                           && rj.Rect.xmin <= ri.Rect.xmax + s
                           && region.(i) <> region.(j)
                        then begin
                          let sep = Rect.separation ri rj in
                          if sep < s then
                            add
                              (Rules.Min_spacing (l, l, s))
                              ri
                              (Printf.sprintf "to %s: %d < %d"
                                 (Rect.to_string rj) sep s)
                        end
                      done)
                    rects))
        else None)
      Layer.all
  in
  (* Cross-layer spacing; overlapping or abutting shapes are related
     (transistors, butting contacts) and exempt.  Both layers merge into
     one xmin-sorted array with its own index; every pair is tested
     from its earlier member.  One task per layer pair: building the
     merged index costs more than the scan. *)
  let cross_tasks =
    List.filter_map
      (fun (la, lb) ->
        let s = Rules.cross_spacing la lb in
        if s > 0 && not (Layer.equal la lb) then
          Some
            (fun () ->
              collect (fun add ->
                  let merged =
                    Array.append
                      (Array.map (fun r -> (r, true)) (Rect_index.rects (layer_index la)))
                      (Array.map (fun r -> (r, false)) (Rect_index.rects (layer_index lb)))
                  in
                  Array.sort
                    (fun (r1, t1) (r2, t2) ->
                      match Int.compare r1.Rect.xmin r2.Rect.xmin with
                      | 0 -> (
                        match Bool.compare t1 t2 with
                        | 0 -> Rect.compare r1 r2
                        | c -> c)
                      | c -> c)
                    merged;
                  let near = Rect_index.cursor (Rect_index.create (Array.map fst merged)) in
                  Array.iteri
                    (fun i (ri, ti) ->
                      for k = 0 to Rect_index.near near ~within:(s - 1) ri - 1 do
                        let j = Rect_index.hit near k in
                        let rj, tj = merged.(j) in
                        if j > i && rj.Rect.xmin <= ri.Rect.xmax + s && ti <> tj
                        then begin
                          let a, b = if ti then (ri, rj) else (rj, ri) in
                          let sep = Rect.separation a b in
                          if (not (Rect.overlaps a b)) && sep < s then
                            add (Rules.Min_spacing (la, lb, s)) a
                              (Printf.sprintf "to %s on %s: %d < %d"
                                 (Rect.to_string b) (Layer.to_string lb) sep s)
                        end
                      done)
                    merged))
        else None)
      [ (Layer.Poly, Layer.Diffusion) ]
  in
  (* Enclosure: the candidate covers of each inner rectangle are the
     outer rectangles touching it grown by the margin, in array order,
     before the recursive cover test; sliced across the pool. *)
  let enclosure_tasks =
    List.concat_map
      (fun (inner, outer) ->
        let m = Rules.enclosure ~inner ~outer in
        if m > 0 then begin
          let inners = Rect_index.rects (layer_index inner) in
          let outers = layer_index outer in
          let outer_rects = Rect_index.rects outers in
          List.map
            (fun (lo, hi) () ->
              collect (fun add ->
                  let near = Rect_index.cursor outers in
                  for i = lo to hi - 1 do
                    let r = inners.(i) in
                    let target = Rect.inflate m r in
                    let candidates = ref [] in
                    for k = Rect_index.near near ~within:0 target - 1 downto 0 do
                      candidates := outer_rects.(Rect_index.hit near k) :: !candidates
                    done;
                    if not (covered target !candidates) then
                      add
                        (Rules.Min_enclosure (inner, outer, m))
                        r
                        (Printf.sprintf "not enclosed by %s with margin %d"
                           (Layer.to_string outer) m)
                  done))
            (shards (Array.length inners))
        end
        else [])
      [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ]
  in
  List.concat_map fst layers
  @ List.concat
      (Sc_par.Pool.run ~label:"drc.shard" pool
         (spacing_tasks @ cross_tasks @ enclosure_tasks))

let check ?pool cell =
  Sc_obs.Obs.span "drc" @@ fun () ->
  let vs = check_flat ?pool (Flatten.run cell) in
  Sc_obs.Obs.count "drc.violations" (List.length vs);
  vs

let is_clean cell = check cell = []

let pp_violation ppf v =
  Format.fprintf ppf "%a at %a: %s" Rules.pp_rule v.rule Rect.pp v.where v.detail

let report ppf = function
  | [] -> Format.fprintf ppf "DRC clean@."
  | vs ->
    Format.fprintf ppf "%d DRC violations:@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs
