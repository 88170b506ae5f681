open Sc_geom
open Sc_tech
open Sc_layout
open Sc_drc

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cell name elements = Cell.make ~name elements

let has_rule vs pred = List.exists (fun v -> pred v.Checker.rule) vs

let test_clean_layout () =
  let c =
    cell "ok"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 0 6 10 9)
      ; Cell.box Layer.Poly (Rect.make 20 0 22 10)
      ]
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Checker.detail) (Checker.check c))

let test_narrow_poly () =
  let c = cell "narrow" [ Cell.box Layer.Poly (Rect.make 0 0 1 10) ] in
  let vs = Checker.check c in
  check_int "one violation" 1 (List.length vs);
  check_bool "width rule" true
    (has_rule vs (function Rules.Min_width (Layer.Poly, 2) -> true | _ -> false))

let test_metal_spacing () =
  let c =
    cell "close"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 0 5 10 8)
      ]
  in
  let vs = Checker.check c in
  check_bool "spacing violation" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Metal, Layer.Metal, 3) -> true
      | _ -> false))

let test_touching_metal_merged () =
  (* Two abutting metal tiles form one region: no spacing violation. *)
  let c =
    cell "merged"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 10 0 20 3)
      ]
  in
  check_bool "clean" true (Checker.is_clean c)

let test_chained_regions () =
  (* A-touches-B-touches-C: A and C are the same region even though far
     apart in the list; the L-shape comes back near A without violation. *)
  let c =
    cell "chain"
      [ Cell.box Layer.Metal (Rect.make 0 0 3 20)
      ; Cell.box Layer.Metal (Rect.make 3 17 20 20)
      ; Cell.box Layer.Metal (Rect.make 17 0 20 17)
      ]
  in
  check_bool "one region, clean" true (Checker.is_clean c)

let test_transistor_not_flagged () =
  let c =
    cell "fet"
      [ Cell.box Layer.Diffusion (Rect.make 0 2 10 6)
      ; Cell.box Layer.Poly (Rect.make 4 0 6 8)
      ]
  in
  check_bool "gate is clean" true (Checker.is_clean c)

let test_poly_diff_abutment_flagged () =
  let c =
    cell "abut"
      [ Cell.box Layer.Diffusion (Rect.make 0 0 4 4)
      ; Cell.box Layer.Poly (Rect.make 4 0 8 4)
      ]
  in
  let vs = Checker.check c in
  check_bool "poly-diff abutment flagged" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Poly, Layer.Diffusion, _) -> true
      | _ -> false))

let test_contact_enclosure () =
  let bad =
    cell "bad_contact"
      [ Cell.box Layer.Contact (Rect.make 0 0 2 2)
      ; Cell.box Layer.Metal (Rect.make 0 0 3 3)
      ]
  in
  let vs = Checker.check bad in
  check_bool "enclosure violated" true
    (has_rule vs (function
      | Rules.Min_enclosure (Layer.Contact, Layer.Metal, 1) -> true
      | _ -> false));
  let good =
    cell "good_contact"
      [ Cell.box Layer.Contact (Rect.make 1 1 3 3)
      ; Cell.box Layer.Metal (Rect.make 0 0 4 4)
      ]
  in
  check_bool "enclosed contact clean" true (Checker.is_clean good)

let test_enclosure_by_union () =
  (* The margin region is covered by two metal rects jointly. *)
  let c =
    cell "union_cover"
      [ Cell.box Layer.Contact (Rect.make 3 3 5 5)
      ; Cell.box Layer.Metal (Rect.make 2 2 5 6)
      ; Cell.box Layer.Metal (Rect.make 5 2 9 6)
      ]
  in
  check_bool "union cover accepted" true (Checker.is_clean c)

let test_violation_in_instances () =
  (* Violations across instance boundaries are caught after flattening. *)
  let half = cell "half" [ Cell.box Layer.Metal (Rect.make 0 0 4 4) ] in
  let c =
    Cell.make ~name:"pair"
      ~instances:
        [ Cell.instantiate ~name:"a" half
        ; Cell.instantiate ~name:"b" ~trans:(Transform.translation 6 0) half
        ]
      []
  in
  let vs = Checker.check c in
  check_bool "cross-instance spacing flagged" true (List.length vs > 0)

let test_wide_rect_not_missed_by_sweep () =
  (* Regression for the sorted cross-layer sweep: a rectangle whose xmin
     is far to the left can still reach a partner through its xmax.  A
     sweep keyed on xmin distances alone would skip this pair; the
     window must extend to xmax + spacing. *)
  let c =
    cell "wide"
      [ Cell.box Layer.Poly (Rect.make 0 0 40 2)
      ; Cell.box Layer.Diffusion (Rect.make 38 2 42 6)
      ]
  in
  let vs = Checker.check c in
  check_bool "wide-rect abutment flagged" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Poly, Layer.Diffusion, _) -> true
      | _ -> false));
  (* same shape, pushed one lambda apart: clean *)
  let ok =
    cell "wide_ok"
      [ Cell.box Layer.Poly (Rect.make 0 0 40 2)
      ; Cell.box Layer.Diffusion (Rect.make 38 3 42 7)
      ]
  in
  check_bool "spaced version clean" true (Checker.is_clean ok)

let test_wide_outer_still_encloses () =
  (* Same concern on the enclosure pass: the covering metal starts far
     left of the contact but still encloses it. *)
  let c =
    cell "wide_cover"
      [ Cell.box Layer.Contact (Rect.make 30 1 32 3)
      ; Cell.box Layer.Metal (Rect.make 0 0 40 4)
      ]
  in
  check_bool "wide metal accepted as cover" true (Checker.is_clean c)

let test_pdp8_drc_time_budget () =
  (* On the pdp8 layout the all-pairs deck took ~2.7 s of CPU and the
     x-sorted sweep ~0.5 s; the grid-indexed deck takes ~0.05 s.  The
     5 s budget only trips if the all-pairs behaviour comes back. *)
  let d = Sc_core.Designs.parse Sc_core.Designs.pdp8_src in
  let r = Sc_synth.Synth.gates d in
  let layout =
    Sc_place.Placer.to_layout ~name:"pdp8"
      (Sc_place.Placer.ordered
         (Sc_place.Placer.problem_of_circuit r.Sc_synth.Synth.circuit))
  in
  let flat = Flatten.run layout in
  let t0 = Sys.time () in
  let vs = Checker.check_flat flat in
  let dt = Sys.time () -. t0 in
  check_int "pdp8 layout is DRC clean" 0 (List.length vs);
  check_bool (Printf.sprintf "DRC under budget (%.2fs cpu)" dt) true (dt < 5.0)

(* property: inflating every metal rect's position apart by >= spacing keeps
   layouts clean on the metal rules *)
let prop_spaced_metal_clean =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (pair (int_range 0 10) (int_range 0 10)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"well-spaced metal grid is clean" ~count:100
       (QCheck.make gen) (fun cells ->
         let boxes =
           List.map
             (fun (i, j) ->
               Cell.box Layer.Metal
                 (Rect.make (i * 10) (j * 10) ((i * 10) + 4) ((j * 10) + 4)))
             cells
         in
         (* duplicates coincide exactly: same region, still clean *)
         Checker.is_clean (cell "grid" boxes)))

(* --- differential check: the indexed kernels against all-pairs
   references --- *)

(* The checker's order: width per layer in flattening order, then
   per-layer spacing, cross-layer spacing and enclosure, each scanning
   rectangles in xmin order (as [Array.sort] leaves them) and pairing
   each with every later one. *)
let xmin_sorted rs =
  let a = Array.of_list rs in
  Array.sort (fun r1 r2 -> Int.compare r1.Rect.xmin r2.Rect.xmin) a;
  a

(* coverage by coordinate compression: every elementary cell of
   [target], cut at the covers' edges, has its centre inside a cover *)
let covered_by target covers =
  let cuts lo hi edges =
    List.sort_uniq Int.compare
      (lo :: hi :: List.filter (fun e -> lo < e && e < hi) edges)
  in
  let rec spans = function a :: (b :: _ as rest) -> (a, b) :: spans rest | _ -> [] in
  let xs = cuts target.Rect.xmin target.Rect.xmax
      (List.concat_map (fun c -> [ c.Rect.xmin; c.Rect.xmax ]) covers)
  and ys = cuts target.Rect.ymin target.Rect.ymax
      (List.concat_map (fun c -> [ c.Rect.ymin; c.Rect.ymax ]) covers)
  in
  Rect.is_empty target
  || List.for_all
       (fun (x0, x1) ->
         List.for_all
           (fun (y0, y1) ->
             List.exists
               (fun c ->
                 2 * c.Rect.xmin < x0 + x1 && x0 + x1 < 2 * c.Rect.xmax
                 && 2 * c.Rect.ymin < y0 + y1 && y0 + y1 < 2 * c.Rect.ymax)
               covers)
           (spans ys))
       (spans xs)

let reference_check flat =
  let by_layer = Array.make Layer.count [] in
  List.iter
    (fun (fb : Flatten.flat_box) ->
      if not (Rect.is_empty fb.rect) then
        by_layer.(Layer.index fb.layer) <- fb.rect :: by_layer.(Layer.index fb.layer))
    flat;
  let sorted l = xmin_sorted by_layer.(Layer.index l) in
  let out = ref [] in
  let add rule where detail = out := { Checker.rule; where; detail } :: !out in
  List.iter
    (fun l ->
      let w = Rules.min_width l in
      List.iter
        (fun r ->
          let narrow = min (Rect.width r) (Rect.height r) in
          if narrow < w then
            add (Rules.Min_width (l, w)) r (Printf.sprintf "feature is %d lambda wide" narrow))
        by_layer.(Layer.index l))
    Layer.all;
  List.iter
    (fun l ->
      let s = Rules.min_spacing l in
      let rects = sorted l in
      let label = Test_geom.touch_labels rects in
      let n = Array.length rects in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let sep = Rect.separation rects.(i) rects.(j) in
          if label.(i) <> label.(j) && sep < s then
            add (Rules.Min_spacing (l, l, s)) rects.(i)
              (Printf.sprintf "to %s: %d < %d" (Rect.to_string rects.(j)) sep s)
        done
      done)
    Layer.all;
  let la, lb = (Layer.Poly, Layer.Diffusion) in
  let s = Rules.cross_spacing la lb in
  let merged =
    Array.append
      (Array.map (fun r -> (r, true)) (sorted la))
      (Array.map (fun r -> (r, false)) (sorted lb))
  in
  Array.sort
    (fun (r1, t1) (r2, t2) ->
      match Int.compare r1.Rect.xmin r2.Rect.xmin with
      | 0 -> compare (t1, r1) (t2, r2)
      | c -> c)
    merged;
  let n = Array.length merged in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ri, ti = merged.(i) and rj, tj = merged.(j) in
      let a, b = if ti then (ri, rj) else (rj, ri) in
      let sep = Rect.separation a b in
      if ti <> tj && (not (Rect.overlaps a b)) && sep < s then
        add (Rules.Min_spacing (la, lb, s)) a
          (Printf.sprintf "to %s on %s: %d < %d" (Rect.to_string b)
             (Layer.to_string lb) sep s)
    done
  done;
  List.iter
    (fun (inner, outer) ->
      let m = Rules.enclosure ~inner ~outer in
      let covers = Array.to_list (sorted outer) in
      Array.iter
        (fun r ->
          if not (covered_by (Rect.inflate m r) covers) then
            add (Rules.Min_enclosure (inner, outer, m)) r
              (Printf.sprintf "not enclosed by %s with margin %d"
                 (Layer.to_string outer) m))
        (sorted inner))
    [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ];
  List.rev !out

(* Random hierarchies: leaf cells of boxes on every layer placed as
   translated instances, plus boxes in the top cell.  Boxes include
   narrow and degenerate ones, rails long enough to cross many index
   tiles, and contacts in metal drawn whole or as two abutting halves. *)
let gen_layout =
  let open QCheck.Gen in
  let layer =
    frequency
      [ (3, pure Layer.Poly); (3, pure Layer.Diffusion); (3, pure Layer.Metal)
      ; (2, pure Layer.Contact); (2, oneofl [ Layer.Implant; Layer.Buried; Layer.Glass ])
      ]
  in
  let box =
    let* l = layer and* x = int_range 0 40 and* y = int_range 0 40 in
    let* w, h =
      frequency
        [ (12, pair (int_range 1 7) (int_range 1 7))
        ; (1, map (fun len -> (len, 3)) (int_range 80 300))
        ; (1, map (fun len -> (3, len)) (int_range 80 300))
        ; (1, map (fun w -> (w, 0)) (int_range 0 6))
        ]
    in
    pure [ Cell.box l (Rect.make x y (x + w) (y + h)) ]
  in
  let via =
    let* x = int_range 0 40 and* y = int_range 0 40 and* split = bool and* m = int_range 0 2 in
    let metal =
      if split then
        [ Rect.make (x - m) (y - m) (x + 1) (y + 2 + m); Rect.make (x + 1) (y - m) (x + 2 + m) (y + 2 + m) ]
      else [ Rect.make (x - m) (y - m) (x + 2 + m) (y + 2 + m) ]
    in
    pure
      (Cell.box Layer.Contact (Rect.make x y (x + 2) (y + 2))
      :: List.map (Cell.box Layer.Metal) metal)
  in
  let boxes lo hi = map List.concat (list_size (int_range lo hi) (frequency [ (6, box); (1, via) ])) in
  let* leaves = list_size (int_range 1 3) (boxes 2 12) in
  let leaves = List.mapi (fun k b -> Cell.make ~name:(Printf.sprintf "leaf%d" k) b) leaves in
  let* top = boxes 0 8 in
  let* placed =
    list_size (int_range 0 10)
      (triple (int_bound (List.length leaves - 1)) (int_range (-20) 120) (int_range (-20) 120))
  in
  let instances =
    List.mapi
      (fun k (leaf, dx, dy) ->
        Cell.instantiate ~name:(Printf.sprintf "i%d" k)
          ~trans:(Transform.translation dx dy) (List.nth leaves leaf))
      placed
  in
  pure (Cell.make ~name:"top" ~instances top)

let test_matches_reference () =
  let p1 = Sc_par.Pool.create ~domains:1 () and p2 = Sc_par.Pool.create ~domains:2 () in
  let seen = Hashtbl.create 16 and most_gates = ref 0 in
  Fun.protect
    ~finally:(fun () -> Sc_par.Pool.shutdown p1; Sc_par.Pool.shutdown p2)
    (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0xD1FF; 14 |])
        (QCheck.Test.make ~name:"indexed kernels = all-pairs references" ~count:150
           (QCheck.make ~print:(fun c -> Printf.sprintf "%d flat boxes" (Cell.flat_rect_count c)) gen_layout)
           (fun layout ->
             let flat = Flatten.run layout in
             let expected = reference_check flat in
             List.iter (fun v -> Hashtbl.replace seen v.Checker.rule ()) expected;
             let gates = List.length (Extract_reference.extract layout).devices in
             most_gates := max !most_gates gates;
             Checker.check_flat ~pool:p1 flat = expected
             && Checker.check_flat ~pool:p2 flat = expected
             && Stats.transistor_count layout = gates)));
  List.iter
    (fun rule ->
      check_bool (Format.asprintf "some case violates %a" Rules.pp_rule rule) true
        (Hashtbl.mem seen rule))
    Rules.deck;
  check_bool "some case has several gates" true (!most_gates >= 3)

let suite =
  [ Alcotest.test_case "clean layout" `Quick test_clean_layout
  ; Alcotest.test_case "narrow poly flagged" `Quick test_narrow_poly
  ; Alcotest.test_case "metal spacing flagged" `Quick test_metal_spacing
  ; Alcotest.test_case "touching metal merged" `Quick test_touching_metal_merged
  ; Alcotest.test_case "chained regions merged" `Quick test_chained_regions
  ; Alcotest.test_case "transistor not flagged" `Quick test_transistor_not_flagged
  ; Alcotest.test_case "poly-diff abutment flagged" `Quick test_poly_diff_abutment_flagged
  ; Alcotest.test_case "contact enclosure" `Quick test_contact_enclosure
  ; Alcotest.test_case "enclosure by union of rects" `Quick test_enclosure_by_union
  ; Alcotest.test_case "violations across instances" `Quick test_violation_in_instances
  ; Alcotest.test_case "wide rect not missed by sweep" `Quick
      test_wide_rect_not_missed_by_sweep
  ; Alcotest.test_case "wide outer still encloses" `Quick
      test_wide_outer_still_encloses
  ; Alcotest.test_case "pdp8 DRC time budget" `Slow test_pdp8_drc_time_budget
  ; prop_spaced_metal_clean
  ; Alcotest.test_case "indexed kernels match all-pairs references" `Quick
      test_matches_reference
  ]
