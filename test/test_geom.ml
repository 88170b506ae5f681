open Sc_geom

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- generators --- *)

let small_int = QCheck.Gen.int_range (-50) 50

let gen_point = QCheck.Gen.map2 Point.make small_int small_int

let gen_rect =
  QCheck.Gen.map2
    (fun (x0, y0) (x1, y1) -> Rect.make x0 y0 x1 y1)
    (QCheck.Gen.pair small_int small_int)
    (QCheck.Gen.pair small_int small_int)

let gen_orient = QCheck.Gen.oneofl Transform.all_orients

let gen_transform =
  QCheck.Gen.map2
    (fun o p -> Transform.make ~orient:o p)
    gen_orient gen_point

let arb_rect = QCheck.make ~print:Rect.to_string gen_rect

let arb_rect2 = QCheck.make
    ~print:(fun (a, b) -> Rect.to_string a ^ " " ^ Rect.to_string b)
    (QCheck.Gen.pair gen_rect gen_rect)

let arb_transform_point =
  QCheck.make
    ~print:(fun ((t : Transform.t), (p : Point.t)) ->
      Printf.sprintf "%s(%d,%d) (%d,%d)" (Transform.orient_to_string t.orient)
        t.shift.x t.shift.y p.x p.y)
    (QCheck.Gen.pair gen_transform gen_point)

let arb_two_transforms_point =
  QCheck.make (QCheck.Gen.triple gen_transform gen_transform gen_point)

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* --- unit tests --- *)

let test_rect_normalizes () =
  let r = Rect.make 5 7 2 3 in
  check "xmin" 2 r.Rect.xmin;
  check "ymin" 3 r.Rect.ymin;
  check "width" 3 (Rect.width r);
  check "height" 4 (Rect.height r);
  check "area" 12 (Rect.area r)

let test_rect_center_corner () =
  let r = Rect.of_corner_wh ~x:2 ~y:3 ~w:4 ~h:6 in
  Alcotest.check Alcotest.bool "center" true
    (Point.equal (Rect.center r) (Point.make 4 6));
  let c = Rect.of_center_wh ~cx:0 ~cy:0 ~w:4 ~h:4 in
  check "cxmin" (-2) c.Rect.xmin;
  check "cxmax" 2 c.Rect.xmax

let test_rect_relations () =
  let a = Rect.make 0 0 4 4 and b = Rect.make 4 0 8 4 in
  check_bool "abutting do not overlap" false (Rect.overlaps a b);
  check_bool "abutting touch" true (Rect.touches_or_overlaps a b);
  check "separation of abutting" 0 (Rect.separation a b);
  let c = Rect.make 6 0 9 4 in
  check "separation gap" 2 (Rect.separation a c);
  let d = Rect.make 6 9 9 12 in
  check "diagonal separation is max gap" 5 (Rect.separation a d)

let test_rect_inflate_negative () =
  let r = Rect.make 0 0 10 10 in
  let shrunk = Rect.inflate (-3) r in
  check "shrunk width" 4 (Rect.width shrunk);
  let collapsed = Rect.inflate (-7) r in
  check_bool "over-shrink collapses" true (Rect.is_empty collapsed)

let test_path_rects () =
  let p = Path.make ~width:2 [ Point.make 0 0; Point.make 10 0; Point.make 10 8 ] in
  let rs = Path.to_rects p in
  Alcotest.(check int) "two segments" 2 (List.length rs);
  let h = List.nth rs 0 in
  check_bool "horizontal segment padded" true
    (Rect.equal h (Rect.make (-1) (-1) 11 1));
  check_bool "manhattan" true (Path.is_manhattan p)

let test_path_rejects () =
  Alcotest.check_raises "odd width" (Invalid_argument "Path.to_rects: width must be even (half-width padding)")
    (fun () -> ignore (Path.to_rects (Path.make ~width:3 [ Point.origin; Point.make 4 0 ])));
  Alcotest.check_raises "diagonal" (Invalid_argument "Path.to_rects: non-Manhattan segment")
    (fun () -> ignore (Path.to_rects (Path.make ~width:2 [ Point.origin; Point.make 4 3 ])))

let test_transform_known_values () =
  let p = Point.make 3 1 in
  let app o = Transform.apply (Transform.make ~orient:o Point.origin) p in
  check_bool "R90" true (Point.equal (app Transform.R90) (Point.make (-1) 3));
  check_bool "R180" true (Point.equal (app Transform.R180) (Point.make (-3) (-1)));
  check_bool "MX" true (Point.equal (app Transform.MX) (Point.make 3 (-1)));
  check_bool "MY" true (Point.equal (app Transform.MY) (Point.make (-3) 1));
  check_bool "MX90" true (Point.equal (app Transform.MX90) (Point.make 1 3))

let test_orient_group_closure () =
  let at o = Transform.make ~orient:o Point.origin in
  List.iter
    (fun a ->
      List.iter
        (fun b -> ignore (Transform.compose (at a) (at b)))
        Transform.all_orients)
    Transform.all_orients

(* --- rectangle index --- *)

(* [near] must return exactly the brute-force filter, ascending *)
let near_list idx ~within q =
  let c = Rect_index.cursor idx in
  List.init (Rect_index.near c ~within q) (Rect_index.hit c)

let brute_near rects ~within q =
  List.filter
    (fun i -> Rect.separation q rects.(i) <= within)
    (List.init (Array.length rects) Fun.id)

let check_near name rects ~within q =
  Alcotest.(check (list int)) name (brute_near rects ~within q)
    (near_list (Rect_index.create rects) ~within q)

let test_index_edge_cases () =
  let idx = Rect_index.create [||] in
  Alcotest.(check (list int)) "empty array" [] (near_list idx ~within:5 (Rect.make 0 0 1 1));
  Alcotest.(check (array int)) "empty components" [||] (Rect_index.components idx);
  (* many small boxes make small tiles; a long rail spans most of them *)
  let grid =
    Array.init 400 (fun k ->
        let x = 5 * (k mod 20) and y = 5 * (k / 20) in
        Rect.make x y (x + 2) (y + 2))
  in
  let rects = Array.append grid [| Rect.make (-3) 41 120 43; Rect.make 50 50 50 50 |] in
  check_near "query spanning every tile" rects ~within:0 (Rect.make (-10) (-10) 200 200);
  check_near "the rail's neighbours" rects ~within:2 rects.(400);
  check_near "a degenerate query" rects ~within:0 (Rect.make 7 7 7 7);
  check_near "a degenerate member" rects ~within:1 (Rect.make 49 49 49 49);
  check_near "outside the bounding box" rects ~within:3 (Rect.make 300 300 310 310);
  check_near "margin reaches in from outside" rects ~within:4 (Rect.make (-6) (-6) (-5) (-5));
  check_near "left of every tile" rects ~within:0 (Rect.make (-50) 10 (-4) 12);
  (* one cursor serves many queries *)
  let idx = Rect_index.create rects in
  let c = Rect_index.cursor idx in
  Array.iteri
    (fun i r ->
      let n = Rect_index.near c ~within:1 r in
      Alcotest.(check (list int)) (Printf.sprintf "reused cursor, query %d" i)
        (brute_near rects ~within:1 r)
        (List.init n (Rect_index.hit c)))
    rects

(* reference labelling: flood fill over all touching pairs; the label
   of a region is its first member *)
let touch_labels rects =
  let n = Array.length rects in
  let label = Array.make n (-1) in
  let rec fill l i =
    if label.(i) < 0 then begin
      label.(i) <- l;
      for j = 0 to n - 1 do
        if Rect.touches_or_overlaps rects.(i) rects.(j) then fill l j
      done
    end
  in
  Array.iteri (fun i _ -> fill i i) rects;
  label

let gen_index_case =
  let open QCheck.Gen in
  let box =
    let* x = int_range (-40) 40 and* y = int_range (-40) 40 in
    let* w = frequency [ (6, int_range 0 6); (1, int_range 30 120) ]
    and* h = frequency [ (6, int_range 0 6); (1, int_range 30 120) ] in
    pure (Rect.make x y (x + w) (y + h))
  in
  triple (array_size (int_range 0 60) box) box (int_range 0 6)

let prop_index_near_is_filter =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1DE5; 7 |])
    (QCheck.Test.make ~name:"index near = brute-force filter, ascending" ~count:300
       (QCheck.make gen_index_case) (fun (rects, q, within) ->
         let idx = Rect_index.create rects in
         near_list idx ~within q = brute_near rects ~within q
         && Array.for_all (fun r -> near_list idx ~within r = brute_near rects ~within r) rects))

let prop_index_components =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1DE5; 8 |])
    (QCheck.Test.make ~name:"index components = flood fill" ~count:200
       (QCheck.make gen_index_case) (fun (rects, _, _) ->
         let region = Rect_index.components (Rect_index.create rects) in
         let label = touch_labels rects in
         let n = Array.length rects in
         List.for_all
           (fun i ->
             region.(region.(i)) = region.(i)
             && List.for_all
                  (fun j -> region.(i) = region.(j) = (label.(i) = label.(j)))
                  (List.init n Fun.id))
           (List.init n Fun.id)))

(* --- properties --- *)

(* [contains outer inner]: the oracle of the containment laws below *)
let contains (outer : Rect.t) (inner : Rect.t) =
  outer.xmin <= inner.xmin && outer.ymin <= inner.ymin
  && inner.xmax <= outer.xmax && inner.ymax <= outer.ymax

let prop_inter_subset =
  qtest "inter result is inside both" 500
    arb_rect2
    (fun (a, b) ->
      match Rect.inter a b with
      | None -> true
      | Some i -> contains a i && contains b i)

let prop_union_superset =
  qtest "union_bbox contains both" 500 arb_rect2 (fun (a, b) ->
      let u = Rect.union_bbox a b in
      contains u a && contains u b)

let prop_separation_sym =
  qtest "separation is symmetric" 500 arb_rect2 (fun (a, b) ->
      Rect.separation a b = Rect.separation b a)

let prop_separation_zero_iff_touch =
  qtest "separation 0 iff touching" 500 arb_rect2 (fun (a, b) ->
      Rect.separation a b = 0 = Rect.touches_or_overlaps a b)

let prop_compose_is_apply_apply =
  qtest "compose agrees with nested apply" 1000 arb_two_transforms_point
    (fun (t1, t2, p) ->
      Point.equal
        (Transform.apply (Transform.compose t1 t2) p)
        (Transform.apply t1 (Transform.apply t2 p)))

let prop_invert_roundtrip =
  qtest "invert undoes apply" 1000 arb_transform_point (fun (t, p) ->
      Point.equal (Transform.apply (Transform.invert t) (Transform.apply t p)) p)

let prop_apply_rect_matches_corners =
  qtest "apply_rect is the corner image bbox" 500
    (QCheck.make (QCheck.Gen.pair gen_transform gen_rect))
    (fun (t, r) ->
      let lo, hi = Rect.corners r in
      let p = Transform.apply t lo and q = Transform.apply t hi in
      Rect.equal (Transform.apply_rect t r)
        (Rect.make p.Point.x p.Point.y q.Point.x q.Point.y))

let prop_rect_area_preserved =
  qtest "transform preserves area" 500
    (QCheck.make (QCheck.Gen.pair gen_transform gen_rect))
    (fun (t, r) -> Rect.area (Transform.apply_rect t r) = Rect.area r)

let prop_minus_pieces =
  qtest "minus: disjoint pieces of a outside b" 1000 arb_rect2 (fun (a, b) ->
      let pieces = Rect.minus a b in
      let rec disjoint = function
        | [] -> true
        | p :: rest ->
          List.for_all (fun q -> not (Rect.overlaps p q)) rest && disjoint rest
      in
      let cut = match Rect.inter a b with Some i -> Rect.area i | None -> 0 in
      List.length pieces <= 4
      && List.for_all (fun p -> contains a p && not (Rect.overlaps p b)) pieces
      && disjoint pieces
      && List.fold_left (fun s p -> s + Rect.area p) 0 pieces = Rect.area a - cut)

let suite =
  [ Alcotest.test_case "rect normalizes" `Quick test_rect_normalizes
  ; Alcotest.test_case "rect center/corner constructors" `Quick test_rect_center_corner
  ; Alcotest.test_case "rect relations" `Quick test_rect_relations
  ; Alcotest.test_case "rect negative inflate" `Quick test_rect_inflate_negative
  ; Alcotest.test_case "path to rects" `Quick test_path_rects
  ; Alcotest.test_case "path rejects bad input" `Quick test_path_rejects
  ; Alcotest.test_case "transform known values" `Quick test_transform_known_values
  ; Alcotest.test_case "orient group closed" `Quick test_orient_group_closure
  ; prop_inter_subset
  ; prop_union_superset
  ; prop_separation_sym
  ; prop_separation_zero_iff_touch
  ; prop_compose_is_apply_apply
  ; prop_invert_roundtrip
  ; prop_apply_rect_matches_corners
  ; prop_rect_area_preserved
  ; Alcotest.test_case "index edge cases" `Quick test_index_edge_cases
  ; prop_index_near_is_filter
  ; prop_index_components
  ; prop_minus_pieces
  ]
