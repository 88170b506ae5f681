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
  (* The all-pairs deck took ~2.7 s of CPU on the pdp8 layout; the
     sorted sweep takes ~0.5 s.  Budget at 10x the observed sweep time
     so the test only trips if the quadratic behaviour comes back. *)
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
  ]
