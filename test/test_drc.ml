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

(* [with_agree f] passes [f] a function that checks a layout with the
   hierarchical checker against the flat deck, and its transistor count
   against the flat count, and returns the violations. *)
let with_agree f =
  f (fun name layout ->
      let expected = Checker.check_flat (Flatten.run layout) in
      check_bool (name ^ ": check = check_flat") true (Checker.check layout = expected);
      check_int (name ^ ": transistor_count = flat count")
        (Stats_reference.transistor_count layout)
        (Stats.transistor_count layout);
      expected)

(* The root decides what is still open by union-find roots: a spacing
   gap or a bare contact inherited from two levels down, which a sibling
   at the root closes or leaves open. *)
let test_root_decides_inherited () =
  let metal r = Cell.box Layer.Metal r in
  (* two metal bars 2 apart (the rule is 3), one level down *)
  let pair = cell "pair" [ metal (Rect.make 0 0 4 3); metal (Rect.make 0 5 4 8) ] in
  (* a contact whose metal stops short of the margin above it *)
  let via =
    cell "via" [ Cell.box Layer.Contact (Rect.make 1 1 3 3); metal (Rect.make 0 0 4 3) ]
  in
  let mid name sub = Cell.make ~name ~instances:[ Cell.instantiate ~name:"s" sub ] [] in
  let root name sub sibling =
    Cell.make ~name
      ~instances:
        [ Cell.instantiate ~name:"m" (mid (name ^ "_mid") sub)
        ; Cell.instantiate ~name:"n" (cell (name ^ "_side") [ metal sibling ])
        ]
      []
  in
  let spacing v = v.Checker.rule = Rules.Min_spacing (Layer.Metal, Layer.Metal, 3) in
  let enclosure v = v.Checker.rule = Rules.Min_enclosure (Layer.Contact, Layer.Metal, 1) in
  with_agree (fun agree ->
      check_bool "the pair alone violates" true
        (List.exists spacing (agree "pair" (mid "pair_mid" pair)));
      check_int "a sibling joining the bars closes the gap" 0
        (List.length (agree "joined" (root "joined" pair (Rect.make 0 2 4 6))));
      check_bool "a sibling touching one bar leaves it open" true
        (List.exists spacing (agree "open" (root "open" pair (Rect.make 0 8 4 11))));
      check_bool "the via alone is bare" true
        (List.exists enclosure (agree "via" (mid "via_mid" via)));
      check_int "a sibling's metal completes the enclosure" 0
        (List.length (agree "covered" (root "covered" via (Rect.make 0 2 4 5)))))

let compiled name = function
  | Ok (c : Sc_core.Compiler.compiled) -> c
  | Error d -> Alcotest.fail (name ^ ": " ^ Sc_pipeline.Diag.to_string d)

let test_pdp8_drc_time_budget () =
  (* On the pdp8 layout the all-pairs deck took ~2.7 s of CPU, the
     grid-indexed flat deck ~0.05 s.  The 5 s budget only trips if
     quadratic behaviour comes back. *)
  with_agree @@ fun agree ->
  let c =
    compiled "pdp8" (Result.map fst (Sc_core.Compiler.compile_behavior Sc_core.Designs.pdp8_src))
  in
  let t0 = Sys.time () in
  let vs = Checker.check c.layout in
  let dt = Sys.time () -. t0 in
  check_int "pdp8 layout is DRC clean" 0 (List.length vs);
  check_bool (Printf.sprintf "DRC under budget (%.2fs cpu)" dt) true (dt < 5.0);
  ignore (agree "pdp8" c.layout);
  (* through CIF: the chip under elaboration's single-instance wrapper *)
  match Sc_cif.Elaborate.of_string c.cif with
  | Ok cell -> ignore (agree "pdp8.cif" cell)
  | Error e -> Alcotest.fail (Sc_cif.Elaborate.error_to_string e)

let test_chip_scale_equality () =
  with_agree @@ fun agree ->
  let builtins = [ "counter"; "traffic"; "alu4"; "gray"; "seqdet"; "pdp8"; "pdp8_dp" ] in
  let source name = Option.get (Sc_core.Designs.builtin name) in
  List.iter
    (fun name ->
      let c = compiled name (Result.map fst (Sc_core.Compiler.compile_behavior (source name))) in
      check_int (name ^ " is DRC clean") 0 (List.length (agree name c.layout)))
    builtins;
  (* a PLA realises only small state machines: the others stop at
     compile with a diagnostic *)
  let plas =
    List.filter
      (fun name ->
        match
          Sc_core.Compiler.compile_behavior ~style:Sc_core.Compiler.Pla_control (source name)
        with
        | Ok (c, _) ->
          ignore (agree (name ^ " (pla)") c.layout);
          true
        | Error d ->
          Alcotest.(check string) (name ^ " (pla) fails in compile") "compile" d.stage;
          false)
      builtins
  in
  check_bool "four builtins compile to PLAs" true (List.length plas >= 4);
  let c = compiled "system" (Result.map fst (Sc_core.Compiler.compile_behavior (source "system"))) in
  ignore (agree "system" c.layout);
  let counter12 = Example_file.read "counter12.v" in
  let c = compiled "counter12.v" (Result.map fst (Sc_core.Compiler.compile_verilog counter12)) in
  ignore (agree "counter12.v" c.layout);
  (* seeded violations: metal pieces too close, a contact short of its
     surround, narrow poly and a poly-diffusion abutment, in cells
     placed side by side, mirrored and rotated *)
  let seeded =
    {|
cell gap() { box metal 0 0 4 3; box metal 5 0 9 3; }
cell bare() { box contact 1 1 3 3; box metal 0 0 4 2; }
cell bits() { box poly 0 0 1 6; box diff 4 0 8 4; box poly 8 0 10 4; }
cell main() {
  inst gap() at (0, 0);
  inst bare() at (12, 0);
  inst bits() at (20, 0);
  inst gap() at (0, 10) orient MX;
  inst bits() at (40, 10) orient R90;
  inst bare() at (4, 0);
}
|}
  in
  let c = compiled "seeded.lsl" (Result.map fst
       (Result.bind
          (Sc_core.Compiler.validate
             (Sc_core.Compiler.request Sc_core.Compiler.Layout seeded))
          (fun r -> (Sc_core.Compiler.run r).result))) in
  check_bool "seeded violations found" true (List.length (agree "seeded.lsl" c.layout) >= 5)

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
   rectangles in [Rect.compare] order and pairing each with every later
   one. *)
let compare_sorted rs =
  let a = Array.of_list rs in
  Array.sort Rect.compare a;
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
  let sorted l = compare_sorted by_layer.(Layer.index l) in
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

(* Cells in which context decides, each built from two instances under
   one transform: [joined] straps two metal pieces 1 lambda apart
   ([halves] alone violates spacing), [surround] completes a contact's
   metal surround with a neighbour's metal ([via] alone violates
   enclosure), and [apart] puts two clean pads 2 lambda apart, a
   spacing violation only between the instances.  Three more decide a
   transistor count: [crossing] lays one instance's poly over the
   other's diffusion, a gate that neither draws; [cut] covers a [gate]
   with a neighbour's buried contact; and [split] abuts two mirrored
   [half]s, each drawing half of one gate. *)
let gadget kind trans =
  let part name es = Cell.make ~name es in
  let on l x0 y0 x1 y1 = Cell.box l (Rect.make x0 y0 x1 y1) in
  let metal = on Layer.Metal and poly = on Layer.Poly and diff = on Layer.Diffusion in
  let two name (c1, t1) (c2, t2) =
    Cell.make ~name
      ~instances:
        [ Cell.instantiate ~name:"p0" ~trans:t1 c1; Cell.instantiate ~name:"p1" ~trans:t2 c2 ]
      []
  in
  match kind with
  | `Joined ->
    two "joined"
      (part "halves" [ metal 0 0 4 3; metal 5 0 9 3 ], trans)
      (part "strap" [ metal 3 0 6 3 ], trans)
  | `Surround ->
    two "surround"
      ( part "via" [ Cell.box Layer.Contact (Rect.make 2 2 4 4); metal 0 0 6 3 ]
      , trans )
      (part "cap" [ metal 0 3 6 6 ], trans)
  | `Apart ->
    let pad = part "pad" [ metal 0 0 4 4 ] in
    two "apart" (pad, trans) (pad, Transform.compose trans (Transform.translation 6 0))
  | `Crossing -> two "crossing" (part "poly" [ poly 2 0 4 8 ], trans) (part "diff" [ diff 0 3 6 5 ], trans)
  | `Cut ->
    two "cut"
      (part "gate" [ poly 2 0 4 8; diff 0 3 6 5 ], trans)
      (part "buried" [ on Layer.Buried 1 2 5 6 ], trans)
  | `Split ->
    let half = part "half" [ poly 0 0 2 2; diff (-2) 1 4 2 ] in
    two "split" (half, trans)
      (half, Transform.compose trans (Transform.make ~orient:Transform.MX (Point.make 0 4)))

(* Boxes on every layer, narrow and degenerate ones among them, rails
   long enough to cross many index tiles, and contacts in metal drawn
   whole or as two abutting halves. *)
let gen_boxes lo hi =
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
  map List.concat (list_size (int_range lo hi) (frequency [ (6, box); (1, via) ]))

(* One level: leaf cells of {!gen_boxes} placed as translated
   instances, plus boxes in the top cell. *)
let gen_translated =
  let open QCheck.Gen in
  let* leaves = list_size (int_range 1 3) (gen_boxes 2 12) in
  let leaves = List.mapi (fun k b -> Cell.make ~name:(Printf.sprintf "leaf%d" k) b) leaves in
  let* top = gen_boxes 0 8 in
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

(* Random hierarchies, three to four levels deep.  Leaf cells hold
   {!gen_boxes}; next to them sit the {!gadget} cells.  A middle level
   holds cells of placed leaves (own boxes too), rows of abutting leaves
   with every odd row mirrored in x as [Placer.to_layout] builds them,
   and arrays of one cell placed many times.  The top cell places any of
   these in all eight orientations, and is sometimes wrapped in a
   single-instance cell, as CIF elaboration wraps a chip.  [kinds] are
   the gadgets to draw from. *)
let gen_layout_of kinds =
  let open QCheck.Gen in
  let boxes = gen_boxes in
  let trans span =
    let* orient = oneofl Transform.all_orients
    and* dx = int_range (-20) span
    and* dy = int_range (-20) span in
    pure (Transform.make ~orient (Point.make dx dy))
  in
  let place cells placed =
    List.mapi
      (fun k (c, t) ->
        Cell.instantiate ~name:(Printf.sprintf "i%d" k) ~trans:t (List.nth cells c))
      placed
  in
  let* leaves = list_size (int_range 1 3) (boxes 2 12) in
  let leaves = List.mapi (fun k b -> Cell.make ~name:(Printf.sprintf "leaf%d" k) b) leaves in
  let* gadgets =
    list_size (int_range 0 3) (pair (oneofl kinds) (trans 20))
  in
  let base = leaves @ List.map (fun (k, t) -> gadget k t) gadgets in
  let pick = int_bound (List.length base - 1) in
  let placed_mid =
    let* own = boxes 0 4 and* placed = list_size (int_range 1 4) (pair pick (trans 40)) in
    pure (Cell.make ~name:"mid" ~instances:(place base placed) own)
  in
  (* rows of abutting cells; odd rows mirrored in x, [gap] apart *)
  let rows =
    let* nrows = int_range 1 3 and* gap = int_range 0 4 and* cols = list_size (int_range 2 4) pick in
    let cells = List.map (List.nth base) cols in
    let h = List.fold_left (fun h c -> max h (Cell.height c)) 0 cells in
    let insts =
      List.concat
        (List.init nrows (fun r ->
             let y = r * (h + gap) in
             let x = ref 0 in
             List.map
               (fun (c : Cell.t) ->
                 let b = Cell.bbox_or_zero c in
                 let t =
                   if r land 1 = 1 then
                     Transform.make ~orient:Transform.MX
                       (Point.make (!x - b.Rect.xmin) (y + b.Rect.ymax))
                   else Transform.translation (!x - b.Rect.xmin) (y - b.Rect.ymin)
                 in
                 x := !x + Rect.width b;
                 (c, t))
               cells))
    in
    pure
      (Cell.make ~name:"rows"
         ~instances:
           (List.mapi
              (fun k (c, t) -> Cell.instantiate ~name:(Printf.sprintf "r%d" k) ~trans:t c)
              insts)
         [])
  in
  (* one cell placed many times, at a pitch that may overlap *)
  let array =
    let* c = pick and* nx = int_range 2 4 and* ny = int_range 2 3
    and* gx = int_range (-2) 4 and* gy = int_range (-2) 4 and* orient = oneofl Transform.all_orients in
    let cell = List.nth base c in
    let w = Cell.width cell + gx and h = Cell.height cell + gy in
    let placed =
      List.concat
        (List.init nx (fun i ->
             List.init ny (fun j -> (c, Transform.make ~orient (Point.make (i * w) (j * h))))))
    in
    pure (Cell.make ~name:"array" ~instances:(place base placed) [])
  in
  let* mids = list_size (int_range 0 2) (frequency [ (2, placed_mid); (1, rows); (1, array) ]) in
  let cells = base @ mids in
  let* top = boxes 0 8 in
  let any =
    frequency
      [ (3, int_bound (List.length leaves - 1)); (2, int_bound (List.length cells - 1)) ]
  in
  let* placed = list_size (int_range 0 10) (pair any (trans 120)) in
  let top = Cell.make ~name:"top" ~instances:(place cells placed) top in
  let* wrap = option (trans 40) in
  pure
    (match wrap with
    | None -> top
    | Some t -> Cell.make ~name:"top_top" ~instances:[ Cell.instantiate ~trans:t top ] [])

let gen_layout = gen_layout_of [ `Joined; `Surround; `Apart ]

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

(* The hierarchical check against the flat deck on random hierarchies,
   checking that the hierarchies exercise what they are meant to: deep
   nesting, every orientation, mirrored rows, arrays, and each case
   where context decides. *)
let test_hierarchical_matches_flat () =
  let seen = Hashtbl.create 16 in
  let note k = Hashtbl.replace seen k () in
  let metal_spacing = Rules.Min_spacing (Layer.Metal, Layer.Metal, 3) in
  let contact_enclosure = Rules.Min_enclosure (Layer.Contact, Layer.Metal, 1) in
  let flat c = Checker.check_flat (Flatten.run c) in
  let violates rule c = List.exists (fun v -> v.Checker.rule = rule) (flat c) in
  let features layout =
    let rec depth (c : Cell.t) =
      List.fold_left (fun d (i : Cell.inst) -> max d (1 + depth i.cell)) 0 c.instances
    in
    if depth layout >= 3 then note "three levels of nesting";
    List.iter
      (fun (c : Cell.t) ->
        List.iter
          (fun (i : Cell.inst) -> note (Transform.orient_to_string i.trans.orient))
          c.instances;
        let part k = (List.nth c.instances k).Cell.cell in
        match c.name with
        | "rows" when List.exists (fun (i : Cell.inst) -> i.trans.orient = Transform.MX) c.instances ->
          note "mirrored rows"
        | "array" when List.length c.instances >= 4 -> note "one cell placed many times"
        | "joined" when violates metal_spacing (part 0) && flat c = [] ->
          note "metal pieces joined only by a neighbour"
        | "surround" when violates contact_enclosure (part 0) && flat c = [] ->
          note "contact surround completed by a neighbour"
        | "apart" when flat (part 0) = [] && violates metal_spacing c ->
          note "spacing violation only between instances"
        | _ -> ())
      (Cell.all_cells layout)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x41E7; 21 |])
    (QCheck.Test.make ~name:"check = check_flat after Flatten.run" ~count:300
       (QCheck.make ~print:(fun c -> Printf.sprintf "%d flat boxes" (Cell.flat_rect_count c)) gen_layout)
       (fun layout ->
         features layout;
         let expected = flat layout in
         List.iter (fun v -> Hashtbl.replace seen (Format.asprintf "%a" Rules.pp_rule v.Checker.rule) ()) expected;
         Checker.check layout = expected));
  List.iter
    (fun case -> check_bool ("some case has " ^ case) true (Hashtbl.mem seen case))
    ([ "three levels of nesting"; "mirrored rows"; "one cell placed many times"
     ; "metal pieces joined only by a neighbour"
     ; "contact surround completed by a neighbour"
     ; "spacing violation only between instances" ]
    @ List.map Transform.orient_to_string Transform.all_orients
    @ List.map (Format.asprintf "%a" Rules.pp_rule) Rules.deck)

(* The hierarchical transistor count (of every distinct cell) and
   [Stats.measure]'s sums against flat ones on random hierarchies with
   the transistor gadgets, checking that the hierarchies exercise each case
   where a neighbour decides the count, deep nesting and every
   orientation. *)
let test_transistor_count_matches_flat () =
  let seen = Hashtbl.create 16 in
  let note k = Hashtbl.replace seen k () in
  let flat = Stats_reference.transistor_count in
  let features layout =
    let rec depth (c : Cell.t) =
      List.fold_left (fun d (i : Cell.inst) -> max d (1 + depth i.cell)) 0 c.instances
    in
    if depth layout >= 3 then note "three levels of nesting";
    List.iter
      (fun (c : Cell.t) ->
        List.iter
          (fun (i : Cell.inst) -> note (Transform.orient_to_string i.trans.orient))
          c.instances;
        let inst k = List.nth c.instances k in
        let part k = (inst k).Cell.cell in
        match c.name with
        | "crossing" when flat (part 0) = 0 && flat (part 1) = 0 && flat c > 0 ->
          note "a gate formed only between two instances"
        | "cut" when flat (part 0) > 0 && flat c = 0 ->
          note "a neighbour's buried contact removing a gate"
        | "split" ->
          let box k = Transform.apply_rect (inst k).trans (Cell.bbox_or_zero (part k)) in
          if flat (part 0) = 1 && flat c = 1
             && Rect.touches_or_overlaps (box 0) (box 1)
             && not (Rect.overlaps (box 0) (box 1))
          then note "one gate split across two abutting instances"
        | _ -> ())
      (Cell.all_cells layout)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x7C0F; 25 |])
    (QCheck.Test.make ~name:"transistor_count = flat count" ~count:300
       (QCheck.make
          ~print:(fun c -> Printf.sprintf "%d flat boxes" (Cell.flat_rect_count c))
          (gen_layout_of [ `Crossing; `Cut; `Split ]))
       (fun layout ->
         features layout;
         let rec instances (c : Cell.t) =
           List.fold_left (fun n (i : Cell.inst) -> n + 1 + instances i.cell) 0 c.instances
         in
         let m = Stats.measure layout in
         m.layer_area = Stats_reference.layer_areas layout
         && m.instances = instances layout
         && m.rects = Cell.flat_rect_count layout
         && m.cells = List.length (Cell.all_cells layout)
         && m.transistors = flat layout
         && List.for_all
              (fun c -> Stats.transistor_count c = flat c)
              (Cell.all_cells layout)));
  List.iter
    (fun case -> check_bool ("some case has " ^ case) true (Hashtbl.mem seen case))
    ([ "a gate formed only between two instances"
     ; "a neighbour's buried contact removing a gate"
     ; "one gate split across two abutting instances"; "three levels of nesting" ]
    @ List.map Transform.orient_to_string Transform.all_orients)

(* Apart from the width rule, the violations are a function of the
   geometry: shuffling the flattened boxes changes nothing else. *)
let prop_order_is_geometric =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"non-width violations ignore box order" ~count:150
       (QCheck.make
          ~print:(fun (c, _) -> Printf.sprintf "%d flat boxes" (Cell.flat_rect_count c))
          QCheck.Gen.(pair gen_layout int))
       (fun (layout, seed) ->
         let flat = Flatten.run layout in
         let shuffled = Array.of_list flat in
         let rng = Random.State.make [| seed |] in
         for i = Array.length shuffled - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = shuffled.(i) in
           shuffled.(i) <- shuffled.(j);
           shuffled.(j) <- t
         done;
         let neighbour flat =
           List.filter
             (fun v ->
               match v.Checker.rule with Rules.Min_width _ -> false | _ -> true)
             (Checker.check_flat flat)
         in
         neighbour flat = neighbour (Array.to_list shuffled)))

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
  ; Alcotest.test_case "the root decides inherited gaps and enclosures" `Quick
      test_root_decides_inherited
  ; Alcotest.test_case "pdp8 DRC time budget" `Slow test_pdp8_drc_time_budget
  ; Alcotest.test_case "check = check_flat on every compiled chip" `Slow
      test_chip_scale_equality
  ; prop_spaced_metal_clean
  ; Alcotest.test_case "indexed kernels match all-pairs references" `Quick
      test_matches_reference
  ; Alcotest.test_case "hierarchical check matches the flat deck" `Quick
      test_hierarchical_matches_flat
  ; Alcotest.test_case "hierarchical transistor count matches the flat count" `Quick
      test_transistor_count_matches_flat
  ; prop_order_is_geometric
  ]
