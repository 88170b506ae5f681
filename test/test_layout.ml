open Sc_geom
open Sc_tech
open Sc_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A 4x4 metal tile with a port on its east edge. *)
let tile ?(name = "tile") () =
  Cell.make ~name
    ~ports:[ Cell.port "e" Layer.Metal (Rect.make 4 1 4 3) ]
    [ Cell.box Layer.Metal (Rect.make 0 0 4 4) ]

let test_make_rejects_duplicates () =
  Alcotest.check_raises "duplicate port"
    (Invalid_argument "Cell.make: duplicate port \"p\"") (fun () ->
      ignore
        (Cell.make ~name:"bad"
           ~ports:
             [ Cell.port "p" Layer.Metal (Rect.make 0 0 1 1)
             ; Cell.port "p" Layer.Poly (Rect.make 2 2 3 3)
             ]
           []))

let test_bbox_includes_instances () =
  let t = tile () in
  let parent =
    Cell.make ~name:"parent"
      ~instances:[ Cell.instantiate ~name:"a" ~trans:(Transform.translation 10 0) t ]
      [ Cell.box Layer.Poly (Rect.make 0 0 2 2) ]
  in
  check_bool "bbox" true
    (Rect.equal (Cell.bbox_or_zero parent) (Rect.make 0 0 14 4))

let test_bbox_with_rotation () =
  let t =
    Cell.make ~name:"t" [ Cell.box Layer.Metal (Rect.make 0 0 6 2) ]
  in
  let parent =
    Cell.make ~name:"p"
      ~instances:
        [ Cell.instantiate ~name:"r"
            ~trans:(Transform.make ~orient:Transform.R90 (Point.make 0 0))
            t
        ]
      []
  in
  (* R90 maps (6,2) to (-2,6). *)
  check_bool "rotated bbox" true
    (Rect.equal (Cell.bbox_or_zero parent) (Rect.make (-2) 0 0 6))

let test_translate_to_origin () =
  let c =
    Cell.make ~name:"c" [ Cell.box Layer.Metal (Rect.make (-3) 5 1 9) ]
  in
  let c' = Cell.translate_to_origin c in
  check_bool "origin" true (Rect.equal (Cell.bbox_or_zero c') (Rect.make 0 0 4 4))

let test_beside_and_above () =
  let a = tile ~name:"a" () and b = tile ~name:"b" () in
  let r = Compose.beside ~name:"r" ~sep:2 a b in
  check_int "beside width" 10 (Cell.width r);
  check_int "beside height" 4 (Cell.height r);
  let c = Compose.above ~name:"c" a b in
  check_int "above height" 8 (Cell.height c);
  check_int "above width" 4 (Cell.width c)

let test_row_col () =
  let cells = List.init 5 (fun i -> tile ~name:(Printf.sprintf "t%d" i) ()) in
  let r = Compose.row ~name:"r" ~sep:1 cells in
  check_int "row width" 24 (Cell.width r);
  let c = Compose.col ~name:"c" cells in
  check_int "col height" 20 (Cell.height c);
  (* ports re-exported with instance prefixes *)
  check_bool "port present" true (Cell.find_port_opt r "i2.e" <> None)

let test_array () =
  let t = tile () in
  let a = Compose.array ~name:"arr" ~nx:3 ~ny:2 t in
  check_int "array width" 12 (Cell.width a);
  check_int "array height" 8 (Cell.height a);
  check_int "instances" 6 (List.length a.Cell.instances);
  (* flattening multiplies the single box by 6 *)
  check_int "flat rects" 6 (List.length (Flatten.run a))

let test_array_shares_definition () =
  let t = tile () in
  let a = Compose.array ~name:"arr" ~nx:10 ~ny:10 t in
  check_int "two distinct cells" 2 (List.length (Cell.all_cells a))

let test_abut_aligns_ports () =
  let a = tile ~name:"a" () in
  let b =
    Cell.make ~name:"b"
      ~ports:[ Cell.port "w" Layer.Metal (Rect.make 0 1 0 3) ]
      [ Cell.box Layer.Metal (Rect.make 0 0 4 4) ]
  in
  let j = Compose.abut ~name:"j" a "e" b "w" in
  (* b's west port centre lands on a's east port centre: b spans x=4..8 *)
  check_bool "joined bbox" true
    (Rect.equal (Cell.bbox_or_zero j) (Rect.make 0 0 8 4));
  let pa = List.find (fun (p : Cell.port) -> p.pname = "i0.e") j.Cell.ports in
  let pb = List.find (fun (p : Cell.port) -> p.pname = "i1.w") j.Cell.ports in
  check_bool "port rects coincide" true
    (Point.equal (Rect.center pa.rect) (Rect.center pb.rect))

let test_all_cells_children_first () =
  let leaf = tile ~name:"leaf" () in
  let mid = Compose.row ~name:"mid" [ leaf; leaf ] in
  let top = Compose.col ~name:"top" [ mid; mid ] in
  let names = List.map (fun (c : Cell.t) -> c.name) (Cell.all_cells top) in
  Alcotest.(check (list string)) "order" [ "leaf"; "mid"; "top" ] names

let test_expose () =
  let t = tile () in
  let r = Compose.row ~name:"r" [ t; t ] in
  let r = Compose.expose r [ ("i1.e", "out") ] in
  let p = Cell.find_port r "out" in
  check_bool "exposed at east of second tile" true
    (Point.equal (Rect.center p.Cell.rect) (Point.make 8 2))

let test_transistor_count () =
  (* poly crossing diffusion = 1 transistor; two parallel gates = 2 *)
  let one =
    Cell.make ~name:"t1"
      [ Cell.box Layer.Diffusion (Rect.make 0 2 10 6)
      ; Cell.box Layer.Poly (Rect.make 4 0 6 8)
      ]
  in
  check_int "one gate" 1 (Stats.transistor_count one);
  let two = Cell.add one [ Cell.box Layer.Poly (Rect.make 8 0 10 8) ] in
  check_int "two gates" 2 (Stats.transistor_count two);
  (* a gate drawn as two abutting poly boxes still counts once *)
  let split =
    Cell.make ~name:"t2"
      [ Cell.box Layer.Diffusion (Rect.make 0 2 10 6)
      ; Cell.box Layer.Poly (Rect.make 4 0 6 4)
      ; Cell.box Layer.Poly (Rect.make 4 4 6 8)
      ]
  in
  check_int "split gate counts once" 1 (Stats.transistor_count split);
  (* buried-contact area joins poly to diffusion: it is not a channel *)
  let buried =
    Cell.make ~name:"t3"
      [ Cell.box Layer.Poly (Rect.make 0 4 10 6)
      ; Cell.box Layer.Diffusion (Rect.make 4 0 6 10)
      ; Cell.box Layer.Buried (Rect.make 3 3 7 7)
      ]
  in
  check_int "no gate under a buried contact" 0 (Stats.transistor_count buried);
  check_int "the extractor agrees" 0
    (List.length (Sc_extract.Extractor.extract buried).Sc_extract.Extractor.devices)

let test_stats_measure () =
  let t = tile () in
  let a = Compose.array ~name:"arr" ~nx:2 ~ny:2 t in
  let s = Stats.measure a in
  check_int "bbox area" 64 s.Stats.bbox_area;
  check_int "metal area" 64 (Stats.layer_area s Layer.Metal);
  check_int "instances" 4 s.Stats.instances;
  check_int "cells" 2 s.Stats.cells

let test_flatten_ports_qualified () =
  let t = tile () in
  let r = Compose.row ~name:"r" [ t; t ] in
  let ports = Flatten.ports r in
  let names = List.sort compare (List.map (fun (p : Cell.port) -> p.Cell.pname) ports) in
  (* row exports qualified copies at the top cell, plus the originals seen
     through each instance *)
  check_bool "contains i0.e" true (List.mem "i0.e" names)

(* --- Cell.make's bounding box against a fold of Rect.union_bbox --- *)

(* The bounding box the old construction computed: a union over the
   boxes, the wires' [Path.bbox] and the instances' transformed boxes. *)
let folded_bbox elements instances =
  let union acc r = Some (match acc with None -> r | Some b -> Rect.union_bbox b r) in
  let acc =
    List.fold_left
      (fun acc e ->
        match e with
        | Cell.Box (_, r) -> union acc r
        | Cell.Wire (_, p) -> Option.fold ~none:acc ~some:(union acc) (Path.bbox p))
      None elements
  in
  List.fold_left
    (fun acc (i : Cell.inst) ->
      Option.fold ~none:acc
        ~some:(fun r -> union acc (Transform.apply_rect i.trans r))
        (Cell.bbox i.cell))
    acc instances

(* Up to five boxes and two Manhattan wires of even width around the
   origin, and up to four instances, in any orientation, of cells
   generated the same way (one level down: no instances) — some of them
   empty. *)
let gen_cell_parts =
  let open QCheck.Gen in
  let coord = int_range (-40) 40 in
  let box =
    map (fun (a, b, c, d) -> Cell.box Layer.Metal (Rect.make a b c d)) (quad coord coord coord coord)
  in
  let wire =
    let* width = map (fun k -> 2 * k) (int_range 1 3) and* x = coord and* y = coord in
    let* turns = list_size (int_range 0 3) (pair bool coord) in
    let _, points =
      List.fold_left
        (fun ((x, y), acc) (horizontal, d) ->
          let p = if horizontal then (x + d, y) else (x, y + d) in
          (p, Point.make (fst p) (snd p) :: acc))
        ((x, y), [ Point.make x y ])
        turns
    in
    return (Cell.wire Layer.Poly ~width (List.rev points))
  in
  let elements =
    let* boxes = list_size (int_range 0 5) box and* wires = list_size (int_range 0 2) wire in
    return (boxes @ wires)
  in
  let* children = list_size (int_range 0 4) elements in
  let* orients = list_repeat (List.length children) (oneofl Transform.all_orients) in
  let* shifts = list_repeat (List.length children) (pair coord coord) in
  let instances =
    List.mapi
      (fun k ((es, orient), (dx, dy)) ->
        Cell.instantiate ~name:(Printf.sprintf "i%d" k)
          ~trans:(Transform.make ~orient (Point.make dx dy))
          (Cell.make ~name:(Printf.sprintf "c%d" k) es))
      (List.combine (List.combine children orients) shifts)
  in
  let* own = elements in
  return (own, instances)

let prop_bbox_is_folded_union =
  let seen = Hashtbl.create 8 in
  let prop =
    QCheck.Test.make ~name:"Cell.make bbox = folded union" ~count:500
      (QCheck.make gen_cell_parts) (fun (elements, instances) ->
        List.iter (fun (i : Cell.inst) -> Hashtbl.replace seen i.trans.orient ()) instances;
        let c = Cell.make ~name:"c" ~instances elements in
        Option.equal Rect.equal (Cell.bbox c) (folded_bbox elements instances))
  in
  Alcotest.test_case "Cell.make bbox = folded union" `Quick (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0xBB0C; 22 |]) prop;
      check_bool "an empty cell has no bbox" true (Cell.bbox (Cell.empty "e") = None);
      check_bool "every orientation occurs" true
        (List.for_all (Hashtbl.mem seen) Transform.all_orients))

let suite =
  [ Alcotest.test_case "make rejects duplicate ports" `Quick test_make_rejects_duplicates
  ; Alcotest.test_case "bbox includes instances" `Quick test_bbox_includes_instances
  ; Alcotest.test_case "bbox with rotation" `Quick test_bbox_with_rotation
  ; Alcotest.test_case "translate to origin" `Quick test_translate_to_origin
  ; Alcotest.test_case "beside and above" `Quick test_beside_and_above
  ; Alcotest.test_case "row and col" `Quick test_row_col
  ; Alcotest.test_case "array" `Quick test_array
  ; Alcotest.test_case "array shares definition" `Quick test_array_shares_definition
  ; Alcotest.test_case "abut aligns ports" `Quick test_abut_aligns_ports
  ; Alcotest.test_case "all_cells children first" `Quick test_all_cells_children_first
  ; Alcotest.test_case "expose" `Quick test_expose
  ; Alcotest.test_case "transistor count" `Quick test_transistor_count
  ; Alcotest.test_case "stats measure" `Quick test_stats_measure
  ; Alcotest.test_case "flatten ports qualified" `Quick test_flatten_ports_qualified
  ; prop_bbox_is_folded_union
  ]
