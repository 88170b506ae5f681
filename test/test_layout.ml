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
  let pa = List.find (fun (p : Cell.port) -> p.pname = "i0.e") (Cell.ports j) in
  let pb = List.find (fun (p : Cell.port) -> p.pname = "i1.w") (Cell.ports j) in
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
  let two =
    Cell.make ~name:"t1"
      (one.Cell.elements @ [ Cell.box Layer.Poly (Rect.make 8 0 10 8) ])
  in
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
  check_int "metal area" 64 s.Stats.layer_area.(Layer.index Layer.Metal);
  check_int "instances" 4 s.Stats.instances;
  check_int "cells" 2 s.Stats.cells;
  check_int "rects" (Cell.flat_rect_count a) s.Stats.rects;
  (* a wire is one rectangle per segment, as the flat count has it *)
  let w =
    Cell.make ~name:"w"
      ~instances:[ Cell.instantiate a; Cell.instantiate ~trans:(Transform.translation 20 0) a ]
      [ Cell.wire Layer.Metal ~width:2 [ Point.make 0 0; Point.make 0 9; Point.make 6 9 ] ]
  in
  let s = Stats.measure w in
  check_int "rects with a wire: 2 x 4 tiles and 2 segments" 10 s.Stats.rects;
  check_int "rects with a wire, as counted flat" (Cell.flat_rect_count w) s.Stats.rects;
  check_int "cells with a wire" 3 s.Stats.cells

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
        i.cell.Cell.bbox)
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
        Option.equal Rect.equal c.Cell.bbox (folded_bbox elements instances))
  in
  Alcotest.test_case "Cell.make bbox = folded union" `Quick (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0xBB0C; 22 |]) prop;
      check_bool "an empty cell has no bbox" true ((Cell.empty "e").Cell.bbox = None);
      check_bool "every orientation occurs" true
        (List.for_all (Hashtbl.mem seen) Transform.all_orients))

(* --- promoted ports: derived against compose_reference.ml's stored ones --- *)

(* A recipe builds one hierarchy twice, with [Compose.of_instances]
   (promoted ports derived) and with [Compose_reference.of_instances]
   (promoted ports stored).  Step k builds cell k from earlier cells. *)
type step =
  | Leaf of Cell.port list * Cell.element list
  | Composed of (string * Transform.t * int) list * Cell.port list * bool
      (** instances (name, transform, an earlier step), own ports added
          afterwards with [Cell.add_ports], and whether to move the
          result to the origin *)

(* Names with '.' (so promoted names can collide) and with characters
   CIF labels cannot carry. *)
let names = [ "a"; "b"; "c"; "a.b"; "b.c"; "x y"; "n/1"; "i0"; "p-q"; "\xc3\xa9" ]

let gen_steps =
  let open QCheck.Gen in
  let coord = int_range (-30) 30 in
  let rect =
    map (fun ((x, y), (w, h)) -> Rect.make x y (x + w) (y + h))
      (pair (pair coord coord) (pair (int_range 0 6) (int_range 0 6)))
  in
  let port =
    map3 Cell.port (oneofl names) (oneofl [ Layer.Poly; Layer.Metal; Layer.Diffusion ]) rect
  in
  let leaf =
    map2 (fun ps bs -> Leaf (ps, List.map (Cell.box Layer.Metal) bs))
      (list_size (int_range 0 3) port) (list_size (int_range 0 2) rect)
  in
  let composed k =
    let inst =
      map3
        (fun n (orient, (x, y)) j -> (n, Transform.make ~orient (Point.make x y), j))
        (oneofl names)
        (pair (oneofl Transform.all_orients) (pair coord coord))
        (int_range 0 (k - 1))
    in
    map3 (fun is extra origin -> Composed (is, extra, origin))
      (list_size (int_range 1 4) inst)
      (frequency [ (3, return []); (1, list_size (int_range 1 2) port) ])
      bool
  in
  let* n = int_range 1 6 in
  let rec steps k acc =
    if k = n then return (List.rev acc)
    else
      let* s = if k = 0 then leaf else frequency [ (1, leaf); (3, composed k) ] in
      steps (k + 1) (s :: acc)
  in
  steps 0 []

let print_steps steps =
  let port (p : Cell.port) = Printf.sprintf "%S" p.pname in
  String.concat "; "
    (List.mapi
       (fun k -> function
         | Leaf (ps, _) -> Printf.sprintf "%d: leaf [%s]" k (String.concat " " (List.map port ps))
         | Composed (is, extra, origin) ->
           Printf.sprintf "%d: of [%s] + [%s]%s" k
             (String.concat " "
                (List.map
                   (fun (n, (t : Transform.t), j) ->
                     Printf.sprintf "%S=%d@%s" n j (Transform.orient_to_string t.orient))
                   is))
             (String.concat " " (List.map port extra))
             (if origin then " at origin" else ""))
       steps)

(* every step's cell, or [Error] where [Cell.make] rejected a name; a
   rejected step leaves an empty cell for later steps to instantiate *)
let build of_instances steps =
  let cells = Array.make (List.length steps) (Cell.empty "none") in
  List.mapi
    (fun k step ->
      let name = if k mod 2 = 0 then Printf.sprintf "c%d" k else Printf.sprintf "c %d/x" k in
      match
        match step with
        | Leaf (ports, elements) -> Cell.make ~name ~ports elements
        | Composed (insts, extra, origin) ->
          let c =
            of_instances ~name
              (List.map (fun (n, trans, j) -> Cell.instantiate ~name:n ~trans cells.(j)) insts)
          in
          let c = if extra = [] then c else Cell.add_ports c extra in
          if origin then Cell.translate_to_origin c else c
      with
      | c ->
        cells.(k) <- c;
        Ok c
      | exception Invalid_argument _ ->
        cells.(k) <- Cell.empty name;
        Error ())
    steps

(* [c]'s CIF names its instances and labels each symbol's own ports;
   [r]'s labels every stored port in its own symbol.  Read back, the two
   files give the same ports in the same order, and the same geometry. *)
let same_elaboration c_text r_text =
  match (Sc_cif.Elaborate.of_string c_text, Sc_cif.Elaborate.of_string r_text) with
  | Ok c, Ok r -> Cell.ports c = Cell.ports r && Flatten.run c = Flatten.run r
  | _ -> false

let derived_like_stored (c : Cell.t) (r : Cell.t) =
  let ports = Cell.ports c in
  let text = (Sc_cif.Emit.emit c).text in
  ports = r.ports
  && List.for_all (fun (p : Cell.port) -> Cell.find_port_opt c p.pname = Some p) ports
  && Cell.find_port_opt c "a.zz" = None
  && Flatten.ports c = Flatten.ports r
  && String.equal text (Cif_reference.to_string (Sc_cif.Emit.file_of_cell c))
  && same_elaboration text (Sc_cif.Emit.emit r).text

let prop_derived_ports_like_stored =
  let rejected = ref 0 and nested = ref 0 and dotted = ref 0 in
  let orients = Hashtbl.create 8 in
  let prop =
    QCheck.Test.make ~name:"derived ports = stored ports" ~count:400
      (QCheck.make ~print:print_steps gen_steps) (fun steps ->
        let got = build Compose.of_instances steps
        and want = build Compose_reference.of_instances steps in
        List.iter2
          (fun step outcome ->
            match (step, outcome) with
            | Composed (is, _, _), Ok (c : Cell.t) ->
              List.iter (fun (_, (t : Transform.t), _) -> Hashtbl.replace orients t.orient ()) is;
              if List.exists (fun (i : Cell.inst) -> i.cell.promotes) c.instances then incr nested;
              if List.exists (fun (n, _, _) -> String.contains n '.') is then incr dotted
            | _, Error () -> incr rejected
            | Leaf _, Ok _ -> ())
          steps got;
        List.for_all2
          (fun a b ->
            match (a, b) with
            | Ok c, Ok r -> derived_like_stored c r
            | Error (), Error () -> true
            | _ -> false)
          got want)
  in
  Alcotest.test_case "derived ports = stored ports" `Quick (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0xD0C5; 24 |]) prop;
      check_bool "some names rejected" true (!rejected > 0);
      check_bool "some composed cells of composed cells" true (!nested > 0);
      check_bool "some dotted instance names accepted" true (!dotted > 0);
      check_bool "every orientation occurs" true
        (List.for_all (Hashtbl.mem orients) Transform.all_orients))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* the check stays exact when '.' lets two qualified names meet *)
let test_promoted_names_checked () =
  let leaf n = Cell.make ~name:"leaf" ~ports:[ Cell.port n Layer.Metal (Rect.make 0 0 1 1) ] [] in
  let compose a pa b pb () =
    Compose.of_instances ~name:"top"
      [ Cell.instantiate ~name:a (leaf pa); Cell.instantiate ~name:b (leaf pb) ]
  in
  check_bool "\"a.b\" + \"c\" meets \"a\" + \"b.c\"" true
    (raises_invalid (compose "a.b" "c" "a" "b.c"));
  check_bool "\"a.b\" + \"c\" beside \"a\" + \"b.d\"" false
    (raises_invalid (compose "a.b" "c" "a" "b.d"));
  let r = Compose.row ~name:"r" [ tile (); tile () ] in
  let add name () = Cell.add_ports r [ Cell.port name Layer.Metal (Rect.make 0 0 1 1) ] in
  check_bool "own port named as a promoted one" true (raises_invalid (add "i1.e"));
  check_bool "own dotted port beside the promoted ones" false (raises_invalid (add "i1.w"));
  check_bool "own port" false (raises_invalid (add "out"));
  let with_out = add "out" () in
  check_bool "own ports follow the promoted ones" true
    (List.map (fun (p : Cell.port) -> p.pname) (Cell.ports with_out) = [ "i0.e"; "i1.e"; "out" ])

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
  ; prop_derived_ports_like_stored
  ; Alcotest.test_case "promoted names checked exactly" `Quick test_promoted_names_checked
  ]
