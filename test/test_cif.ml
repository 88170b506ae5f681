open Sc_geom
open Sc_tech
open Sc_layout
open Sc_cif

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let leaf =
  Cell.make ~name:"leaf"
    ~ports:[ Cell.port "p" Layer.Metal (Rect.make 4 0 4 2) ]
    [ Cell.box Layer.Metal (Rect.make 0 0 4 2)
    ; Cell.box Layer.Poly (Rect.make 1 0 3 5)
    ]

let hierarchical =
  let mid =
    Cell.make ~name:"mid"
      ~instances:
        [ Cell.instantiate ~name:"a" leaf
        ; Cell.instantiate ~name:"b"
            ~trans:(Transform.make ~orient:Transform.R90 (Point.make 10 3))
            leaf
        ]
      [ Cell.wire Layer.Diffusion ~width:2 [ Point.make 0 8; Point.make 12 8 ] ]
  in
  Cell.make ~name:"top"
    ~instances:
      [ Cell.instantiate ~name:"m0" mid
      ; Cell.instantiate ~name:"m1"
          ~trans:(Transform.make ~orient:Transform.MX (Point.make 0 30))
          mid
      ]
    []

let test_ast_check_ok () =
  let file = Emit.file_of_cell hierarchical in
  Alcotest.(check (list string)) "well-formed" [] (Cif_reference.check file)

let test_ast_check_catches () =
  let bad = [ Ast.Def_start (1, 100, 1); Ast.Def_start (2, 100, 1) ] in
  check_bool "nested DS reported" true (List.length (Cif_reference.check bad) > 0);
  let bad2 = [ Ast.Box { length = 2; width = 2; cx = 1; cy = 1 }; Ast.End ] in
  check_bool "geometry outside DS reported" true
    (List.length (Cif_reference.check bad2) > 0)

let test_emit_contains_symbols () =
  let s = Emit.to_string hierarchical in
  check_bool "has DS" true (String.length s > 0 && String.index_opt s 'D' <> None);
  (* three symbols: leaf, mid, top *)
  let count_sub sub =
    let n = ref 0 in
    let ls = String.length s and lsub = String.length sub in
    for i = 0 to ls - lsub do
      if String.sub s i lsub = sub then incr n
    done;
    !n
  in
  check_int "three DS" 3 (count_sub "DS ");
  check_int "three DF" 3 (count_sub "DF;")

let test_roundtrip_simple () =
  check_bool "leaf roundtrips" true (Elaborate.roundtrip_ok leaf)

let test_roundtrip_hierarchical () =
  check_bool "hierarchy roundtrips" true (Elaborate.roundtrip_ok hierarchical)

let test_roundtrip_all_orients () =
  List.iter
    (fun o ->
      let c =
        Cell.make ~name:"o"
          ~instances:
            [ Cell.instantiate ~name:"i"
                ~trans:(Transform.make ~orient:o (Point.make 7 (-3)))
                leaf
            ]
          []
      in
      check_bool (Transform.orient_to_string o) true (Elaborate.roundtrip_ok c))
    Transform.all_orients

let test_roundtrip_ports () =
  match Elaborate.of_string (Emit.to_string leaf) with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    let p = Cell.find_port c "p" in
    check_bool "port centre preserved" true
      (Point.equal (Rect.center p.Cell.rect) (Point.make 4 1));
    Alcotest.(check string) "cell name preserved" "leaf" c.Cell.name

let test_parse_box_direction () =
  let text = "DS 1 250 1;\nL NM;\nB 4 2 2 1 0 1;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    (* direction (0,1) swaps length and width: the box is 2 wide, 4 tall *)
    let boxes = Flatten.run c in
    check_int "one box" 1 (List.length boxes);
    let b = List.hd boxes in
    check_bool "rotated box" true (Rect.equal b.Flatten.rect (Rect.make 1 (-1) 3 3))

let test_parse_wire () =
  let text = "DS 1 250 1;\nL NP;\nW 2 0 0 6 0;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    let boxes = Flatten.run c in
    check_int "one segment" 1 (List.length boxes);
    check_bool "padded rect" true
      (Rect.equal (List.hd boxes).Flatten.rect (Rect.make (-1) (-1) 7 1))

let test_parse_polygon_rect () =
  let text = "DS 1 250 1;\nL ND;\nP 0 0 0 4 6 4 6 0;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    check_bool "rectangle recovered" true
      (Rect.equal (List.hd (Flatten.run c)).Flatten.rect (Rect.make 0 0 6 4))

let test_parse_comments_and_lowercase () =
  let text = "(header comment (nested));\nDS 1 250 1;\nL NM;\nBox 4 4 2 2;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c -> check_int "one box" 1 (List.length (Flatten.run c))

let test_errors () =
  let unknown_layer = "DS 1 250 1;\nL XX;\nB 2 2 1 1;\nDF;\nE" in
  (match Elaborate.of_string unknown_layer with
  | Error (Elaborate.Unknown_layer _) -> ()
  | _ -> Alcotest.fail "expected unknown layer");
  let undefined = "DS 1 250 1;\nC 9;\nDF;\nE" in
  (match Elaborate.of_string undefined with
  | Error (Elaborate.Undefined_symbol 9) -> ()
  | _ -> Alcotest.fail "expected undefined symbol");
  let offgrid = "DS 1 3 1;\nL NM;\nB 2 2 1 1;\nDF;\nE" in
  (match Elaborate.of_string offgrid with
  | Error (Elaborate.Off_grid _) -> ()
  | _ -> Alcotest.fail "expected off-grid");
  match Elaborate.of_string "garbage @!" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* --- instance names ("91") and the ports they carry --- *)

let count_lines text prefix =
  List.length
    (List.filter (String.starts_with ~prefix) (String.split_on_char '\n' text))

let test_promoted_ports_by_name () =
  let row =
    Compose.row ~name:"row"
      [ leaf; Cell.make ~name:"other" ~instances:[ Cell.instantiate ~name:"x" leaf ] [] ]
  in
  let text = Emit.to_string row in
  (* the promoting row names its two calls; "other" promotes nothing, so
     its call stays unnamed and none of its ports is promoted *)
  check_int "two 91 names" 2 (count_lines text "9 1 ");
  check_int "one label, in the leaf" 1 (count_lines text "9 4 ");
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    Alcotest.(check (list string))
      "promoted ports rebuilt from the names" [ "i0.p" ]
      (List.map (fun (p : Cell.port) -> p.pname) (Cell.ports c));
    check_bool "find_port reaches into the named instance" true
      (Point.equal (Rect.center (Cell.find_port c "i0.p").Cell.rect) (Point.make 4 1))

(* Names that are not legal CIF text roundtrip escaped: instances whose
   names the old writer mapped to one text ("a b" and "a_b", "a[0]" and
   "a_0_"), and the empty name, under a cell and with a port whose names
   need escaping. *)
let test_names_roundtrip_escaped () =
  let odd =
    Cell.make ~name:"odd cell;"
      ~ports:[ Cell.port "p q%" Layer.Metal (Rect.make 4 0 4 2) ]
      [ Cell.box Layer.Metal (Rect.make 0 0 4 2) ]
  in
  let roundtrip names =
    let c =
      Compose.of_instances ~name:""
        (List.mapi
           (fun k name -> Cell.instantiate ~name ~trans:(Transform.translation (10 * k) 0) odd)
           names)
    in
    check_bool "roundtrip_ok" true (Elaborate.roundtrip_ok c);
    match Elaborate.of_string (Emit.to_string c) with
    | Error e -> Alcotest.fail (Elaborate.error_to_string e)
    | Ok c' ->
      Alcotest.(check (list string)) "instance names" names
        (List.map (fun (i : Cell.inst) -> i.inst_name) c'.Cell.instances);
      Alcotest.(check (list string)) "cell names" [ ""; "odd cell;" ]
        (List.map (fun (c : Cell.t) -> c.Cell.name) [ c'; (List.hd c'.Cell.instances).cell ]);
      Alcotest.(check (list string)) "ports"
        (List.map (fun n -> n ^ ".p q%") names)
        (List.map (fun (p : Cell.port) -> p.pname) (Cell.ports c'))
  in
  roundtrip [ "a b"; "a_b" ];
  (* a bus bit is written "a_0_", so the name "a_0_" needs the escape *)
  roundtrip [ "a[0]"; "a_0_"; "a[0]x" ];
  roundtrip [ "" ]

let prop_escape_injective =
  let byte = QCheck.Gen.oneofl [ 'a'; '_'; '.'; '-'; '%'; ' '; ';'; '1'; 'F'; '['; ']'; '\xff' ] in
  let name = QCheck.Gen.(string_size ~gen:byte (int_range 0 5)) in
  (* the text [Emit] writes for a cell named [n] *)
  let text n =
    match Emit.file_of_cell (Cell.make ~name:n []) with
    | _ :: _ :: Ast.User (9, t) :: _ -> t
    | _ -> QCheck.Test.fail_report "no name command"
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xE5C; 27 |])
    (QCheck.Test.make ~name:"escaped names are never empty and decode back" ~count:500
       (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%S %S" a b) (QCheck.Gen.pair name name))
       (fun (a, b) ->
         let ta = text a in
         ta <> "" && Emit.unescape ta = a && (a = b || ta <> text b)))

(* Hostile symbol structure: each is a [Structure] error, never an
   exception.  A leaf symbol 1, then the case's own text. *)
let hostile =
  let leaf = "DS 1 250 1;\n9 t;\nL NM;\nB 8 8 4 4;\n94 a 4 4 NM;\nDF;\n" in
  let top body = leaf ^ "DS 2 250 1;\n" ^ body ^ "DF;\nC 2;\nE" in
  [ ( "a label written twice"
    , "DS 1 250 1;\n9 t;\nL NM;\nB 8 8 4 4;\n94 a 4 4 NM;\n94 a 4 4 NM;\nDF;\nC 1;\nE" )
  ; ("one 91 name on two calls", top "91 g;\nC 1;\n91 g;\nC 1 T 40 0;\n")
  ; ("a 91 that no call follows", top "91 g;\nC 1;\n91 h;\n")
  ; ("a 91 outside a definition", leaf ^ "91 g;\nC 1;\nE")
  ; ("two 91 names before one call", top "91 g;\n91 h;\nC 1;\n")
  ; ("named and unnamed calls in one symbol", top "91 g;\nC 1;\nC 1 T 40 0;\n")
  ; ("a 91 name meeting an own label", top "94 g.a 4 4 NM;\n91 g;\nC 1;\n")
  ]

let hostile_case (what, text) =
  Alcotest.test_case ("hostile CIF: " ^ what) `Quick (fun () ->
      match Elaborate.of_string text with
      | Error (Elaborate.Structure _) -> ()
      | Error e ->
        Alcotest.failf "expected a structure error, got %s" (Elaborate.error_to_string e)
      | Ok _ -> Alcotest.fail "accepted"
      | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e))

(* property: random cell hierarchies roundtrip exactly, geometry and
   ports.  Leaves carry ports; the two levels above them are promoting
   ([Compose.of_instances], sometimes with an own port) or plain cells,
   and the top may call a leaf directly. *)
let gen_cell =
  let open QCheck.Gen in
  let gen_rect =
    map2
      (fun (x, y) (w, h) -> Rect.make x y (x + 1 + w) (y + 1 + h))
      (pair (int_range (-20) 20) (int_range (-20) 20))
      (pair (int_range 0 15) (int_range 0 15))
  in
  let gen_layer = oneofl [ Layer.Diffusion; Layer.Poly; Layer.Metal; Layer.Contact ] in
  let gen_port name =
    map2 (Cell.port name) (oneofl [ Layer.Diffusion; Layer.Poly; Layer.Metal ]) gen_rect
  in
  let gen_leaf =
    map3
      (fun boxes ports i ->
        Cell.make ~name:(Printf.sprintf "leaf%d" i)
          ~ports:(List.mapi (fun k p -> { p with Cell.pname = Printf.sprintf "p%d" k }) ports)
          (List.map (fun (l, r) -> Cell.box l r) boxes))
      (list_size (int_range 1 5) (pair gen_layer gen_rect))
      (list_size (int_range 0 2) (gen_port "p"))
      (int_range 0 1000)
  in
  let gen_trans =
    map2
      (fun o (x, y) -> Transform.make ~orient:o (Point.make x y))
      (oneofl Transform.all_orients)
      (pair (int_range (-30) 30) (int_range (-30) 30))
  in
  let gen_level name cells =
    let* placements =
      list_size (int_range 1 4) (pair (int_range 0 (List.length cells - 1)) gen_trans)
    in
    let insts =
      List.mapi
        (fun k (i, t) ->
          Cell.instantiate ~name:(Printf.sprintf "i%d" k) ~trans:t (List.nth cells i))
        placements
    in
    let* own = frequency [ (3, pure []); (1, map (fun p -> [ p ]) (gen_port "q")) ] in
    frequency
      [ (3, pure (Cell.make ~name ~ports:own ~instances:insts ~promote:true []))
      ; (1, pure (Cell.make ~name ~ports:own ~instances:insts []))
      ]
  in
  let* leaves = list_size (int_range 1 3) gen_leaf in
  let* mid0 = gen_level "mid0" leaves in
  let* mid1 = gen_level "mid1" leaves in
  gen_level "top" (mid0 :: mid1 :: leaves)

let test_roundtrip_random () =
  let orients = Hashtbl.create 8 and nested = ref false and own = ref false in
  let rec note (c : Cell.t) =
    List.iter
      (fun (i : Cell.inst) ->
        if c.promotes then begin
          Hashtbl.replace orients i.trans.Transform.orient ();
          if i.cell.promotes && i.cell.instances <> [] then nested := true
        end;
        note i.cell)
      c.instances;
    if c.promotes && c.ports <> [] then own := true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xC1F; 26 |])
    (QCheck.Test.make ~name:"random hierarchies roundtrip through CIF" ~count:200
       (QCheck.make
          ~print:(fun c -> Printf.sprintf "%d ports" (List.length (Cell.ports c)))
          gen_cell)
       (fun c ->
         note c;
         Elaborate.roundtrip_ok c));
  check_bool "a promoting cell inside a promoting cell" true !nested;
  check_bool "a promoting cell with an own port" true !own;
  check_bool "every orientation under a promoting cell" true
    (List.for_all (Hashtbl.mem orients) Transform.all_orients)

(* --- the buffer printer against the Format reference --- *)

let gen_file =
  let open QCheck.Gen in
  let int =
    frequency
      [ (6, int_range (-50) 50); (3, int_range (-1_000_000) 1_000_000)
      ; (1, oneofl [ min_int; max_int; 0; -1 ]) ]
  in
  let text =
    frequency
      [ (1, pure ""); (4, string_size ~gen:printable (int_range 1 12))
      ; (1, string_size ~gen:(oneofl [ ' '; '%'; '@'; ';'; '\n'; 'x' ]) (int_range 0 200)) ]
  in
  let trans =
    oneof
      [ map2 (fun x y -> Ast.Translate (x, y)) int int; pure Ast.Mirror_x; pure Ast.Mirror_y
      ; map2 (fun x y -> Ast.Rotate (x, y)) int int ]
  in
  let points = list_size (int_range 0 6) (pair int int) in
  let command =
    oneof
      [ map3 (fun n a b -> Ast.Def_start (n, a, b)) int int int; pure Ast.Def_finish
      ; map (fun n -> Ast.Def_delete n) int; map (fun l -> Ast.Layer l) text
      ; map (fun (length, width, cx, cy) -> Ast.Box { length; width; cx; cy }) (quad int int int int)
      ; map (fun pts -> Ast.Polygon pts) points
      ; map2 (fun width points -> Ast.Wire { width; points }) int points
      ; map2 (fun n ops -> Ast.Call (n, ops)) int (list_size (int_range 0 4) trans)
      ; map (fun s -> Ast.Comment s) text; map2 (fun d s -> Ast.User (d, s)) int text
      ; pure Ast.End ]
  in
  list_size (int_range 0 40) command

let prop_printer_is_reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC1F; 19 |])
    (QCheck.Test.make ~name:"buffer printer = Format reference" ~count:500
       (QCheck.make ~print:Cif_reference.to_string gen_file)
       (fun file ->
         let b = Buffer.create 256 in
         List.iter (Ast.add_command b) file;
         String.equal (Buffer.contents b) (Cif_reference.to_string file)))

(* [emit] prints and counts the stream [file_of_cell] collects *)
let emits_like_reference cell =
  let e = Emit.emit cell and file = Emit.file_of_cell cell in
  let boxes = Hashtbl.create 8 and current = ref "" in
  List.iter
    (function
      | Ast.Layer l -> current := l
      | Ast.Box _ ->
        Hashtbl.replace boxes !current (1 + Option.value ~default:0 (Hashtbl.find_opt boxes !current))
      | _ -> ())
    file;
  String.equal e.Emit.text (Cif_reference.to_string file)
  && e.Emit.commands = List.length file
  && List.for_all (fun (l, n) -> Hashtbl.find_opt boxes l = Some n) e.Emit.rects
  && List.length e.Emit.rects = Hashtbl.length boxes
  && e.Emit.rects_total = Hashtbl.fold (fun _ n a -> a + n) boxes 0

let test_emit_like_reference () =
  let odd =
    Cell.make ~name:"odd name/1"
      ~ports:[ Cell.port "a b" Layer.Poly (Rect.make (-3) (-5) 1 2) ]
      ~instances:
        [ Cell.instantiate ~name:"h"
            ~trans:(Transform.make ~orient:Transform.MY90 (Point.make (-7) 4))
            hierarchical ]
      [ Cell.wire Layer.Metal ~width:4 [ Point.make 0 0; Point.make 0 9; Point.make 6 9 ]
      ; Cell.box Layer.Glass (Rect.make 0 0 10 10) ]
  in
  List.iter
    (fun c -> check_bool c.Cell.name true (emits_like_reference c))
    [ leaf; hierarchical; odd ];
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xE41; 19 |])
    (QCheck.Test.make ~name:"emit = reference over file_of_cell" ~count:100
       (QCheck.make gen_cell) emits_like_reference)

let suite =
  [ Alcotest.test_case "ast check accepts emitted file" `Quick test_ast_check_ok
  ; Alcotest.test_case "ast check catches misuse" `Quick test_ast_check_catches
  ; Alcotest.test_case "emit contains symbols" `Quick test_emit_contains_symbols
  ; Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple
  ; Alcotest.test_case "roundtrip hierarchical" `Quick test_roundtrip_hierarchical
  ; Alcotest.test_case "roundtrip all orientations" `Quick test_roundtrip_all_orients
  ; Alcotest.test_case "roundtrip ports and names" `Quick test_roundtrip_ports
  ; Alcotest.test_case "parse box with direction" `Quick test_parse_box_direction
  ; Alcotest.test_case "parse wire" `Quick test_parse_wire
  ; Alcotest.test_case "parse rectangular polygon" `Quick test_parse_polygon_rect
  ; Alcotest.test_case "parse comments and lowercase" `Quick test_parse_comments_and_lowercase
  ; Alcotest.test_case "elaboration errors" `Quick test_errors
  ; Alcotest.test_case "91 names rebuild the promoted ports" `Quick test_promoted_ports_by_name
  ]
  @ List.map hostile_case hostile
  @ [ Alcotest.test_case "random hierarchies roundtrip through CIF" `Quick test_roundtrip_random
  ; prop_printer_is_reference
  ; Alcotest.test_case "emit = reference printer over file_of_cell" `Quick
      test_emit_like_reference
  ; Alcotest.test_case "names that need escaping roundtrip" `Quick
      test_names_roundtrip_escaped
  ; prop_escape_injective
  ]
