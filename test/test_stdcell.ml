open Sc_layout
open Sc_netlist
open Sc_stdcell

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_all_cells_drc_clean () =
  List.iter
    (fun (c : Library.cell) ->
      Alcotest.(check string)
        (Gate.to_string c.kind)
        "DRC clean\n"
        (Format.asprintf "%a" Sc_drc.Checker.report (Sc_drc.Checker.check c.layout)))
    (List.map Library.get Gate.all)

let test_uniform_height () =
  List.iter
    (fun (c : Library.cell) ->
      check_int (Gate.to_string c.kind) Nmos.cell_height c.height)
    (List.map Library.get Gate.all)

let test_primitive_transistor_geometry () =
  (* the drawn layouts contain the expected number of gate crossings *)
  check_int "inv has 2 devices" 2 (Stats.transistor_count (Nmos.inv ()));
  check_int "nand2 has 3" 3 (Stats.transistor_count (Nmos.nand 2));
  check_int "nand3 has 4" 4 (Stats.transistor_count (Nmos.nand 3));
  check_int "nor2 has 3" 3 (Stats.transistor_count (Nmos.nor2 ()))

let test_geometry_matches_characterization () =
  (* Gate.transistors matches the drawn devices for the primitive cells *)
  List.iter
    (fun kind ->
      check_int (Gate.to_string kind) (Gate.transistors kind)
        (Stats.transistor_count (Library.layout_of kind)))
    [ Gate.Inv; Gate.Nand2; Gate.Nand3; Gate.Nor2 ]

let test_row_abutment_clean_and_connected () =
  let r =
    Nmos.row "r4" [ Nmos.inv (); Nmos.nand 2; Nmos.nor2 (); Nmos.nand 3 ]
  in
  check_bool "row DRC clean" true (Sc_drc.Checker.is_clean r);
  (* rails must merge into one region per rail: flatten metal and check the
     bottom rail spans the full width *)
  let metal =
    (Flatten.run_layers r [ Sc_tech.Layer.Metal ]).(Sc_tech.Layer.index Sc_tech.Layer.Metal)
  in
  let width = Cell.width r in
  let bottom_covered =
    List.exists
      (fun rect -> rect.Sc_geom.Rect.ymin = 0 && Sc_geom.Rect.width rect >= 14)
      metal
  in
  check_bool "rails present" true bottom_covered;
  check_int "row width is sum" (14 + 14 + 20 + 14) width

let test_ports_exposed () =
  let inv = Nmos.inv () in
  check_bool "a" true (Cell.find_port_opt inv "a" <> None);
  check_bool "y" true (Cell.find_port_opt inv "y" <> None);
  check_bool "vdd" true (Cell.find_port_opt inv "vdd" <> None);
  check_bool "gnd" true (Cell.find_port_opt inv "gnd" <> None);
  let n3 = Nmos.nand 3 in
  check_bool "c on nand3" true (Cell.find_port_opt n3 "c" <> None)

let test_output_port_on_right_edge () =
  List.iter
    (fun cell ->
      let p = Cell.find_port cell "y" in
      check_int
        (cell.Cell.name ^ " y at right edge")
        (Cell.width cell)
        p.Cell.rect.Sc_geom.Rect.xmin)
    [ Nmos.inv (); Nmos.nand 2; Nmos.nand 3; Nmos.nor2 () ]

let test_area_ordering () =
  (* composites must cost more than their parts *)
  let a k = (Library.get k).Library.area in
  check_bool "and2 > nand2" true (a Gate.And2 > a Gate.Nand2);
  check_bool "xor2 > and2" true (a Gate.Xor2 > a Gate.And2);
  check_bool "dff > xor2" true (a Gate.Dff > a Gate.Xor2);
  check_bool "dffe > dff" true (a Gate.Dffe > a Gate.Dff)

let test_circuit_cell_area () =
  let b = Builder.create "c" in
  let x = (Builder.input b "x" 1).(0) in
  let y = Builder.not_ b x in
  let z = Builder.and2 b x y in
  Builder.output b "z" [| z |];
  let c = Builder.finish b in
  check_int "inv + and2"
    ((Library.get Gate.Inv).Library.area + (Library.get Gate.And2).Library.area)
    (Library.circuit_cell_area c)

let test_cells_roundtrip_cif () =
  List.iter
    (fun (c : Library.cell) ->
      check_bool
        (Gate.to_string c.kind ^ " roundtrips")
        true
        (Sc_cif.Elaborate.roundtrip_ok c.layout))
    (List.map Library.get Gate.all)

(* A layout read back from a disk cache holds copies of the library
   cells; [intern] swaps the library's own back in and rebuilds the
   parents, which must still promote their instances' ports. *)
let test_intern_keeps_promoted_ports () =
  let inv = Library.layout_of Gate.Inv in
  let copy : Cell.t = Marshal.from_string (Marshal.to_string inv []) 0 in
  let top = Compose.row ~name:"top" [ copy; copy ] in
  let interned = Library.intern top in
  check_bool "library cell swapped in" true
    (List.for_all (fun (i : Cell.inst) -> i.cell == inv) interned.instances);
  check_bool "still promotes" true interned.promotes;
  check_bool "same ports" true (Cell.ports interned = Cell.ports top);
  check_bool "promoted ports present" true
    (List.length (Cell.ports interned) = 2 * List.length (Cell.ports inv))

let suite =
  [ Alcotest.test_case "all cells DRC clean" `Quick test_all_cells_drc_clean
  ; Alcotest.test_case "intern keeps promoted ports" `Quick test_intern_keeps_promoted_ports
  ; Alcotest.test_case "uniform cell height" `Quick test_uniform_height
  ; Alcotest.test_case "primitive device counts" `Quick test_primitive_transistor_geometry
  ; Alcotest.test_case "geometry matches characterization" `Quick test_geometry_matches_characterization
  ; Alcotest.test_case "row abutment" `Quick test_row_abutment_clean_and_connected
  ; Alcotest.test_case "ports exposed" `Quick test_ports_exposed
  ; Alcotest.test_case "output port on right edge" `Quick test_output_port_on_right_edge
  ; Alcotest.test_case "area ordering" `Quick test_area_ordering
  ; Alcotest.test_case "circuit cell area" `Quick test_circuit_cell_area
  ; Alcotest.test_case "cells roundtrip CIF" `Quick test_cells_roundtrip_cif
  ]
