open Sc_layout
open Sc_chip

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let core_with_ports () =
  (* a simple core: a metal block with ports on each side *)
  Cell.make ~name:"core"
    ~ports:
      [ Cell.port "south" Sc_tech.Layer.Metal (Sc_geom.Rect.make 96 0 104 0)
      ; Cell.port "north" Sc_tech.Layer.Metal (Sc_geom.Rect.make 96 200 104 200)
      ; Cell.port "west" Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 96 0 104)
      ; Cell.port "east" Sc_tech.Layer.Metal (Sc_geom.Rect.make 200 96 200 104)
      ]
    [ Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 0 200 200) ]

(* the pad cell, as every assembly instantiates it *)
let test_pad_is_clean () =
  let a = Assemble.assemble ~name:"chip" ~core:(core_with_ports ()) ~pads:4 () in
  let pad =
    List.find
      (fun (i : Cell.inst) -> i.inst_name = "pad0")
      a.Assemble.chip.Cell.instances
  in
  check_bool "pad DRC" true (Sc_drc.Checker.is_clean pad.cell)

let test_assembly_structure () =
  let a = Assemble.assemble ~name:"chip" ~core:(core_with_ports ()) ~pads:12 () in
  check_int "pad count" 12 a.Assemble.pads;
  (* 12 pads + 1 core instance *)
  check_int "instances" 13 (List.length a.Assemble.chip.Cell.instances);
  check_bool "overhead above 1" true (a.Assemble.overhead > 1.0);
  (* every pad exposes its pin as a chip port *)
  check_int "chip ports" 12 (List.length a.Assemble.chip.Cell.ports)

let test_assembly_drc_clean () =
  let a = Assemble.assemble ~name:"chip" ~core:(core_with_ports ()) ~pads:8 () in
  Alcotest.(check string) "clean" "DRC clean\n"
    (Format.asprintf "%a" Sc_drc.Checker.report
       (Sc_drc.Checker.check a.Assemble.chip))

let test_assembly_with_bindings () =
  (* pad 0 is on the bottom; bind it to the core's south port *)
  let a =
    Assemble.assemble
      ~bind:[ (0, "south") ]
      ~name:"chip" ~core:(core_with_ports ()) ~pads:4 ()
  in
  check_bool "clean with binding" true (Sc_drc.Checker.is_clean a.Assemble.chip)

let test_bad_binding_rejected () =
  check_bool "raises" true
    (try
       ignore
         (Assemble.assemble
            ~bind:[ (0, "nowhere") ]
            ~name:"chip" ~core:(core_with_ports ()) ~pads:4 ());
       false
     with Invalid_argument _ -> true)

let test_min_pads () =
  check_bool "raises" true
    (try
       ignore (Assemble.assemble ~name:"c" ~core:(core_with_ports ()) ~pads:3 ());
       false
     with Invalid_argument _ -> true)

let test_overhead_shrinks_with_core () =
  (* bigger cores amortize the pad ring: overhead must fall *)
  let core n =
    Cell.make ~name:"c"
      [ Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 0 n n) ]
  in
  let small = Assemble.assemble ~name:"s" ~core:(core 100) ~pads:8 () in
  let big = Assemble.assemble ~name:"b" ~core:(core 600) ~pads:8 () in
  check_bool "amortized" true (big.Assemble.overhead < small.Assemble.overhead)

let test_cif_roundtrip () =
  let a = Assemble.assemble ~name:"chip" ~core:(core_with_ports ()) ~pads:6 () in
  check_bool "roundtrips" true (Sc_cif.Elaborate.roundtrip_ok a.Assemble.chip)

let suite =
  [ Alcotest.test_case "pad DRC clean" `Quick test_pad_is_clean
  ; Alcotest.test_case "assembly structure" `Quick test_assembly_structure
  ; Alcotest.test_case "assembly DRC clean" `Quick test_assembly_drc_clean
  ; Alcotest.test_case "assembly with bindings" `Quick test_assembly_with_bindings
  ; Alcotest.test_case "bad binding rejected" `Quick test_bad_binding_rejected
  ; Alcotest.test_case "minimum pads" `Quick test_min_pads
  ; Alcotest.test_case "overhead amortizes" `Quick test_overhead_shrinks_with_core
  ; Alcotest.test_case "chip CIF roundtrip" `Quick test_cif_roundtrip
  ]
