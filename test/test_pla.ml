open Sc_logic
open Sc_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bits_of_int n v = Array.init n (fun i -> v land (1 lsl i) <> 0)

let sim_matches_cover (pla : Sc_pla.Generator.t) =
  let cover = pla.Sc_pla.Generator.cover in
  let n = cover.Cover.ninputs in
  let t = Engine.create pla.Sc_pla.Generator.netlist in
  let ok = ref true in
  for v = 0 to (1 lsl n) - 1 do
    Engine.set_input_int t "in" v;
    let expected = ref 0 in
    Array.iteri
      (fun o b -> if b then expected := !expected lor (1 lsl o))
      (Cover.eval cover (bits_of_int n v));
    if Engine.get_output_int t "out" <> Some !expected then ok := false
  done;
  !ok

let traffic_cover =
  (* a small traffic-light controller's combinational core: 2-bit state ->
     6 lamp outputs (NS green/yellow/red, EW green/yellow/red) *)
  Cover.of_rows ~ninputs:2 ~noutputs:6
    [ ("00", "100001")
    ; ("01", "010001")
    ; ("10", "001100")
    ; ("11", "001010")
    ]

let test_netlist_equals_cover () =
  let pla = Sc_pla.Generator.generate ~minimize:false traffic_cover in
  check_bool "netlist = cover" true (sim_matches_cover pla)

let test_netlist_equals_cover_minimized () =
  let pla = Sc_pla.Generator.generate ~minimize:true traffic_cover in
  check_bool "minimized netlist = cover" true (sim_matches_cover pla);
  let m = pla.Sc_pla.Generator.cover in
  let covered_by x y = List.for_all (fun c -> Cover.cube_covered c y) x.Cover.cubes in
  check_bool "minimized vs original function" true
    (covered_by m traffic_cover && covered_by traffic_cover m)

let test_layout_drc_clean () =
  let pla = Sc_pla.Generator.generate ~minimize:false traffic_cover in
  Alcotest.(check string) "clean" "DRC clean\n"
    (Format.asprintf "%a" Sc_drc.Checker.report
       (Sc_drc.Checker.check pla.Sc_pla.Generator.layout))

let test_device_counts () =
  let pla = Sc_pla.Generator.generate ~minimize:false traffic_cover in
  let count f = List.fold_left (fun n c -> n + f c) 0 traffic_cover.Cover.cubes in
  let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
  check_int "AND devices = bound literals"
    (count (fun c -> traffic_cover.Cover.ninputs - Cube.free_count c))
    pla.Sc_pla.Generator.and_devices;
  check_int "OR devices = output bits"
    (count (fun c -> popcount c.Cube.outputs))
    pla.Sc_pla.Generator.or_devices

let test_area_matches_prediction () =
  let pla = Sc_pla.Generator.generate ~minimize:false traffic_cover in
  let c = pla.Sc_pla.Generator.layout in
  check_int "area"
    (Sc_pla.Generator.predicted_area ~ninputs:2 ~noutputs:6 ~terms:4)
    (Sc_layout.Cell.area c)

let test_minimize_shrinks () =
  (* redundant cover: four minterms of x0 collapse to one row *)
  let c =
    Cover.of_rows ~ninputs:3 ~noutputs:1
      [ ("100", "1"); ("101", "1"); ("110", "1"); ("111", "1") ]
  in
  let raw = Sc_pla.Generator.generate ~minimize:false c in
  let min = Sc_pla.Generator.generate ~minimize:true c in
  check_int "raw rows" 4 raw.Sc_pla.Generator.rows;
  check_int "minimized rows" 1 min.Sc_pla.Generator.rows;
  check_bool "smaller layout" true
    (Sc_layout.Cell.area min.Sc_pla.Generator.layout
    < Sc_layout.Cell.area raw.Sc_pla.Generator.layout)

let test_ports_present () =
  let pla = Sc_pla.Generator.generate ~minimize:false traffic_cover in
  let c = pla.Sc_pla.Generator.layout in
  List.iter
    (fun p ->
      check_bool p true (Sc_layout.Cell.find_port_opt c p <> None))
    [ "in0_t"; "in0_c"; "in1_t"; "in1_c"; "out0"; "out5"; "vdd" ]

let gen_cover =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  let* m = int_range 1 4 in
  let gen_cube =
    let* lits =
      array_size (return n) (oneofl [ Cube.Zero; Cube.One; Cube.Dash ])
    in
    let* mask = int_range 1 ((1 lsl m) - 1) in
    return (Cube.make lits mask)
  in
  let* cubes = list_size (int_range 1 6) gen_cube in
  return (Cover.make ~ninputs:n ~noutputs:m cubes)

let prop_random_pla_simulates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random PLA netlists compute their cover" ~count:60
       (QCheck.make gen_cover) (fun cover ->
         sim_matches_cover (Sc_pla.Generator.generate ~minimize:false cover)))

let prop_random_pla_drc_clean =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random PLA layouts are DRC clean" ~count:25
       (QCheck.make gen_cover) (fun cover ->
         Sc_drc.Checker.is_clean
           (Sc_pla.Generator.generate ~minimize:false cover).Sc_pla.Generator.layout))

(* --- ROM --- *)

let test_rom_reads_contents () =
  let contents = [| 0x3A; 0x01; 0x00; 0x7F; 0x55; 0x2A; 0x10; 0x6C |] in
  let rom = Sc_rom.Rom.generate ~bits:7 contents in
  let t = Engine.create (Sc_rom.Rom.netlist rom) in
  Array.iteri
    (fun addr word ->
      Engine.set_input_int t "in" addr;
      check_int (Printf.sprintf "word %d" addr) (word land 0x7F)
        (Option.get (Engine.get_output_int t "out")))
    contents

let test_rom_drc_clean () =
  let rom = Sc_rom.Rom.generate ~bits:4 [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  check_bool "clean" true (Sc_drc.Checker.is_clean (Sc_rom.Rom.layout rom))

let test_rom_area_prediction () =
  (* dense contents: every word non-zero, prediction is exact *)
  let contents = Array.init 8 (fun i -> i + 1) in
  let rom = Sc_rom.Rom.generate ~bits:4 contents in
  (* 8 words: 3 address inputs, one product term per word *)
  check_int "area"
    (Sc_pla.Generator.predicted_area ~ninputs:3 ~noutputs:4 ~terms:8)
    (Sc_layout.Cell.area (Sc_rom.Rom.layout rom))

let test_rom_optimize_not_bigger () =
  let contents = Array.init 16 (fun i -> if i < 8 then 0x0F else 0x01) in
  let plain = Sc_rom.Rom.generate ~bits:4 contents in
  let opt = Sc_rom.Rom.generate ~optimize:true ~bits:4 contents in
  check_bool "optimized smaller" true
    (Sc_layout.Cell.area (Sc_rom.Rom.layout opt)
    <= Sc_layout.Cell.area (Sc_rom.Rom.layout plain));
  (* and still correct *)
  let t = Engine.create (Sc_rom.Rom.netlist opt) in
  Array.iteri
    (fun addr word ->
      Engine.set_input_int t "in" addr;
      check_int "word" word (Option.get (Engine.get_output_int t "out")))
    contents

let test_rom_rejects_bad_args () =
  check_bool "empty rejected" true
    (try
       ignore (Sc_rom.Rom.generate ~bits:4 [||]);
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "netlist equals cover" `Quick test_netlist_equals_cover
  ; Alcotest.test_case "minimized netlist equals cover" `Quick test_netlist_equals_cover_minimized
  ; Alcotest.test_case "layout DRC clean" `Quick test_layout_drc_clean
  ; Alcotest.test_case "device counts" `Quick test_device_counts
  ; Alcotest.test_case "area matches prediction" `Quick test_area_matches_prediction
  ; Alcotest.test_case "minimization shrinks layout" `Quick test_minimize_shrinks
  ; Alcotest.test_case "ports present" `Quick test_ports_present
  ; prop_random_pla_simulates
  ; prop_random_pla_drc_clean
  ; Alcotest.test_case "ROM reads contents" `Quick test_rom_reads_contents
  ; Alcotest.test_case "ROM DRC clean" `Quick test_rom_drc_clean
  ; Alcotest.test_case "ROM area prediction" `Quick test_rom_area_prediction
  ; Alcotest.test_case "ROM optimize not bigger" `Quick test_rom_optimize_not_bigger
  ; Alcotest.test_case "ROM rejects bad args" `Quick test_rom_rejects_bad_args
  ]
