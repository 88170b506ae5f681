open Sc_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_ok ?entry ?args src =
  match Sc_lang.Lang.compile ?entry ?args src with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile error: %s" (Sc_lang.Lang.error_to_string e)

let test_box_and_port () =
  let c =
    compile_ok
      {|
cell main() {
  box metal 0 0 10 4;
  box poly 2 6 4 12;
  port a poly 2 6 2 8;
}
|}
  in
  check_int "two boxes" 2 (List.length c.Cell.elements);
  check_bool "port present" true (Cell.find_port_opt c "a" <> None);
  check_int "width" 10 (Cell.width c)

let test_parameterisation () =
  let c = compile_ok ~args:[ 5 ] {|
cell strip(n) {
  box metal 0 0 n*10 4;
}
|} in
  check_int "parameterised width" 50 (Cell.width c)

let test_for_loop_and_arith () =
  let c =
    compile_ok ~args:[ 4 ]
      {|
cell tile() { box metal 0 0 4 4; }
cell main(n) {
  for i = 0 to n-1 {
    inst tile() at (i*10, 0);
  }
}
|}
  in
  check_int "four instances" 4 (List.length c.Cell.instances);
  check_int "extent" 34 (Cell.width c)

let test_hierarchy_shares_definitions () =
  let c =
    compile_ok
      {|
cell tile() { box metal 0 0 4 4; }
cell main() {
  for i = 0 to 9 { inst tile() at (i*10, 0); }
}
|}
  in
  (* one shared tile definition plus main *)
  check_int "two cells" 2 (List.length (Cell.all_cells c))

let test_parameterised_sharing () =
  let c =
    compile_ok
      {|
cell tile(w) { box metal 0 0 w 4; }
cell main() {
  inst tile(8) at (0,0);
  inst tile(8) at (20,0);
  inst tile(12) at (40,0);
}
|}
  in
  (* tile(8) shared, tile(12) separate, main *)
  check_int "three cells" 3 (List.length (Cell.all_cells c))

let test_if_and_let () =
  let c =
    compile_ok ~args:[ 7 ]
      {|
cell main(n) {
  let w = n * 2;
  if n > 5 {
    box metal 0 0 w 4;
  } else {
    box metal 0 0 4 4;
  }
}
|}
  in
  check_int "then branch" 14 (Cell.width c)

let test_wire () =
  let c =
    compile_ok
      {|
cell main() {
  wire metal 4 (0,10) (20,10) (20,30);
}
|}
  in
  check_bool "has geometry" true (c.Cell.bbox <> None);
  check_int "bbox height" 24 (Cell.height c)

let test_stdcell_builtins_and_combinators () =
  let c =
    compile_ok
      {|
cell main() {
  inst beside(inv(), nand2()) at (0,0);
  inst rowof(3, nor2()) at (0, 50);
}
|}
  in
  check_bool "DRC clean" true (Sc_drc.Checker.is_clean c);
  check_int "two instances" 2 (List.length c.Cell.instances)

let test_width_height_builtins () =
  let c =
    compile_ok
      {|
cell main() {
  let w = width(inv());
  box metal 0 0 w 4;
}
|}
  in
  check_int "inv width" 14 (Cell.width c)

let test_orient () =
  let c =
    compile_ok
      {|
cell bar() { box metal 0 0 10 2; }
cell main() {
  inst bar() at (0,0) orient R90;
}
|}
  in
  (* R90 turns 10x2 into 2x10 *)
  check_int "rotated" 10 (Cell.height c)

let test_entry_selection () =
  let src = {|
cell a() { box metal 0 0 4 4; }
cell b() { box metal 0 0 8 4; }
|} in
  check_int "default entry is last" 8 (Cell.width (compile_ok src));
  check_int "named entry" 4 (Cell.width (compile_ok ~entry:"a" src))

let test_errors () =
  let expect_error ?entry ?args src pattern =
    match Sc_lang.Lang.compile ?entry ?args src with
    | Ok _ -> Alcotest.failf "expected error matching %s" pattern
    | Error e ->
      let msg = Sc_lang.Lang.error_to_string e in
      let contains =
        let n = String.length msg and m = String.length pattern in
        let rec go i = i + m <= n && (String.sub msg i m = pattern || go (i + 1)) in
        go 0
      in
      check_bool (pattern ^ " in " ^ msg) true contains
  in
  expect_error "cell main() { box copper 0 0 4 4; }" "unknown layer";
  expect_error "cell main() { inst ghost(); }" "unknown cell";
  expect_error "cell main() { wire metal 3 (0,0) (8,0); }" "even";
  expect_error "cell main() { wire metal 4 (0,0) (8,6); }" "Manhattan";
  expect_error "cell main(n) { box metal 0 0 n 4; }" "expects 1 arguments";
  expect_error "cell inv() { box metal 0 0 4 4; }" "shadows a builtin";
  expect_error "cell main() { let x = 1/0; box metal 0 0 4 4; }" "division";
  expect_error
    "cell r(n) { inst r(n) at (10, 0); } cell main() { inst r(3); }"
    "too deep"

let test_compiles_to_clean_cif () =
  (* the paper's end-to-end claim: text -> layout -> manufacturing data *)
  let c =
    compile_ok ~args:[ 6 ]
      {|
cell tile() {
  box diff 0 0 8 4;
  box metal 0 6 8 9;
}
cell main(n) {
  for i = 0 to n-1 { inst tile() at (i*12, 0); }
}
|}
  in
  check_bool "DRC clean" true (Sc_drc.Checker.is_clean c);
  check_bool "CIF roundtrip" true (Sc_cif.Elaborate.roundtrip_ok c)

let suite =
  [ Alcotest.test_case "box and port" `Quick test_box_and_port
  ; Alcotest.test_case "parameterisation" `Quick test_parameterisation
  ; Alcotest.test_case "for loop" `Quick test_for_loop_and_arith
  ; Alcotest.test_case "hierarchy shares definitions" `Quick test_hierarchy_shares_definitions
  ; Alcotest.test_case "parameterised sharing" `Quick test_parameterised_sharing
  ; Alcotest.test_case "if and let" `Quick test_if_and_let
  ; Alcotest.test_case "wire" `Quick test_wire
  ; Alcotest.test_case "stdcell builtins" `Quick test_stdcell_builtins_and_combinators
  ; Alcotest.test_case "width/height builtins" `Quick test_width_height_builtins
  ; Alcotest.test_case "orientation" `Quick test_orient
  ; Alcotest.test_case "entry selection" `Quick test_entry_selection
  ; Alcotest.test_case "errors" `Quick test_errors
  ; Alcotest.test_case "text to clean CIF" `Quick test_compiles_to_clean_cif
  ]
