(* Quickstart: the paper's headline in twenty lines.

   A textual description of a design — a parameterised array of shift
   stages built from standard cells — is compiled to layout data (CIF),
   design-rule checked, and measured.

   Run:  dune exec examples/quickstart.exe  *)

let source =
  {|
-- one shift stage: a D flip-flop feeding an inverter
cell stage() {
  inst dff() at (0, 0);
  inst inv() at (width(dff()), 0);
}

-- a register bank: n stages side by side, m rows stacked with a
-- routing gap, rails abutting within each row
cell bank(n, m) {
  let w = width(stage());
  for j = 0 to m-1 {
    for i = 0 to n-1 {
      inst stage() at (i*w, j*60);
    }
  }
}

cell main(n, m) { inst bank(n, m) at (0, 0); }
|}

let () =
  let request =
    { (Sc_core.Compiler.request Sc_core.Compiler.Layout source) with
      args = [ 4; 3 ]
    }
  in
  match (Sc_core.Compiler.run request).result with
  | Error d ->
    prerr_endline ("compile error: " ^ Sc_pipeline.Diag.to_string d);
    exit 1
  | Ok (compiled, _) ->
    let cell = compiled.Sc_core.Compiler.layout in
    Printf.printf "compiled %s: %d x %d lambda, %d transistors\n"
      cell.Sc_layout.Cell.name (Sc_layout.Cell.width cell)
      (Sc_layout.Cell.height cell) compiled.Sc_core.Compiler.transistors;
    Printf.printf "DRC: %s\n"
      (if compiled.Sc_core.Compiler.drc_violations = 0 then "clean"
       else string_of_int compiled.Sc_core.Compiler.drc_violations ^ " violations");
    (* the manufacturing data *)
    let path = Filename.temp_file "quickstart" ".cif" in
    let oc = open_out path in
    output_string oc compiled.Sc_core.Compiler.cif;
    close_out oc;
    Printf.printf "CIF written to %s (%d bytes)\n" path
      (String.length compiled.Sc_core.Compiler.cif);
    (* and it reads back identically *)
    Printf.printf "CIF roundtrip exact: %b\n" (Sc_cif.Elaborate.roundtrip_ok cell);
    (* colour artwork for human eyes *)
    let svg = Filename.temp_file "quickstart" ".svg" in
    Sc_layout.Render.write_svg svg cell;
    Printf.printf "artwork rendered to %s\n" svg
