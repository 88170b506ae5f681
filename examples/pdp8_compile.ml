(* The paper's C4 claim, reproduced end to end: compile a (mini) PDP-8
   from its ISP behavioral description and compare the result against a
   hand-crafted design of the same machine — the stand-in for the
   "commercial design" of reference [6].

   Both implementations are verified cycle-for-cycle against the
   behavioral interpreter while running a small program, then measured.

   Run:  dune exec examples/pdp8_compile.exe  *)

let () =
  let design = Sc_core.Designs.parse Sc_core.Designs.pdp8_src in
  Printf.printf "compiling the mini PDP-8 from its ISP description...\n";
  let compiled = Sc_synth.Synth.gates design in
  let hand = Sc_core.Designs.hand_pdp8 () in
  let hand_stats = Sc_netlist.Circuit.stats hand in
  let cs = compiled.Sc_synth.Synth.stats in
  (* both must implement the ISA *)
  let ok_compiled =
    Sc_synth.Synth.verify_against_interp design compiled.Sc_synth.Synth.circuit
      120 Sc_core.Designs.pdp8_stim
  in
  let ok_hand =
    Sc_synth.Synth.verify_against_interp design hand 120 Sc_core.Designs.pdp8_stim
  in
  Printf.printf "ISA verification: compiled %s, hand %s\n"
    (if ok_compiled then "ok" else "FAILED")
    (if ok_hand then "ok" else "FAILED");
  let hand_area = Sc_stdcell.Library.circuit_cell_area hand in
  let hand_path = Sc_netlist.Timing.critical_path hand in
  Printf.printf "\n%-22s %10s %10s %8s\n" "" "compiled" "hand" "ratio";
  let row name a b =
    Printf.printf "%-22s %10d %10d %8.2f\n" name a b
      (float_of_int a /. float_of_int b)
  in
  row "gates" cs.Sc_netlist.Circuit.gate_total hand_stats.Sc_netlist.Circuit.gate_total;
  row "transistors" cs.Sc_netlist.Circuit.transistors
    hand_stats.Sc_netlist.Circuit.transistors;
  row "cell area (sq lambda)"
    (Sc_stdcell.Library.circuit_cell_area compiled.Sc_synth.Synth.circuit)
    hand_area;
  row "critical path (tau)"
    (Sc_netlist.Timing.critical_path compiled.Sc_synth.Synth.circuit)
    hand_path;
  Printf.printf
    "\npaper's claim (ref [6]): chip count within 50%% of the commercial design\n";
  (* run the little program and show the machine working *)
  let eng = Sc_sim.Engine.create compiled.Sc_synth.Synth.circuit in
  Printf.printf "\nrunning the demo program on the compiled machine:\n";
  for cyc = 0 to 14 do
    List.iter
      (fun (n, v) -> Sc_sim.Engine.set_input_int eng n v)
      (Sc_core.Designs.pdp8_stim cyc);
    Sc_sim.Engine.step eng;
    match
      ( Sc_sim.Engine.get_output_int eng "pc_out"
      , Sc_sim.Engine.get_output_int eng "ac_out" )
    with
    | Some pc, Some ac -> Printf.printf "  cycle %2d: pc=%2d ac=%3d\n" cyc pc ac
    | _ -> Printf.printf "  cycle %2d: (settling)\n" cyc
  done;
  (* and produce manufacturing data for the compiled machine *)
  let layout =
    Sc_place.Placer.to_layout ~name:"pdp8"
      (Sc_place.Placer.ordered
         (Sc_place.Placer.problem_of_circuit compiled.Sc_synth.Synth.circuit))
  in
  let path = Filename.temp_file "pdp8" ".cif" in
  Sc_cif.Emit.write path layout;
  Printf.printf "\nplaced layout: %dx%d lambda, DRC %s; CIF at %s\n"
    (Sc_layout.Cell.width layout)
    (Sc_layout.Cell.height layout)
    (if Sc_drc.Checker.is_clean layout then "clean" else "VIOLATIONS")
    path
