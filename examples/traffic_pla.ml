(* A regular block programmed for a specific function (claim C2), shown
   both ways the paper frames silicon compilation:

   - behavioral: the traffic-light controller's ISP description is
     compiled to an FSM realized as a PLA plus a register row;
   - structural: the same machine as random logic from the gates backend.

   The PLA is then simulated through its gate-level netlist view and the
   lamp sequence printed.

   Run:  dune exec examples/traffic_pla.exe  *)

let lamp_names = [| "G"; "Y"; "R" |]

let show_lamps v =
  let parts = ref [] in
  for i = 2 downto 0 do
    if v land (1 lsl i) <> 0 then parts := lamp_names.(i) :: !parts
  done;
  match !parts with [] -> "-" | l -> String.concat "" l

let () =
  let design = Sc_core.Designs.parse Sc_core.Designs.traffic_src in
  (* behavioral path: FSM -> minimized cover -> PLA *)
  let pla_result, pla = Sc_synth.Synth.pla_fsm design in
  Format.printf "%a@." Sc_pla.Generator.pp_summary pla;
  Printf.printf "PLA layout DRC: %s\n"
    (if Sc_drc.Checker.is_clean pla.Sc_pla.Generator.layout then "clean"
     else "VIOLATIONS");
  (* structural path for comparison *)
  let gates = Sc_synth.Synth.gates design in
  (* the PLA controller's area: the block plus a Dff per state bit *)
  let state_bits =
    List.fold_left (fun a (r : Sc_rtl.Ast.decl) -> a + r.width) 0
      design.Sc_rtl.Ast.regs
  in
  let pla_area =
    Sc_layout.Cell.area pla.Sc_pla.Generator.layout
    + (state_bits
      * (Sc_stdcell.Library.get Sc_netlist.Gate.Dff).Sc_stdcell.Library.area)
  in
  let path r = Sc_netlist.Timing.critical_path r.Sc_synth.Synth.circuit in
  Printf.printf
    "area (sq lambda): PLA control %d vs random logic %d; critical path: %d vs %d tau\n"
    pla_area
    (Sc_stdcell.Library.circuit_cell_area gates.Sc_synth.Synth.circuit)
    (path pla_result) (path gates);
  (* drive the PLA-based controller through a day at the junction *)
  let eng = Sc_sim.Engine.create pla_result.Sc_synth.Synth.circuit in
  Printf.printf "\n cycle car | NS  EW\n";
  for cyc = 0 to 17 do
    let car = if cyc >= 2 && cyc <= 4 then 1 else 0 in
    Sc_sim.Engine.set_input_int eng "reset" (if cyc = 0 then 1 else 0);
    Sc_sim.Engine.set_input_int eng "car" car;
    let ns = Sc_sim.Engine.get_output_int eng "ns" in
    let ew = Sc_sim.Engine.get_output_int eng "ew" in
    (match (ns, ew) with
    | Some ns, Some ew ->
      Printf.printf "  %2d    %d  | %-3s %-3s\n" cyc car (show_lamps ns)
        (show_lamps ew)
    | _ -> Printf.printf "  %2d    %d  | (uninitialized)\n" cyc car);
    Sc_sim.Engine.step eng
  done;
  (* write the PLA artwork *)
  let path = Filename.temp_file "traffic_pla" ".cif" in
  Sc_cif.Emit.write path pla.Sc_pla.Generator.layout;
  Printf.printf "\nPLA artwork written to %s\n" path
