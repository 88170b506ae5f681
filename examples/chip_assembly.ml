(* Parameterised chip assembly (claim C6): one program turns any core
   into a complete bonded chip — pad ring, stubs, overglass openings —
   and the same program scales from a tiny counter to a processor.
   The second half shows the generalized form: several independently
   compiled module layouts packed as macros under one routed channel,
   with the same pad frame around the packed core.

   Run:  dune exec examples/chip_assembly.exe  *)

let place ~name circuit =
  Sc_place.Placer.to_layout ~name
    (Sc_place.Placer.ordered (Sc_place.Placer.problem_of_circuit circuit))

let assemble_and_report name circuit pads =
  let core = place ~name circuit in
  let a = Sc_chip.Assemble.assemble ~name:(name ^ "_chip") ~core ~pads () in
  let clean = Sc_drc.Checker.is_clean a.Sc_chip.Assemble.chip in
  Printf.printf "%-10s %5d pads %10d core %12d chip  x%-5.2f DRC %s\n" name
    a.Sc_chip.Assemble.pads a.Sc_chip.Assemble.core_area
    a.Sc_chip.Assemble.chip_area a.Sc_chip.Assemble.overhead
    (if clean then "clean" else "VIOLATIONS");
  a

let () =
  Printf.printf "assembling chips around synthesized cores:\n\n";
  let counter =
    (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.counter_src))
      .Sc_synth.Synth.circuit
  in
  let alu =
    (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.alu_src))
      .Sc_synth.Synth.circuit
  in
  let pdp8 =
    (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.pdp8_src))
      .Sc_synth.Synth.circuit
  in
  let _ = assemble_and_report "counter" counter 12 in
  let _ = assemble_and_report "alu4" alu 12 in
  let chip = assemble_and_report "pdp8" pdp8 16 in
  (* the full chip as manufacturing data *)
  let path = Filename.temp_file "pdp8_chip" ".cif" in
  Sc_cif.Emit.write path chip.Sc_chip.Assemble.chip;
  Printf.printf "\nPDP-8 chip artwork written to %s\n" path;
  (* the same parameterised program, swept (a preview of experiment E6) *)
  Printf.printf "\npad-count sweep on the alu core:\n";
  List.iter
    (fun pads ->
      let core = place ~name:"alu4" alu in
      let a = Sc_chip.Assemble.assemble ~name:"alu_chip" ~core ~pads () in
      Printf.printf "  %2d pads -> chip %d sq lambda (x%.2f)\n" pads
        a.Sc_chip.Assemble.chip_area a.Sc_chip.Assemble.overhead)
    [ 4; 8; 16; 24; 32 ];
  (* the generalized assembly: the same pad frame, but the core is a
     row of macros — separately compiled module layouts wrapped with
     interface pin stubs — under one routed inter-macro channel.  The
     modular driver does all of this from a chip-block source. *)
  Printf.printf "\nmacro assembly (separate compilation of %s):\n" "system";
  (match
     Result.bind
       (Sc_core.Compiler.validate
          (Sc_core.Compiler.request Sc_core.Compiler.Isp
             Sc_core.Designs.system_src))
       (fun r -> (Sc_core.Compiler.run r).result)
   with
  | Error d ->
    Printf.printf "  modular compile failed: %s\n"
      (Sc_pipeline.Diag.to_string d)
  | Ok (c, netlist) ->
    (* a behavioral compile always returns its netlist *)
    let n = Option.get netlist in
    Printf.printf
      "  chip %s: %d sq lambda, %d transistors, %d gates + %d FFs, DRC %s\n"
      c.Sc_core.Compiler.layout.Sc_layout.Cell.name c.Sc_core.Compiler.area
      c.Sc_core.Compiler.transistors n.Sc_core.Compiler.gates
      n.Sc_core.Compiler.flipflops
      (if c.Sc_core.Compiler.drc_violations = 0 then "clean"
       else string_of_int c.Sc_core.Compiler.drc_violations ^ " violations"));
  (* the raw pack API, for cores that never came from the pipeline *)
  let block name w h =
    Sc_layout.Cell.make ~name
      [ Sc_layout.Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 0 w h) ]
  in
  let packed =
    Sc_chip.Assemble.pack ~name:"two_ip_blocks"
      ~macros:
        [ { Sc_chip.Assemble.mi_name = "u0"; mi_pins = [ "a"; "y" ]
          ; mi_cell = block "ip_a" 80 60
          }
        ; { Sc_chip.Assemble.mi_name = "u1"; mi_pins = [ "p"; "q" ]
          ; mi_cell = block "ip_b" 120 90
          }
        ]
      ~chip_ports:[ "in0"; "out0" ]
      ~nets:
        [ { Sc_chip.Assemble.net_name = "in0"
          ; ends = [ Sc_chip.Assemble.Chip "in0"; Pin ("u0", "a") ]
          }
        ; { Sc_chip.Assemble.net_name = "mid"
          ; ends = [ Sc_chip.Assemble.Pin ("u0", "y"); Pin ("u1", "p") ]
          }
        ; { Sc_chip.Assemble.net_name = "out0"
          ; ends = [ Sc_chip.Assemble.Pin ("u1", "q"); Chip "out0" ]
          }
        ]
      ()
  in
  Printf.printf "\nraw pack of two opaque IP blocks:\n  %s\n"
    (Format.asprintf "%a" Sc_chip.Assemble.pp_packed packed)
