open Sc_rtl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok src =
  match Parser.parse src with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse error: %s" e

let counter_src =
  {|
module counter;
inputs reset[1], load[1], data[4];
outputs q[4];
registers count[4];
behavior
  if reset == 1 then count := 0;
  else
    if load == 1 then count := data;
    else count := count + 1;
    end
  end
  q := count;
end
|}

let traffic_src =
  {|
-- two-street traffic light with a car sensor on the side street
module traffic;
inputs car[1], reset[1];
outputs ns[3], ew[3];
registers state[2], timer[2];
behavior
  if reset == 1 then state := 0; timer := 0;
  else
    decode state
      0: if car == 1 then state := 1; end
      1: state := 2; timer := 0;
      2: if timer == 3 then state := 3; else timer := timer + 1; end
      3: state := 0;
    end
  end
  decode state
    0: ns := 1; ew := 4;
    1: ns := 2; ew := 4;
    2: ns := 4; ew := 1;
    3: ns := 4; ew := 2;
  end
end
|}

let alu_src =
  {|
module alu4;
inputs op[2], a[4], b[4];
outputs y[4], z[1];
registers acc[4];
behavior
  decode op
    0: acc := a + b;
    1: acc := a - b;
    2: acc := a & b;
    3: acc := a ^ b;
  end
  y := acc;
  z := acc == 0;
end
|}

let stim_counter cyc =
  [ ("reset", if cyc = 0 then 1 else 0)
  ; ("load", if cyc = 7 then 1 else 0)
  ; ("data", cyc land 15)
  ]

let stim_traffic cyc =
  [ ("reset", if cyc = 0 then 1 else 0); ("car", (cyc / 3) land 1) ]

let stim_alu cyc = [ ("op", cyc land 3); ("a", cyc land 15); ("b", (cyc * 7) land 15) ]

let test_gates_counter_matches_interp () =
  let d = parse_ok counter_src in
  let r = Sc_synth.Synth.gates d in
  Alcotest.(check (list string)) "circuit clean" []
    (Sc_netlist.Circuit.check r.Sc_synth.Synth.circuit);
  check_bool "matches interpreter" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 40
       stim_counter)

let test_gates_traffic_matches_interp () =
  let d = parse_ok traffic_src in
  let r = Sc_synth.Synth.gates d in
  check_bool "matches interpreter" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 60
       stim_traffic)

let test_gates_alu_matches_interp () =
  let d = parse_ok alu_src in
  let r = Sc_synth.Synth.gates d in
  (* the ALU has no reset, but every register is written each cycle *)
  check_bool "matches interpreter" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 40 stim_alu)

let test_pla_counter_matches_interp () =
  let d = parse_ok counter_src in
  let r, pla = Sc_synth.Synth.pla_fsm d in
  check_bool "matches interpreter" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 40
       stim_counter);
  check_bool "pla layout DRC clean" true
    (Sc_drc.Checker.is_clean pla.Sc_pla.Generator.layout)

let test_pla_traffic_matches_interp () =
  let d = parse_ok traffic_src in
  let r, _ = Sc_synth.Synth.pla_fsm d in
  check_bool "matches interpreter" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 60
       stim_traffic)

let test_pla_rejects_large_state () =
  (* the ALU (op+a+b+acc = 14 bits) exceeds the 12-bit cap *)
  let d = parse_ok alu_src in
  check_bool "alu rejected" true
    (try
       ignore (Sc_synth.Synth.pla_fsm d);
       false
     with Sc_pipeline.Diag.Error _ -> true);
  let big =
    parse_ok
      {|
module big;
inputs a[10], b[8];
outputs y[1];
behavior
  y := a[0] & b[0];
end
|}
  in
  check_bool "rejected" true
    (try
       ignore (Sc_synth.Synth.pla_fsm big);
       false
     with Sc_pipeline.Diag.Error _ -> true)

let test_results_carry_metrics () =
  let d = parse_ok traffic_src in
  let g = Sc_synth.Synth.gates d in
  let _, pla = Sc_synth.Synth.pla_fsm d in
  check_bool "gates area positive" true
    (Sc_stdcell.Library.circuit_cell_area g.Sc_synth.Synth.circuit > 0);
  check_bool "pla area positive" true
    (Sc_layout.Cell.area pla.Sc_pla.Generator.layout > 0);
  check_bool "gates path positive" true
    (Sc_netlist.Timing.critical_path g.Sc_synth.Synth.circuit > 0);
  check_int "traffic has 4 state ffs" 4 g.Sc_synth.Synth.stats.Sc_netlist.Circuit.flipflops

let test_sub_and_compare_bits () =
  (* subtraction/comparison corner cases through the full path *)
  let src =
    {|
module cmp;
inputs a[3], b[3];
outputs lt[1], gt[1], d[3];
behavior
  lt := a < b;
  gt := a > b;
  d := a - b;
end
|}
  in
  let d = parse_ok src in
  let r = Sc_synth.Synth.gates d in
  let stim cyc = [ ("a", cyc land 7); ("b", (cyc lsr 3) land 7) ] in
  check_bool "all 64 combinations" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 64 stim)

let test_shift_bitselect () =
  let src =
    {|
module sh;
inputs a[4];
outputs up[4], down[4], msb[1];
behavior
  up := a << 2;
  down := a >> 1;
  msb := a[3];
end
|}
  in
  let d = parse_ok src in
  let r = Sc_synth.Synth.gates d in
  let stim cyc = [ ("a", cyc land 15) ] in
  check_bool "all values" true
    (Sc_synth.Synth.verify_against_interp d r.Sc_synth.Synth.circuit 16 stim)


let test_wires_synthesize () =
  (* the wire-sharing idiom compiles correctly on both backends *)
  let src =
    {|
module shared;
inputs sel[1], rst[1], a[3];
outputs y[3];
registers acc[3];
wires operand[3];
behavior
  if sel == 1 then operand := a; else operand := acc; end
  if rst == 1 then acc := 0; else acc := acc + operand; end
  y := acc;
end
|}
  in
  let d = parse_ok src in
  let stim cyc =
    [ ("rst", if cyc = 0 then 1 else 0)
    ; ("sel", cyc land 1)
    ; ("a", (cyc * 3) land 7)
    ]
  in
  let g = Sc_synth.Synth.gates d in
  check_bool "gates" true
    (Sc_synth.Synth.verify_against_interp d g.Sc_synth.Synth.circuit 32 stim);
  let p, _ = Sc_synth.Synth.pla_fsm d in
  check_bool "pla" true
    (Sc_synth.Synth.verify_against_interp d p.Sc_synth.Synth.circuit 32 stim)

let test_wire_sharing_shrinks_circuit () =
  (* operator sharing at the source level must reduce gate count *)
  let unshared =
    parse_ok
      {|
module u;
inputs s[1], a[6], b[6], c[6];
outputs y[6];
behavior
  if s == 1 then y := a + b; else y := a + c; end
end
|}
  in
  let shared =
    parse_ok
      {|
module s;
inputs s[1], a[6], b[6], c[6];
outputs y[6];
wires operand[6];
behavior
  if s == 1 then operand := b; else operand := c; end
  y := a + operand;
end
|}
  in
  let gu = (Sc_synth.Synth.gates unshared).Sc_synth.Synth.stats in
  let gs = (Sc_synth.Synth.gates shared).Sc_synth.Synth.stats in
  check_bool
    (Printf.sprintf "shared %d < unshared %d gates"
       gs.Sc_netlist.Circuit.gate_total gu.Sc_netlist.Circuit.gate_total)
    true
    (gs.Sc_netlist.Circuit.gate_total < gu.Sc_netlist.Circuit.gate_total)

(* property: random small FSM behaviours synthesize correctly on both
   backends *)
let gen_design =
  let open QCheck.Gen in
  (* a 2-bit state machine with random next-state table and output table *)
  let* next = array_size (return 8) (int_range 0 3) in
  let* out = array_size (return 4) (int_range 0 7) in
  let cases =
    List.init 4 (fun s ->
        ( s
        , [ Sc_rtl.Ast.If
              ( Sc_rtl.Ast.Binop (Sc_rtl.Ast.Eq, Sc_rtl.Ast.Ref "x", Sc_rtl.Ast.Const 1)
              , [ Sc_rtl.Ast.Assign ("s", Sc_rtl.Ast.Const next.((2 * s) + 1)) ]
              , [ Sc_rtl.Ast.Assign ("s", Sc_rtl.Ast.Const next.(2 * s)) ] )
          ; Sc_rtl.Ast.Assign ("y", Sc_rtl.Ast.Const out.(s))
          ] ))
  in
  return
    { Sc_rtl.Ast.name = "fsm"
    ; inputs = [ { Sc_rtl.Ast.dname = "x"; width = 1 }; { Sc_rtl.Ast.dname = "rst"; width = 1 } ]
    ; outputs = [ { Sc_rtl.Ast.dname = "y"; width = 3 } ]
    ; regs = [ { Sc_rtl.Ast.dname = "s"; width = 2 } ]
    ; wires = []
    ; body =
        [ Sc_rtl.Ast.If
            ( Sc_rtl.Ast.Binop (Sc_rtl.Ast.Eq, Sc_rtl.Ast.Ref "rst", Sc_rtl.Ast.Const 1)
            , [ Sc_rtl.Ast.Assign ("s", Sc_rtl.Ast.Const 0)
              ; Sc_rtl.Ast.Assign ("y", Sc_rtl.Ast.Const out.(0))
              ]
            , [ Sc_rtl.Ast.Decode (Sc_rtl.Ast.Ref "s", cases, []) ] )
        ]
    }

let prop_random_fsm_both_backends =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random FSMs synthesize correctly (both backends)"
       ~count:20 (QCheck.make gen_design) (fun d ->
         (match Sc_rtl.Check.check d with
         | [] -> true
         | _ -> false)
         &&
         let stim cyc =
           [ ("rst", if cyc = 0 then 1 else 0); ("x", (cyc lsr 1) land 1) ]
         in
         let g = Sc_synth.Synth.gates d in
         let p, _ = Sc_synth.Synth.pla_fsm d in
         Sc_synth.Synth.verify_against_interp d g.Sc_synth.Synth.circuit 24 stim
         && Sc_synth.Synth.verify_against_interp d p.Sc_synth.Synth.circuit 24
              stim))

let suite =
  [ Alcotest.test_case "gates: counter" `Quick test_gates_counter_matches_interp
  ; Alcotest.test_case "gates: traffic" `Quick test_gates_traffic_matches_interp
  ; Alcotest.test_case "gates: alu" `Quick test_gates_alu_matches_interp
  ; Alcotest.test_case "pla: counter" `Quick test_pla_counter_matches_interp
  ; Alcotest.test_case "pla: traffic" `Quick test_pla_traffic_matches_interp
  ; Alcotest.test_case "pla: size limit" `Quick test_pla_rejects_large_state
  ; Alcotest.test_case "results carry metrics" `Quick test_results_carry_metrics
  ; Alcotest.test_case "subtract and compare" `Quick test_sub_and_compare_bits
  ; Alcotest.test_case "shift and bit select" `Quick test_shift_bitselect
  ; Alcotest.test_case "wires synthesize" `Quick test_wires_synthesize
  ; Alcotest.test_case "wire sharing shrinks circuit" `Quick test_wire_sharing_shrinks_circuit
  ; prop_random_fsm_both_backends
  ]
