(* The benchmark harness.

   Gray's paper (DAC 1979) is a position paper with no tables or figures,
   so the "evaluation" this harness regenerates is the set of checkable
   claims C1..C7 catalogued in DESIGN.md, as experiments E1..E7, plus the
   ablations of our own design choices and a set of Bechamel
   micro-benchmarks of the compiler's hot paths.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- e3
   Options:               e1 e2 e3 e4 e5 e6 e7 e8 e9 ablate micro all
   (E10, the stage-cost profile, is `scc compile DESIGN --stats`; the
   script bench/e10.sh regenerates BENCH_e10.json from `--metrics`.) *)

let section title claim =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "claim: %s\n\n" claim

let ratio a b = float_of_int a /. float_of_int (max b 1)

(* a PLA controller's area: the PLA block plus a Dff per state bit *)
let pla_area design (pla : Sc_pla.Generator.t) =
  let state_bits =
    List.fold_left (fun a (r : Sc_rtl.Ast.decl) -> a + r.width) 0
      design.Sc_rtl.Ast.regs
  in
  let dff = Sc_stdcell.Library.get Sc_netlist.Gate.Dff in
  Sc_layout.Cell.area pla.layout + (state_bits * dff.Sc_stdcell.Library.area)

(* constructive row placement of a gate netlist, as standard-cell artwork *)
let place ~name circuit =
  Sc_place.Placer.to_layout ~name
    (Sc_place.Placer.ordered (Sc_place.Placer.problem_of_circuit circuit))

(* ------------------------------------------------------------------ *)
(* E1: compiled PDP-8 vs hand design (claim C4)                        *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1: compiled PDP-8 vs hand design"
    "C4 (ref [6]): a PDP-8 compiled from ISP lands within 50% of a \
     commercial design's chip count";
  let design = Sc_core.Designs.parse Sc_core.Designs.pdp8_src in
  let compiled = Sc_synth.Synth.gates design in
  let hand = Sc_core.Designs.hand_pdp8 () in
  let hs = Sc_netlist.Circuit.stats hand in
  let cs = compiled.Sc_synth.Synth.stats in
  let ok_c =
    Sc_synth.Synth.verify_against_interp design compiled.Sc_synth.Synth.circuit
      120 Sc_core.Designs.pdp8_stim
  in
  let ok_h =
    Sc_synth.Synth.verify_against_interp design hand 120 Sc_core.Designs.pdp8_stim
  in
  Printf.printf "both implement the ISA (verified against interpreter): %b/%b\n\n"
    ok_c ok_h;
  Printf.printf "%-24s %10s %10s %8s\n" "metric" "compiled" "hand" "ratio";
  let row name a b = Printf.printf "%-24s %10d %10d %8.2f\n" name a b (ratio a b) in
  row "gates" cs.Sc_netlist.Circuit.gate_total hs.Sc_netlist.Circuit.gate_total;
  row "flip-flops" cs.Sc_netlist.Circuit.flipflops hs.Sc_netlist.Circuit.flipflops;
  row "transistors" cs.Sc_netlist.Circuit.transistors hs.Sc_netlist.Circuit.transistors;
  let c = compiled.Sc_synth.Synth.circuit in
  row "cell area (sq lambda)" (Sc_stdcell.Library.circuit_cell_area c)
    (Sc_stdcell.Library.circuit_cell_area hand);
  row "critical path (tau)" (Sc_netlist.Timing.critical_path c)
    (Sc_netlist.Timing.critical_path hand);
  Printf.printf
    "\npaper: ratio <= 1.5; measured transistor ratio %.2f (shape holds: same \
     order, compiled pays a bounded premium)\n"
    (ratio cs.Sc_netlist.Circuit.transistors hs.Sc_netlist.Circuit.transistors)

(* ------------------------------------------------------------------ *)
(* E2: automatic construction at a cost in space and speed (claim C3)  *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: synthesis cost in space and speed across the suite"
    "C3: RTL compilation constructs hardware automatically, 'although at a \
     cost in space and speed'";
  Printf.printf "%-10s %12s %12s %7s %9s %9s %7s\n" "design" "synth area"
    "hand area" "ratio" "synth tau" "hand tau" "ratio";
  List.iter
    (fun (name, src, hand, _stim, _cycles) ->
      let d = Sc_core.Designs.parse src in
      let c = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
      let a = Sc_stdcell.Library.circuit_cell_area c in
      let p = Sc_netlist.Timing.critical_path c in
      match hand with
      | Some h ->
        let ha = Sc_stdcell.Library.circuit_cell_area h in
        let hp = Sc_netlist.Timing.critical_path h in
        Printf.printf "%-10s %12d %12d %7.2f %9d %9d %7.2f\n" name a ha
          (ratio a ha) p hp (ratio p hp)
      | None ->
        Printf.printf "%-10s %12d %12s %7s %9d %9s %7s\n" name a "-" "-" p "-"
          "-")
    (Sc_core.Designs.all ());
  Printf.printf
    "\npaper: automatic construction costs space (ratios above 1.0); the \
     ratios above show the premium and where hand work still wins\n"

(* ------------------------------------------------------------------ *)
(* E3: memories and PLAs programmed for specific functions (claim C2)  *)
(* ------------------------------------------------------------------ *)

let random_cover ~seed ~ninputs ~noutputs ~terms =
  let rng = Random.State.make [| seed |] in
  let cubes =
    List.init terms (fun _ ->
        let lits =
          Array.init ninputs (fun _ ->
              match Random.State.int rng 3 with
              | 0 -> Sc_logic.Cube.Zero
              | 1 -> Sc_logic.Cube.One
              | _ -> Sc_logic.Cube.Dash)
        in
        Sc_logic.Cube.make lits (1 + Random.State.int rng ((1 lsl noutputs) - 1)))
  in
  Sc_logic.Cover.make ~ninputs ~noutputs cubes

let e3 () =
  section "E3: PLA and ROM area as a function of the programmed function"
    "C2: regular blocks such as memories and PLAs are programmed for \
     specific functions";
  Printf.printf "PLA area sweep (random covers, area in sq lambda):\n";
  Printf.printf "%4s %4s %6s | %10s %10s\n" "in" "out" "terms" "area" "predicted";
  List.iter
    (fun (n, m, t) ->
      let cover = random_cover ~seed:(n + (7 * m) + t) ~ninputs:n ~noutputs:m ~terms:t in
      let pla = Sc_pla.Generator.generate ~minimize:false cover in
      Printf.printf "%4d %4d %6d | %10d %10d\n" n m t
        (Sc_layout.Cell.area pla.Sc_pla.Generator.layout)
        (Sc_pla.Generator.predicted_area ~ninputs:n ~noutputs:m ~terms:t))
    [ (2, 2, 4); (4, 4, 8); (4, 8, 16); (8, 8, 16); (8, 8, 32); (8, 16, 64) ];
  Printf.printf "\nminimization effect on real functions (terms, area):\n";
  let minimization_row name cover =
    let raw = Sc_pla.Generator.generate ~minimize:false cover in
    let mn = Sc_pla.Generator.generate ~minimize:true cover in
    Printf.printf "%-12s raw %3d terms %8d   minimized %3d terms %8d  (%.2fx)\n"
      name raw.Sc_pla.Generator.rows
      (Sc_layout.Cell.area raw.Sc_pla.Generator.layout)
      mn.Sc_pla.Generator.rows
      (Sc_layout.Cell.area mn.Sc_pla.Generator.layout)
      (ratio
         (Sc_layout.Cell.area raw.Sc_pla.Generator.layout)
         (Sc_layout.Cell.area mn.Sc_pla.Generator.layout))
  in
  let seven_seg =
    let table =
      [| 0b1111110; 0b0110000; 0b1101101; 0b1111001; 0b0110011; 0b1011011
       ; 0b1011111; 0b1110000; 0b1111111; 0b1111011
      |]
    in
    let cubes = ref [] in
    for v = 0 to 9 do
      let bits = Array.init 4 (fun i -> v land (1 lsl i) <> 0) in
      if table.(v) <> 0 then
        cubes := Sc_logic.Cube.minterm bits table.(v) :: !cubes
    done;
    Sc_logic.Cover.make ~ninputs:4 ~noutputs:7 !cubes
  in
  minimization_row "7-segment" seven_seg;
  let adder_cover =
    Sc_logic.Cover.of_function ~ninputs:6 ~noutputs:4 (fun bits ->
        let a =
          (if bits.(0) then 1 else 0)
          lor (if bits.(1) then 2 else 0)
          lor if bits.(2) then 4 else 0
        in
        let b =
          (if bits.(3) then 1 else 0)
          lor (if bits.(4) then 2 else 0)
          lor if bits.(5) then 4 else 0
        in
        let s = a + b in
        Array.init 4 (fun i -> s land (1 lsl i) <> 0))
  in
  minimization_row "adder3+3" adder_cover;
  Printf.printf "\nROM area sweep (words x bits -> area, area/bit):\n";
  List.iter
    (fun (words, bits) ->
      let contents =
        Array.init words (fun i -> (i * 37) land ((1 lsl bits) - 1) lor 1)
      in
      let rom = Sc_rom.Rom.generate ~bits contents in
      let a = Sc_layout.Cell.area (Sc_rom.Rom.layout rom) in
      Printf.printf "  %3dx%-2d -> %9d   %7.1f\n" words bits a
        (float_of_int a /. float_of_int (words * bits)))
    [ (4, 4); (8, 4); (8, 8); (16, 8); (32, 8); (64, 8) ];
  Printf.printf
    "\npaper: one generator program covers every size; area tracks the \
     personality exactly (area = predicted) and minimization buys real area\n"

(* ------------------------------------------------------------------ *)
(* E4: structured wiring management (claim C5)                         *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: structured vs unstructured placement (wiring management)"
    "C5: structured design with regular structures simplifies wiring \
     management";
  Printf.printf "%-10s | %10s %10s %8s | %9s %9s %8s\n" "design" "rnd hpwl"
    "ord hpwl" "saving" "rnd chan" "ord chan" "saving";
  List.iter
    (fun (name, src, _, _, _) ->
      let d = Sc_core.Designs.parse src in
      let c = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
      let p = Sc_place.Placer.problem_of_circuit c in
      let rnd = Sc_place.Placer.random p in
      let ord =
        Sc_place.Placer.improve ~iters:3000 (Sc_place.Placer.ordered p)
      in
      let rh = Sc_place.Placer.hpwl rnd and oh = Sc_place.Placer.hpwl ord in
      (* routed channels: the real router assigns tracks to the nets
         crossing each row boundary *)
      let rc = (Sc_place.Placer.route_channels rnd).Sc_place.Placer.total_height in
      let oc = (Sc_place.Placer.route_channels ord).Sc_place.Placer.total_height in
      Printf.printf "%-10s | %10d %10d %7.0f%% | %9d %9d %7.0f%%\n" name rh oh
        (100. *. (1. -. (float_of_int oh /. float_of_int (max rh 1))))
        rc oc
        (100. *. (1. -. (float_of_int oc /. float_of_int (max rc 1)))))
    (Sc_core.Designs.all ());
  Printf.printf
    "\npaper: structure pays — both the wirelength estimate (HPWL) and the \
     actually routed channel height fall in every row\n"

(* ------------------------------------------------------------------ *)
(* E5: structural vs behavioral compilation (claim C7)                 *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: the two definitions of silicon compilation, compared"
    "C7: structural (graphic-language) and behavioral definitions coexist; \
     their costs and benefits differ";
  Printf.printf "%-10s %6s | %21s | %21s | %21s\n" "" "ISP"
    "behavioral: gates" "behavioral: PLA" "structural: hand";
  Printf.printf "%-10s %6s | %10s %10s | %10s %10s | %10s %10s\n" "design"
    "bytes" "area" "tau" "area" "tau" "area" "tau";
  List.iter
    (fun (name, src, hand, _, _) ->
      let d = Sc_core.Designs.parse src in
      let costs c =
        (Sc_stdcell.Library.circuit_cell_area c, Sc_netlist.Timing.critical_path c)
      in
      let g = costs (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
      let pla_cells =
        match Sc_synth.Synth.pla_fsm d with
        | r, pla ->
          Some
            ( pla_area d pla
            , Sc_netlist.Timing.critical_path r.Sc_synth.Synth.circuit )
        | exception Sc_pipeline.Diag.Error _ -> None
      in
      let hand_cells = Option.map costs hand in
      let cell = function
        | Some (a, t) -> Printf.sprintf "%10d %10d" a t
        | None -> Printf.sprintf "%10s %10s" "-" "-"
      in
      Printf.printf "%-10s %6d | %s | %s | %s\n" name (String.length src)
        (cell (Some g)) (cell pla_cells) (cell hand_cells))
    (Sc_core.Designs.all ());
  Printf.printf
    "\npaper: behavioral descriptions are the cheapest to write; structural \
     effort buys area and speed — both effects visible above\n"

(* ------------------------------------------------------------------ *)
(* E6: parameterised chip assembly (claim C6)                          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: one parameterised program assembles every chip"
    "C6: parameterised specification pays off in the task of chip assembly";
  Printf.printf "%-10s %5s %12s %12s %9s %6s\n" "core" "pads" "core area"
    "chip area" "overhead" "DRC";
  List.iter
    (fun (name, src, pads) ->
      let c =
        (Sc_synth.Synth.gates (Sc_core.Designs.parse src)).Sc_synth.Synth.circuit
      in
      let core = place ~name c in
      let a = Sc_chip.Assemble.assemble ~name:(name ^ "_chip") ~core ~pads () in
      Printf.printf "%-10s %5d %12d %12d %9.2f %6s\n" name pads
        a.Sc_chip.Assemble.core_area a.Sc_chip.Assemble.chip_area
        a.Sc_chip.Assemble.overhead
        (if Sc_drc.Checker.is_clean a.Sc_chip.Assemble.chip then "clean"
         else "FAIL"))
    [ ("gray", Sc_core.Designs.gray_src, 4)
    ; ("counter", Sc_core.Designs.counter_src, 8)
    ; ("alu4", Sc_core.Designs.alu_src, 12)
    ; ("pdp8", Sc_core.Designs.pdp8_src, 16)
    ];
  Printf.printf
    "\npaper: the assembly program is written once; overhead falls as cores \
     grow (top to bottom of the table)\n"

(* ------------------------------------------------------------------ *)
(* E7: textual description to manufacturing data (claim C1)            *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: end-to-end — text in, CIF out, DRC clean, roundtrip exact"
    "C1: design tools take a completely textual description and translate \
     it to layout data";
  Printf.printf "%-10s %-6s %10s %6s %6s %10s\n" "design" "path" "CIF bytes"
    "DRC" "exact" "rects";
  let check name path cell =
    let cif = Sc_cif.Emit.to_string cell in
    Printf.printf "%-10s %-6s %10d %6s %6b %10d\n" name path
      (String.length cif)
      (if Sc_drc.Checker.is_clean cell then "clean" else "FAIL")
      (Sc_cif.Elaborate.roundtrip_ok cell)
      (Sc_layout.Cell.flat_rect_count cell)
  in
  List.iter
    (fun (name, src, _, _, _) ->
      let d = Sc_core.Designs.parse src in
      let g = Sc_synth.Synth.gates d in
      check name "gates" (place ~name g.Sc_synth.Synth.circuit);
      match Sc_synth.Synth.pla_fsm d with
      | _, pla -> check name "pla" pla.Sc_pla.Generator.layout
      | exception Sc_pipeline.Diag.Error _ -> ())
    (Sc_core.Designs.all ());
  (match
     Sc_lang.Lang.compile ~args:[ 8; 4 ]
       {|
cell stage() { inst dff() at (0,0); inst inv() at (width(dff()),0); }
cell main(n, m) {
  for j = 0 to m-1 { for i = 0 to n-1 { inst stage() at (i*(width(stage())), j*60); } }
}
|}
   with
  | Ok cell -> check "shift8x4" "lang" cell
  | Error e ->
    Printf.printf "lang compile failed: %s\n" (Sc_lang.Lang.error_to_string e));
  Printf.printf "\npaper: every row must be clean and exact — they are\n"


(* ------------------------------------------------------------------ *)
(* E8: verification by simulation — of the artwork itself              *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: the artwork itself is verified by simulation"
    "the paper's closing question: behavioral descriptions exist 'so that \
     verification by simulation can be carried out' — here the simulation \
     runs on the extracted mask geometry";
  Printf.printf "%-16s %8s %8s %10s %8s\n" "artwork" "devices" "loads"
    "extraction" "computes";
  let show name cell inputs spec =
    let net = Sc_extract.Extractor.extract cell in
    let ok =
      Sc_extract.Switch.verify_logic cell ~inputs ~outputs:[ "y" ] spec
    in
    Printf.printf "%-16s %8d %8d %10s %8b\n" name
      (List.length net.Sc_extract.Extractor.devices)
      (List.length
         (List.filter
            (fun d -> d.Sc_extract.Extractor.depletion)
            net.Sc_extract.Extractor.devices))
      (if net.Sc_extract.Extractor.warnings = [] then "clean" else "WARN")
      ok
  in
  show "inv" (Sc_stdcell.Nmos.inv ()) [ "a" ] (fun b -> [| not b.(0) |]);
  show "nand2" (Sc_stdcell.Nmos.nand 2) [ "a"; "b" ] (fun b ->
      [| not (b.(0) && b.(1)) |]);
  show "nand3" (Sc_stdcell.Nmos.nand 3) [ "a"; "b"; "c" ] (fun b ->
      [| not (b.(0) && b.(1) && b.(2)) |]);
  show "nor2" (Sc_stdcell.Nmos.nor2 ()) [ "a"; "b" ] (fun b ->
      [| not (b.(0) || b.(1)) |]);
  show "routed chain x5" (Sc_stdcell.Nmos.routed_chain 5) [ "a" ] (fun b ->
      [| not b.(0) |]);
  (* the traffic PLA: drive the dual-rail inputs, check every output
     column against the cover (NOR-plane columns carry the complement) *)
  let cover =
    Sc_logic.Cover.of_rows ~ninputs:2 ~noutputs:6
      [ ("00", "100001"); ("01", "010001"); ("10", "001100"); ("11", "001010") ]
  in
  let pla = Sc_pla.Generator.generate ~minimize:false cover in
  let net = Sc_extract.Extractor.extract pla.Sc_pla.Generator.layout in
  let node = Sc_extract.Extractor.node_of net in
  let ok = ref true in
  for v = 0 to 3 do
    let bits = Array.init 2 (fun i -> v land (1 lsl i) <> 0) in
    let inputs =
      List.concat
        (List.init 2 (fun i ->
             [ ( node (Printf.sprintf "in%d_t" i)
               , if bits.(i) then Sc_extract.Switch.V1 else Sc_extract.Switch.V0 )
             ; ( node (Printf.sprintf "in%d_c" i)
               , if bits.(i) then Sc_extract.Switch.V0 else Sc_extract.Switch.V1 )
             ]))
    in
    let values =
      Sc_extract.Switch.simulate net ~vdd:(node "vdd") ~gnd:(node "gnd") ~inputs
    in
    let expected = Sc_logic.Cover.eval cover bits in
    for o = 0 to 5 do
      let want =
        if expected.(o) then Sc_extract.Switch.V0 else Sc_extract.Switch.V1
      in
      if values.(node (Printf.sprintf "out%d" o)) <> want then ok := false
    done
  done;
  Printf.printf "%-16s %8d %8d %10s %8b\n" "traffic PLA"
    (List.length net.Sc_extract.Extractor.devices)
    (List.length
       (List.filter
          (fun d -> d.Sc_extract.Extractor.depletion)
          net.Sc_extract.Extractor.devices))
    (if net.Sc_extract.Extractor.warnings = [] then "clean" else "WARN")
    !ok;
  Printf.printf
    "\nevery device in the masks is recovered by extraction (channels, \
     buried gate ties, depletion loads) and the geometry computes its \
     specification at switch level\n"

(* ------------------------------------------------------------------ *)
(* E9: formal equivalence — certifying the stages, not sampling them    *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9: formal equivalence checking across the compilation stages"
    "simulation samples the input space; the BDD engine covers it — \
     synthesis vs hand netlists, the optimizer, two-level minimization \
     and the mask artwork are each certified, and a single injected \
     fault yields a concrete replayable counterexample";
  let open Sc_equiv in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, (Sys.time () -. t0) *. 1000.)
  in
  Printf.printf "%-34s %7s %9s %10s %8s\n" "pair" "inputs" "bdd nodes"
    "verdict" "ms";
  let row name ~inputs man verdict ms =
    Printf.printf "%-34s %7d %9d %10s %8.1f\n" name inputs
      (Bdd.node_count man)
      (match verdict with
      | Checker.Equivalent -> "EQUIV"
      | Checker.Not_equivalent _ -> "DIFFER")
      ms
  in
  (* synthesized designs against their hand-built baselines, k cycles *)
  List.iter
    (fun (name, src, hand, k) ->
      let d = Sc_core.Designs.parse src in
      let synth = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
      let inputs =
        List.fold_left
          (fun acc (p : Sc_netlist.Circuit.port) -> acc + Array.length p.bits)
          0
          (Sc_netlist.Circuit.inputs synth)
      in
      let man = Bdd.create () in
      let v, ms = time (fun () -> Checker.check ~man ~k synth hand) in
      row
        (Printf.sprintf "%s: synth vs hand (k=%d)" name k)
        ~inputs:(inputs * k) man v ms)
    [ ("counter", Sc_core.Designs.counter_src, Sc_core.Designs.hand_counter (), 8)
    ; ("traffic", Sc_core.Designs.traffic_src, Sc_core.Designs.hand_traffic (), 8)
    ; ("alu4", Sc_core.Designs.alu_src, Sc_core.Designs.hand_alu (), 6)
    ];
  (* the PDP-8 datapath: purely combinational, 48 inputs — far beyond
     exhaustive simulation (2^48 vectors), settled in milliseconds *)
  let dp = Sc_core.Designs.parse Sc_core.Designs.pdp8_dp_src in
  let synth_dp = (Sc_synth.Synth.gates dp).Sc_synth.Synth.circuit in
  let hand_dp = Sc_core.Designs.hand_pdp8_dp () in
  let man = Sc_equiv.Bdd.create () in
  let v, ms = time (fun () -> Checker.check ~man synth_dp hand_dp) in
  row "pdp8 datapath: synth vs hand" ~inputs:48 man v ms;
  (* optimizer certification: raw translation vs optimized, every design *)
  List.iter
    (fun (name, src, _, _, _) ->
      if name <> "pdp8" then begin
        let d = Sc_core.Designs.parse src in
        let raw =
          (Sc_synth.Synth.gates ~optimize:false d).Sc_synth.Synth.circuit
        in
        let opt = Sc_netlist.Optimize.simplify raw in
        let inputs =
          List.fold_left
            (fun acc (p : Sc_netlist.Circuit.port) -> acc + Array.length p.bits)
            0
            (Sc_netlist.Circuit.inputs raw)
        in
        let seq = (Sc_netlist.Circuit.stats raw).Sc_netlist.Circuit.flipflops > 0 in
        let man = Bdd.create () in
        let v, ms = time (fun () -> Checker.check ~man ~k:6 raw opt) in
        row
          (name ^ ": raw vs optimized")
          ~inputs:(if seq then inputs * 6 else inputs)
          man v ms
      end)
    (Sc_core.Designs.all ());
  (* artwork: exhaustive switch-level tabulation of the extracted masks
     compared formally against the symbolic gate function *)
  let gate_ref name kind ins =
    let b = Sc_netlist.Builder.create name in
    let nets =
      List.map (fun n -> (Sc_netlist.Builder.input b n 1).(0)) ins
    in
    Sc_netlist.Builder.output b "y"
      [| Sc_netlist.Builder.gate b kind (Array.of_list nets) |];
    Sc_netlist.Builder.finish b
  in
  List.iter
    (fun (name, cell, kind, ins) ->
      let v, ms =
        time (fun () ->
            Checker.check_artwork cell ~inputs:ins ~outputs:[ "y" ]
              (gate_ref name kind ins))
      in
      Printf.printf "%-34s %7d %9s %10s %8.1f\n"
        ("artwork " ^ name ^ " vs gate")
        (List.length ins) "-"
        (match v with
        | Checker.Equivalent -> "EQUIV"
        | Checker.Not_equivalent _ -> "DIFFER")
        ms)
    [ ("inv", Sc_stdcell.Nmos.inv (), Sc_netlist.Gate.Inv, [ "a" ])
    ; ("nand2", Sc_stdcell.Nmos.nand 2, Sc_netlist.Gate.Nand2, [ "a"; "b" ])
    ; ("nand3", Sc_stdcell.Nmos.nand 3, Sc_netlist.Gate.Nand3, [ "a"; "b"; "c" ])
    ; ("nor2", Sc_stdcell.Nmos.nor2 (), Sc_netlist.Gate.Nor2, [ "a"; "b" ])
    ];
  (* fault injection: one gate flipped in the hand datapath; the checker
     must produce a concrete counterexample and the event-driven
     simulator must reproduce it *)
  let ngates = List.length (Sc_netlist.Circuit.flatten hand_dp).Sc_netlist.Circuit.gates in
  let mutated = Checker.mutate hand_dp (ngates / 2) in
  (match Checker.check synth_dp mutated with
  | Checker.Equivalent ->
    Printf.printf "\nfault injection: mutation was masked (unexpected)\n"
  | Checker.Not_equivalent cex ->
    Printf.printf
      "\nfault injection: gate %d of %d flipped in the hand datapath\n"
      (ngates / 2) ngates;
    Printf.printf "  counterexample: output %s[%d] under" cex.Checker.output
      cex.Checker.bit;
    List.iter
      (fun (p, v) -> Printf.printf " %s=%d" p v)
      (List.hd cex.Checker.frames);
    Printf.printf "\n  replay through the event-driven simulator: %s\n"
      (match Checker.replay synth_dp mutated cex with
      | Checker.Reproduced -> "CONFIRMED"
      | Checker.Not_reproduced -> "NOT REPRODUCED"
      | Checker.Indeterminate -> "INDETERMINATE (X state)"));
  Printf.printf
    "\npaper: 'verification by simulation' is the closing concern — the \
     BDD engine upgrades it to proof wherever the netlist is in reach\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let counter_src_of_width w =
  Printf.sprintf
    {|
module counter%d;
inputs reset[1];
outputs q[%d];
registers count[%d];
behavior
  if reset == 1 then count := 0;
  else count := count + 1;
  end
  q := count;
end
|}
    w w w

let ablate () =
  section "Ablations" "design choices DESIGN.md calls out, each toggled";
  (* A1: two-level minimization before PLA generation *)
  Printf.printf "A1  minimize before PLA generation (traffic controller):\n";
  let d = Sc_core.Designs.parse Sc_core.Designs.traffic_src in
  let raw = Sc_synth.Synth.pla_fsm ~minimize:false d in
  let mn = Sc_synth.Synth.pla_fsm ~minimize:true d in
  let area r = Sc_layout.Cell.area (snd r).Sc_pla.Generator.layout in
  Printf.printf
    "    off: %d rows, %d sq lambda;  on: %d rows, %d sq lambda (%.2fx)\n"
    (snd raw).Sc_pla.Generator.rows (area raw) (snd mn).Sc_pla.Generator.rows
    (area mn)
    (ratio (area raw) (area mn));
  (* A2: doglegs in the channel router -- their real job is breaking
     vertical-constraint cycles: 1 over 2 at column 0, 2 over 3 at column
     28, 3 over 1 at column 56; net 1's mid-channel pin lets the dogleg
     split it and open the cycle *)
  Printf.printf "\nA2  channel router doglegs (cyclic constraint case):\n";
  let spec =
    let open Sc_route.Channel in
    { top = [ { x = 0; net = 1 }; { x = 28; net = 2 }; { x = 56; net = 3 } ]
    ; bottom =
        [ { x = 0; net = 2 }; { x = 14; net = 1 }; { x = 28; net = 3 }
        ; { x = 56; net = 1 }
        ]
    ; width = 60
    }
  in
  (match Sc_route.Channel.route spec with
  | r -> Printf.printf "    off: routed in %d tracks (unexpected!)\n" r.Sc_route.Channel.tracks
  | exception Sc_route.Channel.Unroutable _ ->
    Printf.printf "    off: UNROUTABLE (vertical constraint cycle)\n");
  (match Sc_route.Channel.route ~dogleg:true spec with
  | r ->
    Printf.printf "    on:  routed in %d tracks (height %d), DRC %s\n"
      r.Sc_route.Channel.tracks r.Sc_route.Channel.height
      (if Sc_drc.Checker.is_clean (Sc_route.Channel.draw r) then "clean"
       else "FAIL")
  | exception Sc_route.Channel.Unroutable m -> Printf.printf "    on:  unroutable: %s\n" m);
  (* A3: placement algorithm *)
  Printf.printf "\nA3  placement (pdp8 netlist HPWL):\n";
  let c =
    (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.pdp8_src))
      .Sc_synth.Synth.circuit
  in
  let p = Sc_place.Placer.problem_of_circuit c in
  Printf.printf "    random %d; ordered %d; ordered+improve %d\n"
    (Sc_place.Placer.hpwl (Sc_place.Placer.random p))
    (Sc_place.Placer.hpwl (Sc_place.Placer.ordered p))
    (Sc_place.Placer.hpwl
       (Sc_place.Placer.improve ~iters:3000 (Sc_place.Placer.ordered p)));
  (* A4: PLA vs discrete-gate control as state grows *)
  Printf.printf "\nA4  control style vs state count (counter width sweep):\n";
  Printf.printf "    %5s %12s %12s\n" "bits" "gates area" "PLA area";
  List.iter
    (fun w ->
      let d = Sc_core.Designs.parse (counter_src_of_width w) in
      let g = Sc_synth.Synth.gates d in
      let pla =
        match Sc_synth.Synth.pla_fsm d with
        | _, pla -> string_of_int (pla_area d pla)
        | exception Sc_pipeline.Diag.Error _ -> "(too large)"
      in
      Printf.printf "    %5d %12d %12s\n" w
        (Sc_stdcell.Library.circuit_cell_area g.Sc_synth.Synth.circuit)
        pla)
    [ 2; 4; 6; 8; 10 ];
  (* A5: the netlist optimizer *)
  Printf.printf "\nA5  netlist optimizer (gates backend, transistors):\n";
  List.iter
    (fun (name, src, _, _, _) ->
      let d = Sc_core.Designs.parse src in
      let off = Sc_synth.Synth.gates ~optimize:false d in
      let on = Sc_synth.Synth.gates ~optimize:true d in
      Printf.printf "    %-10s off %6d  on %6d  (%.2fx)\n" name
        off.Sc_synth.Synth.stats.Sc_netlist.Circuit.transistors
        on.Sc_synth.Synth.stats.Sc_netlist.Circuit.transistors
        (ratio off.Sc_synth.Synth.stats.Sc_netlist.Circuit.transistors
           on.Sc_synth.Synth.stats.Sc_netlist.Circuit.transistors))
    (Sc_core.Designs.all ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* only hot paths that bench/perf's layers do not time *)
let micro () =
  section "Micro-benchmarks" "compiler hot paths, ns per run (Bechamel OLS)";
  let open Bechamel in
  let cell_row =
    Sc_stdcell.Nmos.row "r"
      [ Sc_stdcell.Nmos.inv (); Sc_stdcell.Nmos.nand 2; Sc_stdcell.Nmos.nor2 ()
      ; Sc_stdcell.Nmos.nand 3
      ]
  in
  let cif_text = Sc_cif.Emit.to_string cell_row in
  let full_adder_cover =
    Sc_logic.Cover.of_function ~ninputs:3 ~noutputs:2 (fun bits ->
        let a = bits.(0) and b = bits.(1) and c = bits.(2) in
        [| a <> b <> c; (a && b) || (a && c) || (b && c) |])
  in
  let pdp8_engine =
    Sc_sim.Engine.create
      (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.pdp8_src))
        .Sc_synth.Synth.circuit
  in
  let trans =
    Sc_geom.Transform.make ~orient:Sc_geom.Transform.R90
      (Sc_geom.Point.make 17 (-3))
  in
  let tests =
    Test.make_grouped ~name:"silicon_compiler"
      [ Test.make ~name:"transform.apply_rect"
          (Staged.stage (fun () ->
               Sc_geom.Transform.apply_rect trans (Sc_geom.Rect.make 1 2 30 40)))
      ; Test.make ~name:"cif.parse(stdcell row)"
          (Staged.stage (fun () -> Sc_cif.Parse.parse cif_text))
      ; Test.make ~name:"qm.minimize(full adder)"
          (Staged.stage (fun () ->
               Sc_logic.Minimize.minimize ~exact:true full_adder_cover))
      ; Test.make ~name:"sim.step(pdp8)"
          (Staged.stage (fun () ->
               Sc_sim.Engine.set_input_int pdp8_engine "inst" 0xE5;
               Sc_sim.Engine.step pdp8_engine))
      ; (* the observability bargain: a span must cost one branch when
           disabled, so instrumented hot paths stay at their old numbers *)
        Test.make ~name:"obs.span(disabled)"
          (Staged.stage (fun () -> Sc_obs.Obs.span "micro" (fun () -> 42)))
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "  %-42s %14.0f ns/run\n" name est
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let run = function
    | "e1" -> e1 ()
    | "e2" -> e2 ()
    | "e3" -> e3 ()
    | "e4" -> e4 ()
    | "e5" -> e5 ()
    | "e6" -> e6 ()
    | "e7" -> e7 ()
    | "e8" -> e8 ()
    | "e9" -> e9 ()
    | "ablate" -> ablate ()
    | "micro" -> micro ()
    | other ->
      Printf.eprintf "unknown experiment %S\n" other;
      exit 2
  in
  match what with
  | "all" ->
    List.iter run
      [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "ablate"; "micro" ]
  | w -> run w
