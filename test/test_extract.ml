open Sc_layout
open Sc_extract

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let devices net = List.length net.Extractor.devices

let depletions net =
  List.length (List.filter (fun d -> d.Extractor.depletion) net.Extractor.devices)

(* --- extraction on the primitive standard cells --- *)

let test_inv_extraction () =
  let net = Extractor.extract (Sc_stdcell.Nmos.inv ()) in
  check_int "devices" 2 (devices net);
  check_int "one depletion load" 1 (depletions net);
  Alcotest.(check (list string)) "no warnings" [] net.Extractor.warnings;
  (* vdd, gnd, a, y are distinct electrical nodes *)
  let n name = Extractor.node_of net name in
  let all = [ n "vdd"; n "gnd"; n "a"; n "y" ] in
  check_int "four distinct nodes" 4 (List.length (List.sort_uniq compare all))

let test_primitive_device_counts () =
  List.iter
    (fun (cell, expected) ->
      let net = Extractor.extract cell in
      check_int cell.Cell.name expected (devices net);
      Alcotest.(check (list string)) (cell.Cell.name ^ " warnings") []
        net.Extractor.warnings)
    [ (Sc_stdcell.Nmos.inv (), 2)
    ; (Sc_stdcell.Nmos.nand 2, 3)
    ; (Sc_stdcell.Nmos.nand 3, 4)
    ; (Sc_stdcell.Nmos.nor2 (), 3)
    ]

let test_row_extraction_sums () =
  let row =
    Sc_stdcell.Nmos.row "r"
      [ Sc_stdcell.Nmos.inv (); Sc_stdcell.Nmos.nand 2; Sc_stdcell.Nmos.nor2 () ]
  in
  let net = Extractor.extract row in
  check_int "devices sum" (2 + 3 + 3) (devices net);
  check_int "three loads" 3 (depletions net)

(* --- the artwork computes (switch-level) --- *)

let test_inv_computes () =
  check_bool "inv" true
    (Switch.verify_logic (Sc_stdcell.Nmos.inv ()) ~inputs:[ "a" ]
       ~outputs:[ "y" ] (fun b -> [| not b.(0) |]))

let test_nand2_computes () =
  check_bool "nand2" true
    (Switch.verify_logic (Sc_stdcell.Nmos.nand 2) ~inputs:[ "a"; "b" ]
       ~outputs:[ "y" ] (fun b -> [| not (b.(0) && b.(1)) |]))

let test_nand3_computes () =
  check_bool "nand3" true
    (Switch.verify_logic (Sc_stdcell.Nmos.nand 3) ~inputs:[ "a"; "b"; "c" ]
       ~outputs:[ "y" ] (fun b -> [| not (b.(0) && b.(1) && b.(2)) |]))

let test_nor2_computes () =
  check_bool "nor2" true
    (Switch.verify_logic (Sc_stdcell.Nmos.nor2 ()) ~inputs:[ "a"; "b" ]
       ~outputs:[ "y" ] (fun b -> [| not (b.(0) || b.(1)) |]))

let test_wrong_spec_rejected () =
  (* the verifier must actually be able to fail *)
  check_bool "inv is not a buffer" false
    (Switch.verify_logic (Sc_stdcell.Nmos.inv ()) ~inputs:[ "a" ]
       ~outputs:[ "y" ] (fun b -> [| b.(0) |]))

let test_x_propagation () =
  (* undriven input: output must be X, not a confident value *)
  let net = Extractor.extract (Sc_stdcell.Nmos.inv ()) in
  let values =
    Switch.simulate net
      ~vdd:(Extractor.node_of net "vdd")
      ~gnd:(Extractor.node_of net "gnd")
      ~inputs:[]
  in
  check_bool "output X with floating gate" true
    (values.(Extractor.node_of net "y") = Switch.VX)

(* --- LVS-lite: the PLA artwork matches its personality matrix --- *)

let traffic_cover =
  Sc_logic.Cover.of_rows ~ninputs:2 ~noutputs:6
    [ ("00", "100001")
    ; ("01", "010001")
    ; ("10", "001100")
    ; ("11", "001010")
    ]

let pla_lvs (pla : Sc_pla.Generator.t) =
  let net = Extractor.extract pla.Sc_pla.Generator.layout in
  let cover = pla.Sc_pla.Generator.cover in
  let n_in = cover.Sc_logic.Cover.ninputs in
  let n_out = cover.Sc_logic.Cover.noutputs in
  let rows = pla.Sc_pla.Generator.rows in
  (* total devices: programmed sites plus one pull-up per row and column *)
  check_int "device total"
    (pla.Sc_pla.Generator.and_devices + pla.Sc_pla.Generator.or_devices + rows
   + n_out)
    (devices net);
  check_int "depletion loads" (rows + n_out) (depletions net);
  let vdd = Extractor.node_of net "vdd" in
  (* row nodes: non-vdd terminals of depletion pull-ups whose gate is that
     same node (gate tied to source through the buried contact) *)
  let row_nodes =
    List.filter_map
      (fun (d : Extractor.device) ->
        if d.Extractor.depletion then
          match List.filter (fun t -> t <> vdd) d.Extractor.terminals with
          | [ t ] when t = d.Extractor.gate -> Some t
          | _ -> None
        else None)
      net.Extractor.devices
  in
  check_int "every pull-up is gate-tied" (rows + n_out) (List.length row_nodes);
  (* per input column: programmed device count matches the cover *)
  for i = 0 to n_in - 1 do
    let count_lit lit =
      List.length
        (List.filter
           (fun (c : Sc_logic.Cube.t) -> c.Sc_logic.Cube.lits.(i) = lit)
           cover.Sc_logic.Cover.cubes)
    in
    let gate_count port =
      let node = Extractor.node_of net port in
      List.length
        (List.filter
           (fun (d : Extractor.device) ->
             (not d.Extractor.depletion) && d.Extractor.gate = node)
           net.Extractor.devices)
    in
    check_int
      (Printf.sprintf "true column %d" i)
      (count_lit Sc_logic.Cube.Zero)
      (gate_count (Printf.sprintf "in%d_t" i));
    check_int
      (Printf.sprintf "complement column %d" i)
      (count_lit Sc_logic.Cube.One)
      (gate_count (Printf.sprintf "in%d_c" i))
  done;
  (* per output column: drain count matches the cover *)
  for o = 0 to n_out - 1 do
    let node = Extractor.node_of net (Printf.sprintf "out%d" o) in
    let drains =
      List.length
        (List.filter
           (fun (d : Extractor.device) ->
             (not d.Extractor.depletion)
             && List.mem node d.Extractor.terminals)
           net.Extractor.devices)
    in
    let expected =
      List.length
        (List.filter
           (fun (c : Sc_logic.Cube.t) ->
             c.Sc_logic.Cube.outputs land (1 lsl o) <> 0)
           cover.Sc_logic.Cover.cubes)
    in
    check_int (Printf.sprintf "output column %d" o) expected drains
  done

let test_pla_artwork_matches_personality () =
  pla_lvs (Sc_pla.Generator.generate ~minimize:false traffic_cover)

let test_pla_artwork_matches_personality_minimized () =
  pla_lvs (Sc_pla.Generator.generate ~minimize:true traffic_cover)

let prop_random_pla_lvs =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 3 in
      let gen_cube =
        let* lits =
          array_size (return n)
            (oneofl [ Sc_logic.Cube.Zero; Sc_logic.Cube.One; Sc_logic.Cube.Dash ])
        in
        let* mask = int_range 1 ((1 lsl m) - 1) in
        return (Sc_logic.Cube.make lits mask)
      in
      let* cubes = list_size (int_range 1 5) gen_cube in
      return (Sc_logic.Cover.make ~ninputs:n ~noutputs:m cubes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random PLA artwork matches its personality"
       ~count:20 (QCheck.make gen) (fun cover ->
         let pla = Sc_pla.Generator.generate ~minimize:false cover in
         let net = Extractor.extract pla.Sc_pla.Generator.layout in
         devices net
         = pla.Sc_pla.Generator.and_devices + pla.Sc_pla.Generator.or_devices
           + pla.Sc_pla.Generator.rows + cover.Sc_logic.Cover.noutputs))


(* --- the PLA artwork computes its cover at switch level --- *)

let pla_artwork_computes cover =
  let pla = Sc_pla.Generator.generate ~minimize:false cover in
  let net = Extractor.extract pla.Sc_pla.Generator.layout in
  let node = Extractor.node_of net in
  let vdd = node "vdd" and gnd = node "gnd" in
  let n = cover.Sc_logic.Cover.ninputs in
  let m = cover.Sc_logic.Cover.noutputs in
  let ok = ref true in
  for v = 0 to (1 lsl n) - 1 do
    let bits = Array.init n (fun i -> v land (1 lsl i) <> 0) in
    let inputs =
      List.concat
        (List.init n (fun i ->
             [ ( node (Printf.sprintf "in%d_t" i)
               , if bits.(i) then Switch.V1 else Switch.V0 )
             ; ( node (Printf.sprintf "in%d_c" i)
               , if bits.(i) then Switch.V0 else Switch.V1 )
             ]))
    in
    let values = Switch.simulate net ~vdd ~gnd ~inputs in
    let expected = Sc_logic.Cover.eval cover bits in
    for o = 0 to m - 1 do
      (* the raw NOR-plane column carries the complemented function; the
         netlist view's output buffer restores the polarity *)
      let want = if expected.(o) then Switch.V0 else Switch.V1 in
      if values.(node (Printf.sprintf "out%d" o)) <> want then ok := false
    done
  done;
  !ok

let test_pla_artwork_computes () =
  check_bool "traffic PLA artwork computes its cover" true
    (pla_artwork_computes traffic_cover)

let test_pla_artwork_computes_adder () =
  let cover =
    Sc_logic.Cover.of_function ~ninputs:3 ~noutputs:2 (fun b ->
        let a = b.(0) and x = b.(1) and c = b.(2) in
        [| a <> x <> c; (a && x) || (a && c) || (x && c) |])
  in
  check_bool "full-adder PLA artwork computes" true (pla_artwork_computes cover)

let prop_random_pla_artwork_computes =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 3 in
      let gen_cube =
        let* lits =
          array_size (return n)
            (oneofl [ Sc_logic.Cube.Zero; Sc_logic.Cube.One; Sc_logic.Cube.Dash ])
        in
        let* mask = int_range 1 ((1 lsl m) - 1) in
        return (Sc_logic.Cube.make lits mask)
      in
      let* cubes = list_size (int_range 1 5) gen_cube in
      return (Sc_logic.Cover.make ~ninputs:n ~noutputs:m cubes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random PLA artwork computes its cover" ~count:15
       (QCheck.make gen) pla_artwork_computes)


(* --- a routed multi-cell module: cells + interconnect = circuit --- *)

let test_routed_chain_artwork () =
  List.iter
    (fun n ->
      let c = Sc_stdcell.Nmos.routed_chain n in
      check_bool (Printf.sprintf "chain%d DRC" n) true (Sc_drc.Checker.is_clean c);
      let net = Extractor.extract c in
      check_int (Printf.sprintf "chain%d devices" n) (2 * n) (devices net);
      Alcotest.(check (list string)) "no warnings" [] net.Extractor.warnings;
      check_bool
        (Printf.sprintf "chain%d computes" n)
        true
        (Switch.verify_logic c ~inputs:[ "a" ] ~outputs:[ "y" ] (fun b ->
             [| (if n mod 2 = 0 then b.(0) else not b.(0)) |])))
    [ 1; 2; 3; 6 ]

let test_routed_chain_cif_roundtrip () =
  check_bool "roundtrips" true
    (Sc_cif.Elaborate.roundtrip_ok (Sc_stdcell.Nmos.routed_chain 4))

(* --- the indexed extractor against the all-pairs oracle --- *)

(* What two extractions must share, up to node renumbering: counts, the
   port partition, the devices with every node named by its least port
   name ("?" when it has none), and the warnings (channel warnings name
   a sample rectangle of the channel, so only their number). *)
let summary (net : Extractor.netlist) =
  let least = Hashtbl.create 16 in
  List.iter
    (fun (p, n) ->
      match Hashtbl.find_opt least n with
      | Some q when q <= p -> ()
      | _ -> Hashtbl.replace least n p)
    net.named;
  let name n = Option.value (Hashtbl.find_opt least n) ~default:"?" in
  let partition =
    List.sort compare
      (Hashtbl.fold
         (fun n _ acc ->
           List.sort compare
             (List.filter_map (fun (p, m) -> if m = n then Some p else None) net.named)
           :: acc)
         least [])
  in
  let device (d : Extractor.device) =
    (name d.gate, List.sort compare (List.map name d.terminals), d.depletion)
  in
  let channel w = String.starts_with ~prefix:"channel" w in
  ( (net.node_count, devices net, depletions net)
  , partition
  , List.sort compare (List.map device net.devices)
  , List.filter (fun w -> not (channel w)) net.warnings
  , List.length (List.filter channel net.warnings) )

(* test_drc's random hierarchies, with ports on some of the top cell's
   conductor boxes (a degenerate box's port touches nothing) *)
let gen_ported =
  let open QCheck.Gen in
  let* layout = Test_drc.gen_layout in
  let conductors =
    List.filter_map
      (function
        | Cell.Box (((Sc_tech.Layer.Poly | Diffusion | Metal) as l), r) -> Some (l, r)
        | _ -> None)
      layout.Cell.elements
  in
  let* keep = list_repeat (List.length conductors) (float_bound_exclusive 1.) in
  let ports =
    List.concat
      (List.mapi
         (fun k ((l, r), u) ->
           if u < 0.6 then [ Cell.port (Printf.sprintf "p%d" k) l r ] else [])
         (List.combine conductors keep))
  in
  pure (Cell.add_ports layout ports)

(* a poly/diffusion crossing overlapped by a buried contact *)
let buried_cuts_channel layout =
  let on l = (Flatten.run_layers layout [ l ]).(Sc_tech.Layer.index l) in
  List.exists
    (fun p ->
      List.exists
        (fun d ->
          match Sc_geom.Rect.inter p d with
          | Some g -> List.exists (Sc_geom.Rect.overlaps g) (on Sc_tech.Layer.Buried)
          | None -> false)
        (on Sc_tech.Layer.Diffusion))
    (on Sc_tech.Layer.Poly)

let test_matches_reference () =
  let cut = ref false and depletion = ref false and warned = ref false in
  let most = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xE87; 18 |])
    (QCheck.Test.make ~name:"indexed extractor = all-pairs oracle" ~count:200
       (QCheck.make
          ~print:(fun c -> Printf.sprintf "%d flat boxes" (Cell.flat_rect_count c))
          gen_ported)
       (fun layout ->
         let expected = Extract_reference.extract layout in
         if buried_cuts_channel layout then cut := true;
         if depletions expected > 0 then depletion := true;
         if expected.warnings <> [] then warned := true;
         most := max !most (devices expected);
         summary (Extractor.extract layout) = summary expected));
  check_bool "some case has a buried contact cutting a channel" true !cut;
  check_bool "some device is depletion" true !depletion;
  check_bool "some case warns" true !warned;
  check_bool "some case has several devices" true (!most >= 3)

(* --- chip scale --- *)

let test_pdp8_extraction () =
  (* The all-pairs extractor took ~6 s of CPU on pdp8; the indexed one
     takes ~0.05 s.  The 1 s budget only trips if all-pairs behaviour
     comes back. *)
  match Sc_core.Compiler.compile_behavior Sc_core.Designs.pdp8_src with
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  | Ok (compiled, _) ->
    let t0 = Sys.time () in
    let net = Extractor.extract compiled.Sc_core.Compiler.layout in
    let dt = Sys.time () -. t0 in
    check_int "nodes" 9362 net.node_count;
    check_int "devices" 7294 (devices net);
    check_int "the transistor count agrees" compiled.transistors (devices net);
    check_int "depletion" 2620 (depletions net);
    Alcotest.(check (list string)) "no warnings" [] net.warnings;
    check_bool (Printf.sprintf "extraction under budget (%.2fs cpu)" dt) true (dt < 1.0)

let suite =
  [ Alcotest.test_case "inv extraction" `Quick test_inv_extraction
  ; Alcotest.test_case "primitive device counts" `Quick test_primitive_device_counts
  ; Alcotest.test_case "row extraction sums" `Quick test_row_extraction_sums
  ; Alcotest.test_case "inv artwork computes" `Quick test_inv_computes
  ; Alcotest.test_case "nand2 artwork computes" `Quick test_nand2_computes
  ; Alcotest.test_case "nand3 artwork computes" `Quick test_nand3_computes
  ; Alcotest.test_case "nor2 artwork computes" `Quick test_nor2_computes
  ; Alcotest.test_case "wrong spec rejected" `Quick test_wrong_spec_rejected
  ; Alcotest.test_case "X propagation" `Quick test_x_propagation
  ; Alcotest.test_case "PLA artwork matches personality" `Quick test_pla_artwork_matches_personality
  ; Alcotest.test_case "PLA artwork (minimized) matches" `Quick test_pla_artwork_matches_personality_minimized
  ; prop_random_pla_lvs
  ; Alcotest.test_case "PLA artwork computes (traffic)" `Quick test_pla_artwork_computes
  ; Alcotest.test_case "PLA artwork computes (adder)" `Quick test_pla_artwork_computes_adder
  ; prop_random_pla_artwork_computes
  ; Alcotest.test_case "routed chain artwork" `Quick test_routed_chain_artwork
  ; Alcotest.test_case "routed chain CIF roundtrip" `Quick test_routed_chain_cif_roundtrip
  ; Alcotest.test_case "indexed extractor matches the all-pairs oracle" `Quick
      test_matches_reference
  ; Alcotest.test_case "pdp8 extraction" `Slow test_pdp8_extraction
  ]
