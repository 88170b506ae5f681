open Sc_netlist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* one-bit full adder as a reusable sub-circuit *)
let full_adder () =
  let b = Builder.create "fa" in
  let a = (Builder.input b "a" 1).(0) in
  let x = (Builder.input b "b" 1).(0) in
  let cin = (Builder.input b "cin" 1).(0) in
  let p = Builder.xor2 b a x in
  let s = Builder.xor2 b p cin in
  let g = Builder.and2 b a x in
  let pc = Builder.and2 b p cin in
  let cout = Builder.or2 b g pc in
  Builder.output b "s" [| s |];
  Builder.output b "cout" [| cout |];
  Builder.finish b

let ripple4 () =
  let fa = full_adder () in
  let b = Builder.create "ripple4" in
  let xs = Builder.input b "x" 4 in
  let ys = Builder.input b "y" 4 in
  let sums = Builder.fresh_vec b 4 in
  let carries = Builder.fresh_vec b 4 in
  for i = 0 to 3 do
    let cin = if i = 0 then Builder.const0 else carries.(i - 1) in
    Builder.inst b
      ~name:(Printf.sprintf "fa%d" i)
      fa
      [ ("a", [| xs.(i) |])
      ; ("b", [| ys.(i) |])
      ; ("cin", [| cin |])
      ; ("s", [| sums.(i) |])
      ; ("cout", [| carries.(i) |])
      ]
  done;
  Builder.output b "sum" sums;
  Builder.output b "cout" [| carries.(3) |];
  Builder.finish b

let test_builder_check_clean () =
  let c = full_adder () in
  Alcotest.(check (list string)) "clean" [] (Circuit.check c)

let test_hierarchy_check_clean () =
  let c = ripple4 () in
  Alcotest.(check (list string)) "clean" [] (Circuit.check c)

let test_arity_rejected () =
  let b = Builder.create "bad" in
  let a = (Builder.input b "a" 1).(0) in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Circuit bad: gate g1 has 1 inputs, nand2 wants 2")
    (fun () ->
      Builder.gate_into b Gate.Nand2 [| a |] (Builder.fresh_vec b 1).(0);
      ignore (Builder.finish b))

let test_undriven_detected () =
  let b = Builder.create "undriven" in
  let _ = Builder.input b "a" 1 in
  let floating = (Builder.fresh_vec b 1).(0) in
  let y = Builder.not_ b floating in
  Builder.output b "y" [| y |];
  let c = Builder.finish b in
  check_bool "reported" true (Circuit.check c <> [])

let test_double_driver_detected () =
  let b = Builder.create "dd" in
  let a = (Builder.input b "a" 1).(0) in
  let n = (Builder.fresh_vec b 1).(0) in
  Builder.gate_into b Gate.Inv [| a |] n;
  Builder.gate_into b Gate.Buf [| a |] n;
  Builder.output b "y" [| n |];
  let c = Builder.finish b in
  check_bool "reported" true
    (List.exists
       (fun s -> String.length s > 0 && String.sub s 0 3 = "net")
       (Circuit.check c))

let test_open_instance_port_rejected () =
  let fa = full_adder () in
  let b = Builder.create "open" in
  let xs = Builder.input b "x" 1 in
  Alcotest.check_raises "open port"
    (Invalid_argument "Circuit open: instance fa0 leaves port cout open")
    (fun () ->
      Builder.inst b ~name:"fa0" fa
        [ ("a", xs)
        ; ("b", [| Builder.const0 |])
        ; ("cin", [| Builder.const0 |])
        ; ("s", [| (Builder.fresh_vec b 1).(0) |])
        ];
      ignore (Builder.finish b))

let test_flatten_counts () =
  let c = ripple4 () in
  let f = Circuit.flatten c in
  check_int "no instances left" 0 (List.length f.Circuit.insts);
  (* 5 gates per FA x 4 *)
  check_int "gates" 20 (List.length f.Circuit.gates);
  Alcotest.(check (list string)) "flat clean" [] (Circuit.check f)

let test_stats () =
  let s = Circuit.stats (ripple4 ()) in
  check_int "gate total" 20 s.Circuit.gate_total;
  check_int "instances" 4 s.Circuit.module_instances;
  check_int "no ffs" 0 s.Circuit.flipflops;
  check_bool "transistors counted" true (s.Circuit.transistors > 0)

let test_cycle_detection () =
  let b = Builder.create "cyc" in
  let a = (Builder.input b "a" 1).(0) in
  let n1 = (Builder.fresh_vec b 1).(0) in
  let n2 = (Builder.fresh_vec b 1).(0) in
  Builder.gate_into b Gate.Nand2 [| a; n2 |] n1;
  Builder.gate_into b Gate.Inv [| n1 |] n2;
  Builder.output b "y" [| n2 |];
  let c = Builder.finish b in
  check_bool "cycle found" true (Circuit.has_combinational_cycle c)

let test_dff_breaks_cycle () =
  let b = Builder.create "reg_loop" in
  let n1 = (Builder.fresh_vec b 1).(0) in
  let q = Builder.gate b Gate.Dff [| n1 |] in
  Builder.gate_into b Gate.Inv [| q |] n1;
  Builder.output b "q" [| q |];
  let c = Builder.finish b in
  check_bool "no combinational cycle" false (Circuit.has_combinational_cycle c)

let test_critical_path_chain () =
  let b = Builder.create "chain" in
  let a = (Builder.input b "a" 1).(0) in
  let n = ref a in
  for _ = 1 to 10 do
    n := Builder.not_ b !n
  done;
  Builder.output b "y" [| !n |];
  let c = Builder.finish b in
  check_int "10 inverters" 10 (Timing.critical_path c)

let test_critical_path_through_hierarchy () =
  let c = ripple4 () in
  (* ripple carry: xor(3) + 3 stages of carry + final xor; just check
     monotonicity vs a single FA *)
  let single = full_adder () in
  check_bool "ripple slower than one FA" true
    (Timing.critical_path c > Timing.critical_path single)

let test_dff_cuts_path () =
  let b = Builder.create "cut" in
  let a = (Builder.input b "a" 1).(0) in
  let x1 = Builder.not_ b a in
  let q = Builder.gate b Gate.Dff [| x1 |] in
  let x2 = Builder.not_ b q in
  Builder.output b "y" [| x2 |];
  let c = Builder.finish b in
  check_int "path is one inverter" 1 (Timing.critical_path c)

let test_cycle_raises_in_timing () =
  let b = Builder.create "cyc2" in
  let n1 = (Builder.fresh_vec b 1).(0) in
  let n2 = (Builder.fresh_vec b 1).(0) in
  Builder.gate_into b Gate.Inv [| n2 |] n1;
  Builder.gate_into b Gate.Inv [| n1 |] n2;
  Builder.output b "y" [| n2 |];
  let c = Builder.finish b in
  check_bool "raises" true
    (try
       ignore (Timing.critical_path c);
       false
     with Timing.Combinational_cycle -> true)

let test_cycle_raises_in_arrival_times () =
  (* a cycle threaded through two gate kinds, with a duplicated input net
     on the Or2 — the per-occurrence pending counts must not mask it *)
  let b = Builder.create "cyc3" in
  let a = (Builder.input b "a" 1).(0) in
  let n1 = (Builder.fresh_vec b 1).(0) in
  let n2 = (Builder.fresh_vec b 1).(0) in
  Builder.gate_into b Gate.And2 [| a; n2 |] n1;
  Builder.gate_into b Gate.Or2 [| n1; n1 |] n2;
  Builder.output b "y" [| n2 |];
  let c = Builder.finish b in
  check_bool "arrival_times raises" true
    (try
       ignore (Timing.arrival_times c);
       false
     with Timing.Combinational_cycle -> true);
  (* the equivalence checker's topological sort reports it too *)
  check_bool "comb_topo raises" true
    (try
       ignore (Circuit.comb_topo c);
       false
     with Invalid_argument _ -> true)

let prop_gate_eval_matches_kind =
  let gen =
    QCheck.Gen.(
      pair
        (oneofl
           [ Gate.Inv; Gate.Buf; Gate.Nand2; Gate.Nand3; Gate.Nor2; Gate.Nor3
           ; Gate.And2; Gate.Or2; Gate.Xor2; Gate.Xnor2; Gate.Mux2
           ])
        (array_size (return 3) bool))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"gate eval consistency (de Morgan pairs)" ~count:200
       (QCheck.make gen) (fun (k, bits) ->
         let ins = Array.sub bits 0 (Gate.arity k) in
         let v = Gate.eval k ins in
         match k with
         | Gate.Nand2 -> v = not (Gate.eval Gate.And2 ins)
         | Gate.Nor2 -> v = not (Gate.eval Gate.Or2 ins)
         | Gate.Xnor2 -> v = not (Gate.eval Gate.Xor2 ins)
         | Gate.Buf -> v = ins.(0)
         | Gate.Inv -> v = not ins.(0)
         | _ -> true))


(* --- optimizer --- *)

let test_optimize_folds_constants () =
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let x = Builder.and2 b a Builder.const0 in
  let y = Builder.or2 b x Builder.const1 in
  let z = Builder.xor2 b y Builder.const0 in
  Builder.output b "z" [| z |];
  let c = Optimize.simplify (Builder.finish b) in
  (* everything folds to constant true *)
  check_int "no gates left" 0 (List.length c.Circuit.gates)

let test_optimize_cse () =
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let x = (Builder.input b "x" 1).(0) in
  let g1 = Builder.and2 b a x in
  let g2 = Builder.and2 b x a in
  (* commutative duplicates *)
  Builder.output b "y" [| Builder.or2 b g1 g2 |];
  let c = Optimize.simplify (Builder.finish b) in
  (* or(g,g) collapses too: a single and gate remains *)
  check_int "one gate" 1 (List.length c.Circuit.gates)

let test_optimize_no_sequential_cse () =
  (* Two registers fed by the same D are NOT the same signal: until the
     clock edge they hold independent state.  CSE must leave both. *)
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let q1 = Builder.gate b Gate.Dff [| a |] in
  let q2 = Builder.gate b Gate.Dff [| a |] in
  Builder.output b "y1" [| q1 |];
  Builder.output b "y2" [| q2 |];
  let c = Optimize.simplify (Builder.finish b) in
  check_int "both registers survive" 2
    (List.length
       (List.filter
          (fun g -> Gate.is_sequential g.Circuit.kind)
          c.Circuit.gates))

let test_optimize_removes_dead () =
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let _dead = Builder.not_ b (Builder.not_ b a) in
  Builder.output b "y" [| a |];
  let c = Optimize.simplify (Builder.finish b) in
  check_int "dead gates gone" 0 (List.length c.Circuit.gates)

let test_optimize_double_inverter () =
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let y = Builder.not_ b (Builder.not_ b a) in
  Builder.output b "y" [| y |];
  let c = Optimize.simplify (Builder.finish b) in
  check_int "collapsed" 0 (List.length c.Circuit.gates);
  Alcotest.(check (list string)) "still clean" [] (Circuit.check c)

let prop_optimize_preserves_function =
  let gen =
    QCheck.Gen.(
      list_size (int_range 3 25)
        (triple (int_range 0 10) (int_range 0 10) (int_range 0 6)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"simplify preserves combinational functions"
       ~count:80 (QCheck.make gen) (fun spec ->
         (* build a random DAG over 4 inputs *)
         let b = Builder.create "r" in
         let ins = Builder.input b "x" 4 in
         let pool = ref (Array.to_list ins) in
         let pick k =
           let l = !pool in
           List.nth l (k mod List.length l)
         in
         List.iter
           (fun (i, j, op) ->
             let a = pick i and c = pick j in
             let n =
               match op with
               | 0 -> Builder.and2 b a c
               | 1 -> Builder.or2 b a c
               | 2 -> Builder.xor2 b a c
               | 3 -> Builder.gate b Gate.Nand2 [| a; c |]
               | 4 -> Builder.gate b Gate.Nor2 [| a; c |]
               | 5 -> Builder.not_ b a
               | _ -> Builder.mux2 b ~sel:a c (pick (i + j))
             in
             pool := n :: !pool)
           spec;
         let outs = Array.of_list (List.filteri (fun i _ -> i < 3) !pool) in
         Builder.output b "y" outs;
         let c = Builder.finish b in
         let c' = Optimize.simplify c in
         (List.length c'.Circuit.gates <= List.length c.Circuit.gates)
         &&
         let t1 = Sc_sim.Engine.create c in
         let t2 = Sc_sim.Engine.create c' in
         let ok = ref true in
         for v = 0 to 15 do
           Sc_sim.Engine.set_input_int t1 "x" v;
           Sc_sim.Engine.set_input_int t2 "x" v;
           if
             Sc_sim.Engine.get_output_int t1 "y"
             <> Sc_sim.Engine.get_output_int t2 "y"
           then ok := false
         done;
         !ok))

(* --- the optimizer and static timing against their references --- *)

(* [simplify] must equal the old optimizer's result, and [arrival_times]
   the old pass's arrays, or both raise [Combinational_cycle] *)
let agree_with_references c =
  let arrivals c =
    match Timing.arrival_times c with
    | r -> Some r
    | exception Timing.Combinational_cycle -> None
  in
  let reference_arrivals c =
    match Timing_reference.arrival_times c with
    | r -> Some r
    | exception Timing.Combinational_cycle -> None
  in
  let s = Optimize.simplify c in
  s = Optimize_reference.simplify c
  && arrivals c = reference_arrivals c
  && arrivals s = reference_arrivals s

let all_kinds = Array.of_list Gate.all

(* A random netlist on [Random.State] [st]: gates of all 15 kinds on
   random earlier nets (constants and duplicate inputs included), Buf
   and Inv chains, [Mux2]s with equal data inputs, [Dffe]s with constant
   enables, and up to two levels of instances through [Builder.inst].
   One net, read like any other, is driven last: by a flip-flop or by
   a combinational gate, which closes a cycle when its inputs depend on
   that net. *)
let random_netlist st =
  let int n = Random.State.int st n in
  let rec build name depth =
    let b = Builder.create name in
    let xs = Builder.input b "x" 3 in
    let fb = (Builder.fresh_vec b 1).(0) in
    let pool = ref (fb :: Builder.const0 :: Builder.const1 :: Array.to_list xs) in
    let pick () = List.nth !pool (int (List.length !pool)) in
    let add n = pool := n :: !pool in
    let gate k ins = add (Builder.gate b k ins) in
    for _ = 1 to 4 + int 16 do
      match int 10 with
      | 0 ->
        let n = ref (pick ()) in
        for _ = 0 to int 5 do
          n := Builder.gate b (if int 2 = 0 then Gate.Inv else Gate.Buf) [| !n |]
        done;
        add !n
      | 1 ->
        let a = pick () in
        gate [| Gate.And2; Gate.Or2; Gate.Xor2; Gate.Xnor2; Gate.Nand2; Gate.Nor2 |].(int 6)
          [| a; a |]
      | 2 ->
        let a = pick () in
        gate Gate.Mux2 [| a; a; pick () |]
      | 3 -> gate Gate.Dffe [| pick (); (if int 2 = 0 then Builder.const0 else Builder.const1) |]
      | 4 when depth > 0 ->
        let sub = build (name ^ "s") (depth - 1) in
        let ys = Builder.fresh_vec b 2 in
        Builder.inst b sub [ ("x", [| pick (); pick (); pick () |]); ("y", ys) ];
        Array.iter add ys
      | _ ->
        let k = all_kinds.(int (Array.length all_kinds)) in
        gate k (Array.init (Gate.arity k) (fun _ -> pick ()))
    done;
    let k =
      if int 2 = 0 then [| Gate.Inv; Gate.And2; Gate.Mux2; Gate.Buf |].(int 4)
      else Gate.Dff
    in
    Builder.gate_into b k (Array.init (Gate.arity k) (fun _ -> pick ())) fb;
    Builder.output b "y" [| pick (); pick () |];
    Builder.finish b
  in
  build "r" (int 3)

let prop_passes_match_references =
  let cycles = ref 0 and kinds = Hashtbl.create 16 and insts = ref 0 in
  let gen st =
    let c = random_netlist st in
    if Circuit.has_combinational_cycle c then incr cycles;
    if c.Circuit.insts <> [] then incr insts;
    List.iter
      (fun g -> Hashtbl.replace kinds g.Circuit.kind ())
      (Circuit.flatten c).Circuit.gates;
    c
  in
  let print c = Printf.sprintf "%d gates" (List.length (Circuit.flatten c).Circuit.gates) in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x0917; 27 |])
    (QCheck.Test.make ~name:"simplify and arrival times match their references"
       ~count:300 (QCheck.make ~print gen) (fun c ->
         agree_with_references c
         || QCheck.Test.fail_reportf "differs from the reference on %s" (print c)))
  |> fun (name, speed, run) ->
  ( name
  , speed
  , fun () ->
      run ();
      (* the generator reached what the property is about *)
      check_bool "cyclic netlists drawn" true (!cycles > 10);
      check_bool "nested instances drawn" true (!insts > 10);
      check_int "every gate kind drawn" (Array.length all_kinds) (Hashtbl.length kinds) )

(* the unoptimized circuits of the builtin designs (each module of the
   modular [system]) and of examples/counter12.v *)
let compiled_designs () =
  let design src =
    match Sc_rtl.Parser.parse src with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse error: %s" e
  in
  let builtin name = Option.get (Sc_core.Designs.builtin name) in
  let system =
    match Sc_core.Chipdesc.split (builtin "system") with
    | Ok t -> List.map (fun m -> (m.Sc_core.Chipdesc.sm_name, design m.sm_text)) t.modules
    | Error d -> Alcotest.failf "system: %s" (Sc_pipeline.Diag.to_string d)
  in
  let counter12 =
    match Sc_verilog.Elaborate.design_of_source (Example_file.read "counter12.v") with
    | Ok d -> d
    | Error e -> Alcotest.failf "counter12.v: %s" e
  in
  List.map
    (fun (name, d) -> (name, Sc_synth.Synth.translate d))
    (List.map
       (fun n -> (n, design (builtin n)))
       [ "counter"; "traffic"; "alu4"; "gray"; "seqdet"; "pdp8"; "pdp8_dp" ]
    @ system
    @ [ ("counter12.v", counter12) ])

(* inv(a) met twice, with [a]'s own inverter between them in gate order:
   the second is the first's copy, not inv(inv x) *)
let inverter_order () =
  let b = Builder.create "order" in
  let x = (Builder.input b "x" 1).(0) in
  let a = (Builder.fresh_vec b 1).(0) in
  let first = Builder.not_ b a in
  Builder.gate_into b Gate.Inv [| x |] a;
  Builder.output b "y" [| first; Builder.not_ b a |];
  Builder.finish b

let test_designs_match_references () =
  List.iter
    (fun (name, c) -> check_bool name true (agree_with_references c))
    (("inverter order", inverter_order ()) :: compiled_designs ())

let test_pdp8_optimize_allocation () =
  let c = List.assoc "pdp8" (compiled_designs ()) in
  ignore (Optimize.simplify c);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Optimize.simplify c));
  let words = int_of_float (Gc.minor_words () -. before) in
  check_bool (Printf.sprintf "%d minor words <= 130000" words) true (words <= 130_000)

let test_inverters_simplify_fast () =
  let n = 16_000 in
  let b = Builder.create "invs" in
  let xs = Builder.input b "x" n in
  Builder.output b "y" (Array.map (Builder.not_ b) xs);
  let c = Builder.finish b in
  let t0 = Unix.gettimeofday () in
  let s = Optimize.simplify c in
  let dt = Unix.gettimeofday () -. t0 in
  check_int "all inverters kept" n (List.length s.Circuit.gates);
  check_bool (Printf.sprintf "%.3f s < 1 s" dt) true (dt < 1.0)

let suite =
  [ Alcotest.test_case "builder produces clean circuit" `Quick test_builder_check_clean
  ; Alcotest.test_case "hierarchy is clean" `Quick test_hierarchy_check_clean
  ; Alcotest.test_case "arity mismatch rejected" `Quick test_arity_rejected
  ; Alcotest.test_case "undriven nets detected" `Quick test_undriven_detected
  ; Alcotest.test_case "double drivers detected" `Quick test_double_driver_detected
  ; Alcotest.test_case "open instance port rejected" `Quick test_open_instance_port_rejected
  ; Alcotest.test_case "flatten expands instances" `Quick test_flatten_counts
  ; Alcotest.test_case "stats" `Quick test_stats
  ; Alcotest.test_case "combinational cycle detected" `Quick test_cycle_detection
  ; Alcotest.test_case "dff breaks cycle" `Quick test_dff_breaks_cycle
  ; Alcotest.test_case "critical path of inverter chain" `Quick test_critical_path_chain
  ; Alcotest.test_case "critical path through hierarchy" `Quick test_critical_path_through_hierarchy
  ; Alcotest.test_case "dff cuts timing path" `Quick test_dff_cuts_path
  ; Alcotest.test_case "timing raises on cycle" `Quick test_cycle_raises_in_timing
  ; Alcotest.test_case "arrival times raise on cycle" `Quick
      test_cycle_raises_in_arrival_times
  ; prop_gate_eval_matches_kind
  ; Alcotest.test_case "optimize folds constants" `Quick test_optimize_folds_constants
  ; Alcotest.test_case "optimize CSE" `Quick test_optimize_cse
  ; Alcotest.test_case "optimize keeps duplicate registers" `Quick
      test_optimize_no_sequential_cse
  ; Alcotest.test_case "optimize removes dead gates" `Quick test_optimize_removes_dead
  ; Alcotest.test_case "optimize double inverter" `Quick test_optimize_double_inverter
  ; prop_optimize_preserves_function
  ; prop_passes_match_references
  ; Alcotest.test_case "builtins and counter12.v match the references" `Quick
      test_designs_match_references
  ; Alcotest.test_case "pdp8's optimize allocates <= 130,000 minor words" `Quick
      test_pdp8_optimize_allocation
  ; Alcotest.test_case "16,000 independent inverters simplify in < 1 s" `Quick
      test_inverters_simplify_fast
  ]
