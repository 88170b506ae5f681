(* The formal equivalence checker: BDD engine laws, miter verdicts,
   counterexample replay, bounded sequential checks, and the
   compilation-stage certifications (optimizer, synthesis vs hand,
   minimizer, extracted artwork). *)

open Sc_netlist
open Sc_equiv

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expect_equivalent msg v =
  match v with
  | Checker.Equivalent -> ()
  | Checker.Not_equivalent _ ->
    Alcotest.failf "%s: expected equivalence, got %a" msg Checker.pp_verdict v

let expect_cex msg v =
  match v with
  | Checker.Not_equivalent cex -> cex
  | Checker.Equivalent -> Alcotest.failf "%s: expected a counterexample" msg

(* --- the BDD engine itself --- *)

let test_bdd_laws () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  (* canonicity: equal functions differ nowhere, so their xor is the
     zero terminal *)
  let equal f g = Bdd.is_false (Bdd.xor m f g) in
  check_bool "commutative and" true (equal (Bdd.and_ m a b) (Bdd.and_ m b a));
  check_bool "de morgan" true
    (equal
       (Bdd.not_ m (Bdd.and_ m a b))
       (Bdd.or_ m (Bdd.not_ m a) (Bdd.not_ m b)));
  check_bool "xor as or-and" true
    (equal (Bdd.xor m a b)
       (Bdd.and_ m (Bdd.or_ m a b) (Bdd.not_ m (Bdd.and_ m a b))));
  check_bool "ite(a,b,c) = ab + ~ac" true
    (equal (Bdd.ite m a b c)
       (Bdd.or_ m (Bdd.and_ m a b) (Bdd.and_ m (Bdd.not_ m a) c)));
  check_bool "double negation" true (equal a (Bdd.not_ m (Bdd.not_ m a)));
  check_bool "tautology" true
    (Bdd.is_false (Bdd.not_ m (Bdd.or_ m a (Bdd.not_ m a))));
  check_bool "contradiction" true (Bdd.is_false (Bdd.and_ m a (Bdd.not_ m a)))

let test_bdd_sat_eval () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let f = Bdd.and_ m a (Bdd.not_ m b) in
  let assignment = Bdd.sat_one m f in
  (* the assignment's cube implies f: cube and not f is unsatisfiable *)
  let cube =
    List.fold_left
      (fun acc (v, value) ->
        Bdd.and_ m acc (if value then Bdd.var m v else Bdd.not_ m (Bdd.var m v)))
      Bdd.one assignment
  in
  check_bool "sat_one satisfies" true
    (Bdd.is_false (Bdd.and_ m cube (Bdd.not_ m f)));
  check_bool "a=1 in assignment" true (List.assoc 0 assignment);
  check_bool "b=0 in assignment" false (List.assoc 1 assignment);
  Alcotest.check_raises "sat_one on zero"
    (Invalid_argument "Bdd.sat_one: unsatisfiable") (fun () ->
      ignore (Bdd.sat_one m Bdd.zero))

(* --- combinational equivalence --- *)

(* xor built two ways: one Xor2 gate vs the four-NAND network *)
let xor_direct () =
  let b = Builder.create "xa" in
  let x = (Builder.input b "x" 1).(0) in
  let y = (Builder.input b "y" 1).(0) in
  Builder.output b "z" [| Builder.xor2 b x y |];
  Builder.finish b

let xor_nands () =
  let b = Builder.create "xb" in
  let x = (Builder.input b "x" 1).(0) in
  let y = (Builder.input b "y" 1).(0) in
  let n1 = Builder.gate b Gate.Nand2 [| x; y |] in
  let n2 = Builder.gate b Gate.Nand2 [| x; n1 |] in
  let n3 = Builder.gate b Gate.Nand2 [| y; n1 |] in
  Builder.output b "z" [| Builder.gate b Gate.Nand2 [| n2; n3 |] |];
  Builder.finish b

let test_comb_equivalent () =
  expect_equivalent "xor nets" (Checker.check (xor_direct ()) (xor_nands ()))

let test_comb_counterexample_replays () =
  let direct = xor_direct () in
  let broken =
    (* or instead of xor: differs exactly on x=y=1 *)
    let b = Builder.create "xc" in
    let x = (Builder.input b "x" 1).(0) in
    let y = (Builder.input b "y" 1).(0) in
    Builder.output b "z" [| Builder.or2 b x y |];
    Builder.finish b
  in
  let cex = expect_cex "xor vs or" (Checker.check direct broken) in
  check_int "one frame" 1 (List.length cex.Checker.frames);
  Alcotest.(check string) "output" "z" cex.Checker.output;
  let frame = List.hd cex.Checker.frames in
  check_int "x=1" 1 (List.assoc "x" frame);
  check_int "y=1" 1 (List.assoc "y" frame);
  check_bool "replay confirms" true
    (Checker.replay direct broken cex = Checker.Reproduced)

(* replay is three-valued: a witness can be confirmed, definitely not
   reproduced, or indeterminate when the simulator sees X where the BDD
   model (which has no X) saw a definite bit *)
let test_replay_verdicts () =
  let fabricate frames = { Checker.frames; output = "z"; bit = 0; cycle = 0 } in
  check_bool "identical circuits never reproduce a witness" true
    (Checker.replay (xor_direct ()) (xor_direct ())
       (fabricate [ [ ("x", 1); ("y", 1) ] ])
    = Checker.Not_reproduced);
  (* an undriven input leaves the output X on both sides: the witness is
     neither confirmed nor refuted *)
  check_bool "undriven input is indeterminate" true
    (Checker.replay (xor_direct ()) (xor_nands ())
       (fabricate [ [ ("x", 1) ] ])
    = Checker.Indeterminate);
  (* a frame list shorter than the failing cycle cannot reach it *)
  check_bool "witness past the last frame is not reproduced" true
    (Checker.replay (xor_direct ()) (xor_nands ())
       { Checker.frames = [ [ ("x", 1); ("y", 1) ] ]; output = "z"; bit = 0
       ; cycle = 3
       }
    = Checker.Not_reproduced);
  Alcotest.(check string) "indeterminate renders its cause"
    "indeterminate (X state)"
    (Checker.replay_verdict_to_string Checker.Indeterminate)

let test_port_mismatch_raises () =
  let b = Builder.create "w" in
  let x = Builder.input b "x" 2 in
  Builder.output b "z" [| x.(0) |];
  let wide = Builder.finish b in
  check_bool "mismatch raised" true
    (try
       ignore (Checker.check (xor_direct ()) wide);
       false
     with Miter.Mismatch _ -> true)

(* hierarchy: the ripple adder built from full-adder instances vs the
   Builder's flat adder *)
let full_adder () =
  let b = Builder.create "fa" in
  let a = (Builder.input b "a" 1).(0) in
  let x = (Builder.input b "b" 1).(0) in
  let cin = (Builder.input b "cin" 1).(0) in
  let p = Builder.xor2 b a x in
  let s = Builder.xor2 b p cin in
  let g = Builder.and2 b a x in
  let pc = Builder.and2 b p cin in
  Builder.output b "s" [| s |];
  Builder.output b "cout" [| Builder.or2 b g pc |];
  Builder.finish b

let ripple_insts () =
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

let ripple_flat () =
  let b = Builder.create "flat4" in
  let xs = Builder.input b "x" 4 in
  let ys = Builder.input b "y" 4 in
  let sum, cout = Builder.adder b xs ys in
  Builder.output b "sum" sum;
  Builder.output b "cout" [| cout |];
  Builder.finish b

let test_hierarchy_equivalent () =
  expect_equivalent "ripple4 vs flat adder"
    (Checker.check (ripple_insts ()) (ripple_flat ()))

let test_ordering_heuristics_agree () =
  List.iter
    (fun order ->
      expect_equivalent "adder under both orders"
        (Checker.check ~order (ripple_insts ()) (ripple_flat ())))
    [ Miter.Declaration; Miter.Fanin_dfs ]

(* --- the synthesized PDP-8 datapath vs the hand shared sub-blocks --- *)

let synth_pdp8_dp () =
  (Sc_synth.Synth.gates (Sc_core.Designs.parse Sc_core.Designs.pdp8_dp_src))
    .Sc_synth.Synth.circuit

let test_pdp8_datapath_equivalent () =
  let man = Bdd.create () in
  expect_equivalent "pdp8 datapath"
    (Checker.check ~man (synth_pdp8_dp ()) (Sc_core.Designs.hand_pdp8_dp ()));
  check_bool "bdd stayed small" true (Bdd.node_count man < 2_000_000)

let test_pdp8_datapath_mutation_caught () =
  let synth = synth_pdp8_dp () in
  let hand = Sc_core.Designs.hand_pdp8_dp () in
  (* flip one gate somewhere in the middle of the hand datapath *)
  let nmut = List.length (Circuit.flatten hand).Circuit.gates in
  let mutated = Checker.mutate hand (nmut / 2) in
  let cex = expect_cex "mutated datapath" (Checker.check synth mutated) in
  check_bool "replay confirms mutation" true
    (Checker.replay synth mutated cex = Checker.Reproduced)

(* --- bounded sequential equivalence --- *)

let test_seq_counter_equivalent () =
  let d = Sc_core.Designs.parse Sc_core.Designs.counter_src in
  let synth = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
  expect_equivalent "counter synth vs hand"
    (Checker.check ~k:8 synth (Sc_core.Designs.hand_counter ()))

let test_seq_traffic_equivalent () =
  let d = Sc_core.Designs.parse Sc_core.Designs.traffic_src in
  let synth = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
  expect_equivalent "traffic synth vs hand"
    (Checker.check ~k:8 synth (Sc_core.Designs.hand_traffic ()))

let test_seq_alu_equivalent () =
  let d = Sc_core.Designs.parse Sc_core.Designs.alu_src in
  let synth = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
  expect_equivalent "alu synth vs hand"
    (Checker.check ~k:6 synth (Sc_core.Designs.hand_alu ()))

let test_seq_mutation_caught_and_replays () =
  let hand = Sc_core.Designs.hand_counter () in
  let d = Sc_core.Designs.parse Sc_core.Designs.counter_src in
  let synth = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
  let nmut = List.length (Circuit.flatten hand).Circuit.gates in
  let rec try_mutation i =
    if i >= nmut then Alcotest.fail "no combinational gate to mutate"
    else
      match Checker.mutate hand i with
      | mutated -> (
        match Checker.check ~k:6 synth mutated with
        | Checker.Equivalent ->
          (* a mutation can be masked (e.g. in a dead cone); try the next *)
          try_mutation (i + 1)
        | Checker.Not_equivalent cex ->
          check_int "frames stop at the failing cycle"
            (cex.Checker.cycle + 1)
            (List.length cex.Checker.frames);
          check_bool "sequential replay confirms" true
            (Checker.replay synth mutated cex = Checker.Reproduced))
      | exception Invalid_argument _ -> try_mutation (i + 1)
  in
  try_mutation 0

(* --- the optimizer preserves function (certified, not just simulated) --- *)

let test_optimize_roundtrips () =
  List.iter
    (fun (name, src, _, _, _) ->
      if name <> "pdp8" then begin
        let d = Sc_core.Designs.parse src in
        let raw =
          (Sc_synth.Synth.gates ~optimize:false d).Sc_synth.Synth.circuit
        in
        expect_equivalent
          (name ^ " raw vs optimized")
          (Checker.check ~k:6 raw (Optimize.simplify raw))
      end)
    (Sc_core.Designs.all ())

let test_optimize_roundtrip_pdp8_datapath () =
  let raw =
    (Sc_synth.Synth.gates ~optimize:false
       (Sc_core.Designs.parse Sc_core.Designs.pdp8_dp_src))
      .Sc_synth.Synth.circuit
  in
  expect_equivalent "pdp8_dp raw vs optimized"
    (Checker.check raw (Optimize.simplify raw))

(* --- unrolling semantics --- *)

let test_unroll_matches_simulation () =
  let c = Sc_core.Designs.hand_counter () in
  let k = 5 in
  let unrolled = Unroll.frames ~k c in
  check_int "no flip-flops left" 0 (Circuit.stats unrolled).Circuit.flipflops;
  (* drive the sequential engine from the all-zero state and the
     unrolled circuit with the same per-frame stimulus *)
  let eng = Sc_sim.Engine.create c in
  Sc_sim.Engine.force_registers eng Sc_sim.Value.V0;
  let ueng = Sc_sim.Engine.create unrolled in
  let stim cyc =
    [ ("reset", if cyc = 3 then 1 else 0)
    ; ("load", if cyc = 1 then 1 else 0)
    ; ("data", 9)
    ]
  in
  for cyc = 0 to k - 1 do
    List.iter
      (fun (p, v) ->
        Sc_sim.Engine.set_input_int ueng (Printf.sprintf "%s@%d" p cyc) v)
      (stim cyc)
  done;
  for cyc = 0 to k - 1 do
    List.iter (fun (p, v) -> Sc_sim.Engine.set_input_int eng p v) (stim cyc);
    check_int
      (Printf.sprintf "q at cycle %d" cyc)
      (Option.get (Sc_sim.Engine.get_output_int eng "q"))
      (Option.get
         (Sc_sim.Engine.get_output_int ueng (Printf.sprintf "q@%d" cyc)));
    Sc_sim.Engine.step eng
  done

(* --- two-level minimization certified by BDDs --- *)

let test_check_covers_negative () =
  let a = Sc_logic.Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("1-", "1") ] in
  let b = Sc_logic.Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("11", "1") ] in
  match Checker.check_covers a b with
  | None -> Alcotest.fail "expected a distinguishing minterm"
  | Some (input, o) ->
    check_int "output 0" 0 o;
    (* the minterm must really distinguish the covers *)
    check_bool "distinguishes" true
      ((Sc_logic.Cover.eval a input).(0) <> (Sc_logic.Cover.eval b input).(0))

let random_cover rng ~ninputs ~noutputs ~terms =
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

let prop_minimize_equivalent_by_bdd =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 6) (int_range 1 4) (int_range 1 12))
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5EED; 9 |])
    (QCheck.Test.make ~count:60
       ~name:"Minimize output certified equivalent by the BDD engine"
       (QCheck.make gen) (fun (ninputs, noutputs, terms) ->
         let rng = Random.State.make [| ninputs; noutputs; terms; 77 |] in
         let cover = random_cover rng ~ninputs ~noutputs ~terms in
         let exact = Sc_logic.Minimize.minimize ~exact:true cover in
         let heur = Sc_logic.Minimize.heuristic cover in
         Checker.check_covers cover exact = None
         && Checker.check_covers cover heur = None))

(* --- extracted artwork vs source netlist --- *)

let gate_reference name kind input_names =
  let b = Builder.create name in
  let ins =
    List.map (fun n -> (Builder.input b n 1).(0)) input_names
  in
  Builder.output b "y" [| Builder.gate b kind (Array.of_list ins) |];
  Builder.finish b

let test_artwork_primitives_equivalent () =
  let cases =
    [ ("inv", Sc_stdcell.Nmos.inv (), Gate.Inv, [ "a" ])
    ; ("nand2", Sc_stdcell.Nmos.nand 2, Gate.Nand2, [ "a"; "b" ])
    ; ("nand3", Sc_stdcell.Nmos.nand 3, Gate.Nand3, [ "a"; "b"; "c" ])
    ; ("nor2", Sc_stdcell.Nmos.nor2 (), Gate.Nor2, [ "a"; "b" ])
    ]
  in
  List.iter
    (fun (name, cell, kind, ins) ->
      expect_equivalent
        ("artwork " ^ name)
        (Checker.check_artwork cell ~inputs:ins ~outputs:[ "y" ]
           (gate_reference name kind ins)))
    cases

let test_artwork_wrong_spec_caught () =
  let cex =
    expect_cex "inv artwork vs buf netlist"
      (Checker.check_artwork (Sc_stdcell.Nmos.inv ()) ~inputs:[ "a" ]
         ~outputs:[ "y" ]
         (gate_reference "buf" Gate.Buf [ "a" ]))
  in
  Alcotest.(check string) "output named" "y" cex.Checker.output

(* the certificate and [check] agree: an equivalent pair certifies
   every output port (one cone each), and a difference is refused at the
   port and bit [check] reports first *)
let test_certify_agrees_with_check () =
  let b = Builder.create "blk" in
  let xs = Builder.input b "x" 4 and ys = Builder.input b "y" 4 in
  let sums, cout = Builder.adder b xs ys in
  Builder.output b "sum" sums;
  Builder.output b "co" [| cout |];
  let c = Builder.finish b in
  (match Checker.certify c (Optimize.simplify c) with
  | Ok cert -> check_int "one cone per output port" 2 cert.Checker.cert_cones
  | Error _ -> Alcotest.fail "adder refused");
  let bad = Checker.mutate (Circuit.flatten c) 0 in
  (match (Checker.certify c bad, Checker.check c bad) with
  | Error cex, Checker.Not_equivalent cex' ->
    Alcotest.(check string) "same differing port" cex'.Checker.output cex.Checker.output;
    check_int "same differing bit" cex'.Checker.bit cex.Checker.bit
  | _ -> Alcotest.fail "mutation missed");
  (* the 48-input pdp8 datapath: synthesized from ISP vs the hand
     design, every output in one BDD manager *)
  let dp = Sc_core.Designs.parse Sc_core.Designs.pdp8_dp_src in
  let synth_dp = (Sc_synth.Synth.gates dp).Sc_synth.Synth.circuit in
  match Checker.certify synth_dp (Sc_core.Designs.hand_pdp8_dp ()) with
  | Ok _ -> ()
  | Error cex ->
    Alcotest.failf "pdp8_dp refused: %a" Checker.pp_verdict
      (Checker.Not_equivalent cex)

(* A random sequential circuit on [st]: inputs x[2] and s[1], three
   registers (Dff or Dffe) whose next state is drawn like any other
   gate, random gates over earlier nets (so no combinational cycle),
   and outputs y[2] and z[1] over the whole pool. *)
let random_sequential st =
  let int n = Random.State.int st n in
  let b = Builder.create "rseq" in
  let xs = Builder.input b "x" 2 and s = Builder.input b "s" 1 in
  let regs = Builder.fresh_vec b 3 in
  let pool =
    ref (Builder.const1 :: s.(0) :: Array.to_list xs @ Array.to_list regs)
  in
  let pick () = List.nth !pool (int (List.length !pool)) in
  let comb =
    [| Gate.Inv; Gate.Nand2; Gate.Nor2; Gate.Nand3; Gate.Xor2; Gate.Mux2
     ; Gate.And2; Gate.Or2; Gate.Xnor2
    |]
  in
  for _ = 1 to 6 + int 14 do
    let k = comb.(int (Array.length comb)) in
    pool := Builder.gate b k (Array.init (Gate.arity k) (fun _ -> pick ())) :: !pool
  done;
  Array.iter
    (fun r ->
      if int 2 = 0 then Builder.gate_into b Gate.Dff [| pick () |] r
      else Builder.gate_into b Gate.Dffe [| pick (); pick () |] r)
    regs;
  Builder.output b "y" [| pick (); pick () |];
  Builder.output b "z" [| pick () |];
  Builder.finish b

(* certify is check's proof: the same verdict on random sequential
   circuits against random single-gate faults, and on a refusal the same
   counterexample *)
let prop_certify_is_check =
  let refused = ref 0 and certified = ref 0 in
  let gen st =
    let c = random_sequential st in
    let gates = Array.of_list (Circuit.flatten c).Circuit.gates in
    let faultable =
      List.filter
        (fun i ->
          match gates.(i).Circuit.kind with
          | Gate.Dff | Gate.Dffe | Gate.Const0 | Gate.Const1 -> false
          | _ -> true)
        (List.init (Array.length gates) Fun.id)
    in
    let i = List.nth faultable (Random.State.int st (List.length faultable)) in
    (c, Checker.mutate c i, 1 + Random.State.int st 4)
  in
  let print (_, _, k) = Printf.sprintf "k = %d" k in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xCE47; 34 |])
    (QCheck.Test.make ~name:"certify gives check's verdict and counterexample"
       ~count:150 (QCheck.make ~print gen) (fun (c, m, k) ->
         match (Checker.certify ~k c m, Checker.check ~k c m) with
         | Ok cert, Checker.Equivalent ->
           incr certified;
           cert.Checker.cert_cones = 2 * k
         | Error cex, Checker.Not_equivalent cex' ->
           incr refused;
           cex = cex'
         | _ -> false))
  |> fun (name, speed, run) ->
  ( name
  , speed
  , fun () ->
      run ();
      (* the faults drew both verdicts *)
      check_bool "masked faults drawn" true (!certified > 10);
      check_bool "refused faults drawn" true (!refused > 10) )

(* An output register loaded with a 12-bit sum: the sum of the last
   unrolled frame feeds no output, and its operands, which no output
   reaches, keep their declaration order (all of a, then all of b),
   under which an adder's BDD is exponential.  Evaluating only the
   outputs' fan-in leaves it out of the manager. *)
let test_dead_next_state_costs_nothing () =
  let b = Builder.create "dead_next" in
  let xs = Builder.input b "a" 12 and ys = Builder.input b "b" 12 in
  let regs = Builder.fresh_vec b 12 in
  let sums, _ = Builder.adder b xs ys in
  Array.iteri (fun i r -> Builder.gate_into b Gate.Dff [| sums.(i) |] r) regs;
  Builder.output b "q" regs;
  let c = Builder.finish b in
  match Checker.certify ~k:2 c (Optimize.simplify c) with
  | Ok cert ->
    check_int "both frames' outputs" 2 cert.Checker.cert_cones;
    check_bool
      (Printf.sprintf "small certificate (%d nodes)" cert.Checker.cert_nodes)
      true
      (cert.Checker.cert_nodes < 2_000)
  | Error _ -> Alcotest.fail "register of a sum refused"

let suite =
  [ Alcotest.test_case "bdd laws" `Quick test_bdd_laws
  ; Alcotest.test_case "bdd sat/eval" `Quick test_bdd_sat_eval
  ; Alcotest.test_case "comb equivalent" `Quick test_comb_equivalent
  ; Alcotest.test_case "comb counterexample replays" `Quick
      test_comb_counterexample_replays
  ; Alcotest.test_case "replay verdicts" `Quick test_replay_verdicts
  ; Alcotest.test_case "port mismatch raises" `Quick test_port_mismatch_raises
  ; Alcotest.test_case "hierarchy equivalent" `Quick test_hierarchy_equivalent
  ; Alcotest.test_case "ordering heuristics agree" `Quick
      test_ordering_heuristics_agree
  ; Alcotest.test_case "pdp8 datapath equivalent" `Quick
      test_pdp8_datapath_equivalent
  ; Alcotest.test_case "pdp8 datapath mutation caught" `Quick
      test_pdp8_datapath_mutation_caught
  ; Alcotest.test_case "seq counter equivalent" `Quick
      test_seq_counter_equivalent
  ; Alcotest.test_case "seq traffic equivalent" `Quick
      test_seq_traffic_equivalent
  ; Alcotest.test_case "seq alu equivalent" `Quick test_seq_alu_equivalent
  ; Alcotest.test_case "seq mutation caught and replays" `Quick
      test_seq_mutation_caught_and_replays
  ; Alcotest.test_case "optimize round-trips certified" `Quick
      test_optimize_roundtrips
  ; Alcotest.test_case "optimize round-trip pdp8 datapath" `Quick
      test_optimize_roundtrip_pdp8_datapath
  ; Alcotest.test_case "unroll matches simulation" `Quick
      test_unroll_matches_simulation
  ; Alcotest.test_case "check_covers negative" `Quick test_check_covers_negative
  ; prop_minimize_equivalent_by_bdd
  ; Alcotest.test_case "artwork primitives equivalent" `Quick
      test_artwork_primitives_equivalent
  ; Alcotest.test_case "artwork wrong spec caught" `Quick
      test_artwork_wrong_spec_caught
  ; Alcotest.test_case "certify agrees with check" `Quick
      test_certify_agrees_with_check
  ; prop_certify_is_check
  ; Alcotest.test_case "dead next-state logic costs no nodes" `Quick
      test_dead_next_state_costs_nothing
  ]
