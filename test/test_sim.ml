open Sc_netlist
open Sc_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let adder4 () =
  let b = Builder.create "adder4" in
  let xs = Builder.input b "x" 4 in
  let ys = Builder.input b "y" 4 in
  let sums, cout = Builder.adder b xs ys in
  Builder.output b "sum" sums;
  Builder.output b "cout" [| cout |];
  Builder.finish b

let counter4 () =
  (* 4-bit counter with synchronous reset *)
  let b = Builder.create "counter4" in
  let reset = (Builder.input b "reset" 1).(0) in
  let q = Builder.fresh_vec b 4 in
  let one = Array.init 4 (fun i -> if i = 0 then Builder.const1 else Builder.const0) in
  let next, _ = Builder.adder b q one in
  let gated = Array.map (fun n -> Builder.and2 b n (Builder.not_ b reset)) next in
  Array.iteri (fun i d -> Builder.gate_into b Gate.Dff [| d |] q.(i)) gated;
  Builder.output b "q" q;
  Builder.finish b

let test_adder_exhaustive () =
  let t = Engine.create (adder4 ()) in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Engine.set_input_int t "x" x;
      Engine.set_input_int t "y" y;
      (match Engine.get_output_int t "sum" with
      | Some s -> check_int (Printf.sprintf "%d+%d" x y) ((x + y) land 15) s
      | None -> Alcotest.fail "X on sum");
      match Engine.get_output_int t "cout" with
      | Some c -> check_int "carry" ((x + y) lsr 4) c
      | None -> Alcotest.fail "X on cout"
    done
  done

let test_counter_counts () =
  let t = Engine.create (counter4 ()) in
  Engine.set_input_int t "reset" 1;
  Engine.step t;
  check_int "reset to zero" 0 (Option.get (Engine.get_output_int t "q"));
  Engine.set_input_int t "reset" 0;
  for expected = 1 to 20 do
    Engine.step t;
    check_int "count" (expected land 15)
      (Option.get (Engine.get_output_int t "q"))
  done

let test_uninitialized_ff_is_x () =
  let t = Engine.create (counter4 ()) in
  (* before any reset the counter state is unknown *)
  Engine.set_input_int t "reset" 0;
  check_bool "q is X" true (Engine.get_output_int t "q" = None)

let test_x_blocked_by_controlling_zero () =
  let b = Builder.create "ctrl" in
  let a = (Builder.input b "a" 1).(0) in
  let q = Builder.gate b Gate.Dff [| Builder.not_ b a |] in
  (* q is X before any clock; AND with 0 must still read 0 *)
  let y = Builder.and2 b q Builder.const0 in
  let z = Builder.or2 b q Builder.const1 in
  Builder.output b "y" [| y |];
  Builder.output b "z" [| z |];
  let t = Engine.create (Builder.finish b) in
  Engine.set_input_int t "a" 0;
  check_int "0 and X" 0 (Option.get (Engine.get_output_int t "y"));
  check_int "1 or X" 1 (Option.get (Engine.get_output_int t "z"))

let test_mux_x_select_agreement () =
  let b = Builder.create "muxx" in
  let d = (Builder.input b "d" 1).(0) in
  let sel_x = Builder.gate b Gate.Dff [| d |] in
  (* mux with equal data resolves despite X select *)
  let y = Builder.mux2 b ~sel:sel_x d d in
  Builder.output b "y" [| y |];
  let t = Engine.create (Builder.finish b) in
  Engine.set_input_int t "d" 1;
  check_int "agreeing mux" 1 (Option.get (Engine.get_output_int t "y"))

let test_dffe_holds () =
  let b = Builder.create "hold" in
  let d = (Builder.input b "d" 1).(0) in
  let en = (Builder.input b "en" 1).(0) in
  let q = Builder.gate b Gate.Dffe [| d; en |] in
  Builder.output b "q" [| q |];
  let t = Engine.create (Builder.finish b) in
  Engine.set_input_int t "d" 1;
  Engine.set_input_int t "en" 1;
  Engine.step t;
  check_int "loaded" 1 (Option.get (Engine.get_output_int t "q"));
  Engine.set_input_int t "d" 0;
  Engine.set_input_int t "en" 0;
  Engine.step t;
  check_int "held" 1 (Option.get (Engine.get_output_int t "q"));
  Engine.set_input_int t "en" 1;
  Engine.step t;
  check_int "loaded new" 0 (Option.get (Engine.get_output_int t "q"))

let test_rejects_cyclic () =
  let b = Builder.create "cyc" in
  let n1 = (Builder.fresh_vec b 1).(0) in
  let n2 = (Builder.fresh_vec b 1).(0) in
  Builder.gate_into b Gate.Inv [| n2 |] n1;
  Builder.gate_into b Gate.Inv [| n1 |] n2;
  Builder.output b "y" [| n2 |];
  let c = Builder.finish b in
  check_bool "rejected" true
    (try
       ignore (Engine.create c);
       false
     with Invalid_argument _ -> true)

(* property: simulated ripple adder equals machine addition on random pairs
   of widths up to 8 *)
let prop_adder_random =
  let gen = QCheck.Gen.(triple (int_range 1 8) (int_range 0 255) (int_range 0 255)) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random-width adders add" ~count:60
       (QCheck.make gen) (fun (w, x, y) ->
         let x = x land ((1 lsl w) - 1) and y = y land ((1 lsl w) - 1) in
         let b = Builder.create "a" in
         let xs = Builder.input b "x" w in
         let ys = Builder.input b "y" w in
         let sums, cout = Builder.adder b xs ys in
         Builder.output b "sum" sums;
         Builder.output b "cout" [| cout |];
         let t = Engine.create (Builder.finish b) in
         Engine.set_input_int t "x" x;
         Engine.set_input_int t "y" y;
         Engine.get_output_int t "sum" = Some ((x + y) land ((1 lsl w) - 1))
         && Engine.get_output_int t "cout" = Some ((x + y) lsr w)))

let suite =
  [ Alcotest.test_case "adder exhaustive" `Quick test_adder_exhaustive
  ; Alcotest.test_case "counter counts" `Quick test_counter_counts
  ; Alcotest.test_case "uninitialized ff reads X" `Quick test_uninitialized_ff_is_x
  ; Alcotest.test_case "controlling values beat X" `Quick test_x_blocked_by_controlling_zero
  ; Alcotest.test_case "mux X select agreement" `Quick test_mux_x_select_agreement
  ; Alcotest.test_case "dffe holds" `Quick test_dffe_holds
  ; Alcotest.test_case "cyclic circuit rejected" `Quick test_rejects_cyclic
  ; prop_adder_random
  ]
