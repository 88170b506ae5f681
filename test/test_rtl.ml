open Sc_rtl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter_src =
  {|
-- 4-bit counter with synchronous reset and load
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

let parse_ok src =
  match Parser.parse src with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_counter () =
  let d = parse_ok counter_src in
  check_int "inputs" 3 (List.length d.Ast.inputs);
  check_int "outputs" 1 (List.length d.Ast.outputs);
  check_int "registers" 1 (List.length d.Ast.regs);
  Alcotest.(check (list string)) "checks clean" [] (Check.check d)

(* [text] as the right-hand side of the only statement of a design *)
let parse_rhs text =
  let d =
    parse_ok
      (Printf.sprintf
         "module e; inputs a[4], b[4], c[4]; outputs y[8]; behavior y := %s; end"
         text)
  in
  match d.Ast.body with
  | [ Ast.Assign ("y", e) ] -> e
  | _ -> Alcotest.failf "not one assignment: %s" (Format.asprintf "%a" Ast.pp d)

let test_parse_expr_precedence () =
  match parse_rhs "a + b & c" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "wrong tree: & should bind looser than +"

let test_parse_literals () =
  check_bool "hex literal" true (parse_rhs "0x1f" = Ast.Const 31);
  check_bool "binary literal" true (parse_rhs "0b1010" = Ast.Const 10)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    [ "module x behavior end" (* missing ; *)
    ; "module x; behavior y = 1; end" (* = instead of := *)
    ; "module x; behavior if a then end" (* missing end for module *)
    ]

let test_check_catches () =
  let reject src expect_substring =
    let d = parse_ok src in
    let errs = Check.check d in
    check_bool
      (Printf.sprintf "%s reported" expect_substring)
      true
      (List.exists
         (fun e ->
           let rec contains i =
             i + String.length expect_substring <= String.length e
             && (String.sub e i (String.length expect_substring)
                 = expect_substring
                || contains (i + 1))
           in
           contains 0)
         errs)
  in
  reject "module x; inputs a[1]; outputs y[1]; behavior y := b; end"
    "undeclared";
  reject "module x; inputs a[1]; outputs y[1]; behavior a := 1; y := 0; end"
    "input";
  reject "module x; inputs a[1]; outputs y[1]; behavior if a == 1 then y := 1; end end"
    "every path";
  reject "module x; inputs a[4]; outputs y[1]; behavior y := a[7]; end"
    "out of range";
  reject "module x; inputs a[4], s[2]; outputs y[4]; behavior y := a << s; end"
    "constant";
  reject "module x; outputs y[1]; behavior y := y; end" "write-only"

let test_interp_counter () =
  let t = Interp.create (parse_ok counter_src) in
  Interp.set_input t "reset" 1;
  Interp.step t;
  check_int "reset" 0 (Interp.reg t "count");
  Interp.set_input t "reset" 0;
  for i = 1 to 20 do
    Interp.step t;
    check_int "count" (i land 15) (Interp.reg t "count");
    (* outputs read registers non-blocking: q lags count by one cycle *)
    check_int "q lags" ((i - 1) land 15) (Interp.output t "q")
  done;
  Interp.set_input t "load" 1;
  Interp.set_input t "data" 9;
  Interp.step t;
  check_int "loaded" 9 (Interp.reg t "count");
  Interp.set_input t "load" 0;
  Interp.step t;
  check_int "counts from load" 10 (Interp.reg t "count");
  check_int "q shows load" 9 (Interp.output t "q")

let test_interp_nonblocking_registers () =
  (* swap: both registers read pre-cycle values *)
  let src =
    {|
module swap;
inputs seed[1];
outputs x[4], y[4];
registers a[4], b[4];
behavior
  if seed == 1 then a := 1; b := 2;
  else a := b; b := a;
  end
  x := a; y := b;
end
|}
  in
  let t = Interp.create (parse_ok src) in
  Interp.set_input t "seed" 1;
  Interp.step t;
  Interp.set_input t "seed" 0;
  Interp.step t;
  check_int "a got old b" 2 (Interp.reg t "a");
  check_int "b got old a" 1 (Interp.reg t "b");
  Interp.step t;
  check_int "swapped back" 1 (Interp.reg t "a")

let test_interp_output_chaining () =
  (* outputs update combinationally within the cycle; later statements
     override earlier ones *)
  let src =
    {|
module chain;
inputs a[2];
outputs y[2];
behavior
  y := a;
  if a == 3 then y := 0; end
end
|}
  in
  let t = Interp.create (parse_ok src) in
  Interp.set_input t "a" 2;
  Interp.step t;
  check_int "passes" 2 (Interp.output t "y");
  Interp.set_input t "a" 3;
  Interp.step t;
  check_int "overridden" 0 (Interp.output t "y")

let test_interp_decode () =
  let src =
    {|
module dec;
inputs s[2];
outputs y[4];
behavior
  decode s
    0: y := 1;
    1: y := 2;
    2: y := 4;
    default: y := 8;
  end
end
|}
  in
  let t = Interp.create (parse_ok src) in
  List.iter
    (fun (s, expected) ->
      Interp.set_input t "s" s;
      Interp.step t;
      check_int (Printf.sprintf "case %d" s) expected (Interp.output t "y"))
    [ (0, 1); (1, 2); (2, 4); (3, 8) ]

let test_interp_operators () =
  let src =
    {|
module ops;
inputs a[4], b[4];
outputs sum[4], diff[4], lt[1], gt[1], eq[1], sh[4], inv[4];
behavior
  sum := a + b;
  diff := a - b;
  lt := a < b;
  gt := a > b;
  eq := a == b;
  sh := a << 1;
  inv := ~a;
end
|}
  in
  let t = Interp.create (parse_ok src) in
  for a = 0 to 15 do
    for b = 0 to 15 do
      Interp.set_input t "a" a;
      Interp.set_input t "b" b;
      Interp.step t;
      check_int "sum" ((a + b) land 15) (Interp.output t "sum");
      check_int "diff" ((a - b) land 15) (Interp.output t "diff");
      check_int "lt" (if a < b then 1 else 0) (Interp.output t "lt");
      check_int "gt" (if a > b then 1 else 0) (Interp.output t "gt");
      check_int "eq" (if a = b then 1 else 0) (Interp.output t "eq");
      check_int "sh" ((a lsl 1) land 15) (Interp.output t "sh");
      check_int "inv" (lnot a land 15) (Interp.output t "inv")
    done
  done

let test_pp_roundtrip () =
  let d = parse_ok counter_src in
  let printed = Format.asprintf "%a" Ast.pp d in
  let d2 = parse_ok printed in
  check_bool "reparse equal" true (d = d2)


(* --- wires: combinational temporaries --- *)

let wires_src =
  {|
module shared;
inputs sel[1], a[4], b[4];
outputs y[4], carrylike[4];
wires operand[4], sum[4];
behavior
  if sel == 1 then operand := b; else operand := a; end
  sum := a + operand;
  y := sum;
  carrylike := sum & operand;
end
|}

let test_wires_blocking_reads () =
  let t = Interp.create (parse_ok wires_src) in
  Interp.set_input t "a" 3;
  Interp.set_input t "b" 5;
  Interp.set_input t "sel" 1;
  Interp.step t;
  check_int "sum through wire" 8 (Interp.output t "y");
  check_int "wire reused" (8 land 5) (Interp.output t "carrylike");
  Interp.set_input t "sel" 0;
  Interp.step t;
  check_int "other operand" 6 (Interp.output t "y")

let test_wires_carry_no_state () =
  (* a wire assigned under one condition and re-assigned unconditionally
     the next cycle never leaks the previous cycle's value *)
  let src =
    {|
module w;
inputs x[2];
outputs y[2];
wires t[2];
behavior
  t := x;
  y := t;
end
|}
  in
  let t = Interp.create (parse_ok src) in
  Interp.set_input t "x" 3;
  Interp.step t;
  check_int "first" 3 (Interp.output t "y");
  Interp.set_input t "x" 0;
  Interp.step t;
  check_int "no stale value" 0 (Interp.output t "y")

let test_wire_read_before_assign_rejected () =
  let d =
    parse_ok
      "module w; inputs a[1]; outputs y[1]; wires t[1]; behavior y := t; t := a; end"
  in
  check_bool "rejected" true
    (List.exists
       (fun e ->
         let pat = "read before assignment" in
         let n = String.length e and m = String.length pat in
         let rec go i = i + m <= n && (String.sub e i m = pat || go (i + 1)) in
         go 0)
       (Check.check d))

let test_wire_conditional_read_rejected () =
  (* assigned only in one branch, read after the join: rejected *)
  let d =
    parse_ok
      {|
module w;
inputs a[1];
outputs y[1];
wires t[1];
behavior
  if a == 1 then t := 1; end
  y := t;
end
|}
  in
  check_bool "rejected" true (Check.check d <> [])

let test_wire_branch_covered_read_ok () =
  let d =
    parse_ok
      {|
module w;
inputs a[1];
outputs y[1];
wires t[1];
behavior
  if a == 1 then t := 1; else t := 0; end
  y := t;
end
|}
  in
  Alcotest.(check (list string)) "accepted" [] (Check.check d)

let suite =
  [ Alcotest.test_case "parse counter" `Quick test_parse_counter
  ; Alcotest.test_case "expression precedence" `Quick test_parse_expr_precedence
  ; Alcotest.test_case "literals" `Quick test_parse_literals
  ; Alcotest.test_case "parse errors" `Quick test_parse_errors
  ; Alcotest.test_case "checker catches misuse" `Quick test_check_catches
  ; Alcotest.test_case "interp counter" `Quick test_interp_counter
  ; Alcotest.test_case "non-blocking registers" `Quick test_interp_nonblocking_registers
  ; Alcotest.test_case "output chaining" `Quick test_interp_output_chaining
  ; Alcotest.test_case "decode" `Quick test_interp_decode
  ; Alcotest.test_case "operators exhaustive" `Quick test_interp_operators
  ; Alcotest.test_case "pretty-print roundtrip" `Quick test_pp_roundtrip
  ; Alcotest.test_case "wires: blocking reads" `Quick test_wires_blocking_reads
  ; Alcotest.test_case "wires: no state" `Quick test_wires_carry_no_state
  ; Alcotest.test_case "wires: read-before-assign rejected" `Quick test_wire_read_before_assign_rejected
  ; Alcotest.test_case "wires: conditional read rejected" `Quick test_wire_conditional_read_rejected
  ; Alcotest.test_case "wires: covered read accepted" `Quick test_wire_branch_covered_read_ok
  ]
