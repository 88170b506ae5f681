(* lib/verilog: the Verilog frontend — lexer positions, the
   recursive-descent parser (including every rejected construct from
   docs/VERILOG.md), elaboration into the sc_rtl IR, value-exactness of
   the width coercions, and the counter12 reference design end to end:
   interpreter behaviour, formal equivalence against a hand-written ISP
   twin, and warm/cold QoR byte-identity through the shared pipeline. *)

open Sc_verilog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* the committed reference design (a dune dep of this test); [dune
   runtest] runs in the build's test directory, [dune exec] from the
   project root *)
let counter12_src =
  let path =
    if Sys.file_exists "../examples/counter12.v" then
      "../examples/counter12.v"
    else "examples/counter12.v"
  in
  In_channel.with_open_text path In_channel.input_all

(* the same machine, written directly in ISP: the formal twin *)
let counter12_isp =
  {|
-- 12-bit loadable up-counter, hand-written twin of examples/counter12.v
module counter12;
inputs rst[1], en[1], load[1], d[12];
outputs q[12], tc[1];
registers count[12];
behavior
  q := count;
  tc := count == 4095;
  if rst == 1 then count := 0;
  else
    if load == 1 then count := d;
    else
      if en == 1 then count := count + 1;
      end
    end
  end
end
|}

let parse_ok src =
  match Parse.parse src with
  | Ok m -> m
  | Error e -> Alcotest.failf "parse error: %s" e

let elab_ok src =
  match Elaborate.design_of_source src with
  | Ok d -> d
  | Error e -> Alcotest.failf "elaboration error: %s" e

(* --- lexer --- *)

let test_lexer_positions () =
  match Lexer.tokenize "wire a;\n  assign b = 2'd3;" with
  | Error e -> Alcotest.fail e
  | Ok toks ->
    let nth n = List.nth toks n in
    (match (nth 0).Lexer.tok with
    | Lexer.Id "wire" -> ()
    | t -> Alcotest.failf "token 0: %s" (Lexer.token_to_string t));
    check_int "line of 'assign'" 2 (nth 3).Lexer.pos.Lexer.line;
    check_int "col of 'assign'" 3 (nth 3).Lexer.pos.Lexer.col;
    (match (nth 6).Lexer.tok with
    | Lexer.Number { value = 3; width = Some 2 } -> ()
    | t -> Alcotest.failf "sized literal: %s" (Lexer.token_to_string t));
    match List.rev toks with
    | { Lexer.tok = Lexer.Eof; _ } :: _ -> ()
    | _ -> Alcotest.fail "stream must end with Eof"

let test_lexer_literals () =
  let value s =
    match Lexer.tokenize s with
    | Ok ({ Lexer.tok = Lexer.Number { value; _ }; _ } :: _) -> value
    | Ok _ | Error _ -> Alcotest.failf "expected a number for %S" s
  in
  check_int "12'hfff" 4095 (value "12'hfff");
  check_int "4'b10_10" 10 (value "4'b10_10");
  check_int "8'o17" 15 (value "8'o17");
  check_int "unsized 42" 42 (value "42");
  List.iter
    (fun s ->
      match Lexer.tokenize s with
      | Error e ->
        check_bool (s ^ " error is positioned") true
          (String.contains e ':')
      | Ok _ -> Alcotest.failf "lexer must reject %S" s)
    [ "2'd9" (* value does not fit *)
    ; "31'd0" (* width out of range *)
    ; "0'd0"
    ; "4'q3" (* bad base *)
    ; "/* unterminated"
    ; "\"strings are not in the subset\""
    ]

(* --- parser: accepted shapes --- *)

let test_parse_counter12 () =
  let m = parse_ok counter12_src in
  check_string "module name" "counter12" m.Ast.mname;
  Alcotest.(check (list string))
    "port order" [ "clk"; "rst"; "en"; "load"; "d"; "q"; "tc" ] m.Ast.ports;
  let decls =
    List.filter_map (function Ast.Decl d -> Some d | _ -> None) m.Ast.items
  in
  check_int "seven declarations" 7 (List.length decls);
  check_int "one assign"
    1
    (List.length
       (List.filter (function Ast.Assign _ -> true | _ -> false) m.Ast.items));
  match
    List.find_map
      (function
        | Ast.Always { edges; body; _ } -> Some (edges, body)
        | _ -> None)
      m.Ast.items
  with
  | Some (edges, body) ->
    Alcotest.(check (list string)) "two posedges" [ "clk"; "rst" ]
      (List.map fst edges);
    check_int "one top statement" 1 (List.length body)
  | None -> Alcotest.fail "no always block"

let non_ansi_src =
  {|module t(clk, a, y);
      input clk;
      input [3:0] a;
      output reg [3:0] y;
      always @(posedge clk) y <= a;
    endmodule|}

let test_parse_non_ansi_header () =
  let m = parse_ok non_ansi_src in
  Alcotest.(check (list string)) "ports" [ "clk"; "a"; "y" ] m.Ast.ports;
  ignore (elab_ok non_ansi_src)

(* [text] as the right-hand side of a module's continuous assignment *)
let parse_rhs text =
  let m =
    parse_ok
      (Printf.sprintf "module e(output [7:0] out);\n  assign out = %s;\nendmodule"
         text)
  in
  let rhs = function Ast.Assign { rhs; _ } -> Some rhs | _ -> None in
  match List.find_map rhs m.Ast.items with
  | Some rhs -> rhs
  | None -> Alcotest.failf "no assignment: %s" text

let test_parse_expr_shapes () =
  (match parse_rhs "a + b & c" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Add, _, _, _), _, _) -> ()
  | _ -> Alcotest.fail "wrong tree: & should bind looser than +");
  (match parse_rhs "a == b ? x : y" with
  | Ast.Cond { cond = Ast.Binop (Ast.Eq, _, _, _); _ } -> ()
  | _ -> Alcotest.fail "?: over ==");
  (match parse_rhs "{a, b[3:0], 2'b01}" with
  | Ast.Concat ([ _; Ast.Slice ("b", 3, 0, _); _ ], _) -> ()
  | _ -> Alcotest.fail "concat parts");
  match parse_rhs "-a" with
  | Ast.Binop (Ast.Sub, Ast.Number { value = 0; _ }, Ast.Id ("a", _), _) -> ()
  | _ -> Alcotest.fail "unary minus lowers to 0 - a"

(* --- parser: every rejection is a positioned Error, never raised --- *)

let expect_error ~sub src =
  match Parse.parse src with
  | Ok _ -> Alcotest.failf "parser accepted %S" src
  | Error e ->
    (* "line:col: message" *)
    (match String.split_on_char ':' e with
    | l :: c :: _ ->
      check_bool
        (Printf.sprintf "%S: position in %S" sub e)
        true
        (int_of_string_opt l <> None && int_of_string_opt c <> None)
    | _ -> Alcotest.failf "unpositioned error %S" e);
    let has_sub =
      let n = String.length sub and m = String.length e in
      let rec go i = i + n <= m && (String.sub e i n = sub || go (i + 1)) in
      go 0
    in
    check_bool (Printf.sprintf "%S mentions %S" e sub) true has_sub

let always_wrap body =
  "module t(input clk, input a, output reg q);\n  always @(posedge clk) "
  ^ body ^ "\nendmodule"

let test_parse_errors () =
  List.iter
    (fun (sub, src) -> expect_error ~sub src)
    [ ("expected", "module ;")
    ; ("expected", "module t(input a, output q); assign q = a;")
      (* truncated: no endmodule *)
    ; ("end of input", "module t(input a")
    ; ("initial", "module t(output reg q); initial q = 0; endmodule")
    ; ("delays", always_wrap "#5 q <= a;")
    ; ("negedge",
       "module t(input c, output reg q);\n\
       \  always @(negedge c) q <= 1'b0;\nendmodule")
    ; ("'@*'",
       "module t(input a, output reg q); always @* q <= a; endmodule")
    ; ("blocking assignment", always_wrap "q = a;")
    ; ("'&&'", "module t(input a, input b, output w); assign w = a && b; endmodule")
    ; ("multiplication", "module t(input a, output w); assign w = a * a; endmodule")
    ; ("'!'", "module t(input a, output w); assign w = !a; endmodule")
    ; ("reduction", "module t(input [3:0] a, output w); assign w = &a; endmodule")
    ; ("replication",
       "module t(input a, output [3:0] w); assign w = {4{a}}; endmodule")
    ; ("inout", "module t(inout a); assign a = 0; endmodule")
    ; ("system task",
       "module t(input a, output reg q); always @(posedge a) $display(q); endmodule")
    ; ("[N:0]",
       "module t(input [7:4] a, output w); assign w = a; endmodule")
    ; ("one module", "module a(input x, output y); assign y = x; endmodule\n\
                      module b(input x, output y); assign y = x; endmodule")
    ; ("instantiation",
       "module t(input a, output w); inv u0 (.y(w), .a(a)); endmodule")
    ; ("loops", always_wrap "for (q = 0; q < 4; q = q + 1) q <= a;")
    ; ("non-constant bit select",
       "module t(input [3:0] a, input [1:0] i, output w); assign w = a[i]; endmodule")
    ]

(* --- elaboration: the happy path --- *)

let test_elaborate_counter12 () =
  let d = elab_ok counter12_src in
  let module R = Sc_rtl.Ast in
  (* the clock is structure, not data: dropped from the inputs *)
  let names ds = List.map (fun d -> d.R.dname) ds in
  let width name ds =
    (List.find (fun d -> d.R.dname = name) ds).R.width
  in
  Alcotest.(check (list string))
    "inputs (clock dropped)" [ "rst"; "en"; "load"; "d" ] (names d.R.inputs);
  Alcotest.(check (list string))
    "outputs in port order" [ "q"; "tc" ] (names d.R.outputs);
  check_int "d is 12 bits" 12 (width "d" d.R.inputs);
  check_int "q is 12 bits" 12 (width "q" d.R.outputs);
  Alcotest.(check (list string)) "sc_rtl checks clean" [] (Sc_rtl.Check.check d)

let test_elaborate_errors () =
  List.iter
    (fun (sub, src) ->
      match Elaborate.design_of_source src with
      | Ok _ -> Alcotest.failf "elaborator accepted %S" src
      | Error e ->
        let has_sub =
          let n = String.length sub and m = String.length e in
          let rec go i =
            i + n <= m && (String.sub e i n = sub || go (i + 1))
          in
          go 0
        in
        check_bool (Printf.sprintf "%S mentions %S" e sub) true has_sub)
    [ ("undeclared", "module t(input a, output w); assign w = a | b; endmodule")
    ; ("multiple drivers",
       "module t(input a, output w); assign w = a; assign w = ~a; endmodule")
    ; ("combinational cycle",
       "module t(input a, output w);\n\
       \  wire x; wire y;\n\
       \  assign x = y | a; assign y = x; assign w = x;\nendmodule")
    ; ("clock",
       "module t(input clk, output reg q);\n\
       \  always @(posedge clk) q <= clk;\nendmodule")
    ; ("1-bit input",
       "module t(input [1:0] clk, input a, output reg q);\n\
       \  always @(posedge clk) q <= a;\nendmodule")
    ; ("an always block",
       "module t(input clk, input a, output reg q);\n\
       \  assign q = a;\nendmodule")
    ; ("declare it reg",
       "module t(input clk, input a, output q);\n\
       \  always @(posedge clk) q <= a;\nendmodule")
    ; ("one always block",
       "module t(input clk, input a, output reg q);\n\
       \  always @(posedge clk) q <= a;\n\
       \  always @(posedge clk) q <= ~a;\nendmodule")
    ; ("share one clock",
       "module t(input c1, input c2, input a, output reg q, output reg r);\n\
       \  always @(posedge c1) q <= a;\n\
       \  always @(posedge c2) r <= a;\nendmodule")
    ; ("exactly",
       "module t(input clk, input rst, input a, output reg q);\n\
       \  always @(posedge clk or posedge rst) q <= a;\nendmodule")
    ; ("shift amount",
       "module t(input [3:0] a, input [1:0] n, output [3:0] w);\n\
       \  assign w = a << n;\nendmodule")
    ; ("does not fit",
       "module t(input clk, input [1:0] s, output reg q);\n\
       \  always @(posedge clk)\n\
       \    case (s) 2'd0: q <= 1'b0; 3'd7: q <= 1'b1; default: q <= 1'b0;\n\
       \    endcase\nendmodule")
    ; ("never assigned",
       "module t(input a, output w); wire x; assign w = x; endmodule")
    ; ("no outputs", "module t(input a); wire w; assign w = a; endmodule")
    ; ("never driven", "module t(input a, output w); endmodule")
    ]

(* --- width semantics: lowered designs compute exact Verilog values --- *)

let test_width_exactness () =
  (* (a >> 2) + 1 on 8 bits: sc_rtl would mask the add at the shifted
     width (6 bits) without the frontend's widening; 0xfc >> 2 = 0x3f,
     + 1 = 0x40 needs bit 6 *)
  let d =
    elab_ok
      {|module t(input [7:0] a, output [7:0] w);
          assign w = (a >> 2) + 8'd1;
        endmodule|}
  in
  let t = Sc_rtl.Interp.create d in
  Sc_rtl.Interp.set_input t "a" 0xfc;
  Sc_rtl.Interp.step t;
  check_int "(0xfc >> 2) + 1" 0x40 (Sc_rtl.Interp.output t "w");
  (* concat places the rightmost part at bit 0 *)
  let d =
    elab_ok
      {|module t(input [3:0] a, input [3:0] b, output [7:0] w);
          assign w = {a, b};
        endmodule|}
  in
  let t = Sc_rtl.Interp.create d in
  Sc_rtl.Interp.set_input t "a" 0xA;
  Sc_rtl.Interp.set_input t "b" 0x5;
  Sc_rtl.Interp.step t;
  check_int "{4'hA, 4'h5}" 0xA5 (Sc_rtl.Interp.output t "w");
  (* ~ is width-bounded negation *)
  let d =
    elab_ok
      {|module t(input [3:0] a, output [3:0] w);
          assign w = ~a;
        endmodule|}
  in
  let t = Sc_rtl.Interp.create d in
  Sc_rtl.Interp.set_input t "a" 0b0101;
  Sc_rtl.Interp.step t;
  check_int "~4'b0101" 0b1010 (Sc_rtl.Interp.output t "w");
  (* <= / >= lower through Not *)
  let d =
    elab_ok
      {|module t(input [3:0] a, input [3:0] b, output le, output ge);
          assign le = a <= b;
          assign ge = a >= b;
        endmodule|}
  in
  let t = Sc_rtl.Interp.create d in
  List.iter
    (fun (a, b, le, ge) ->
      Sc_rtl.Interp.set_input t "a" a;
      Sc_rtl.Interp.set_input t "b" b;
      Sc_rtl.Interp.step t;
      check_int (Printf.sprintf "%d <= %d" a b) le (Sc_rtl.Interp.output t "le");
      check_int (Printf.sprintf "%d >= %d" a b) ge (Sc_rtl.Interp.output t "ge"))
    [ (3, 5, 1, 0); (5, 3, 0, 1); (4, 4, 1, 1) ]

(* --- counter12 behaviour through the reference interpreter --- *)

let test_counter12_behaviour () =
  let t = Sc_rtl.Interp.create (elab_ok counter12_src) in
  let cycle ?(rst = 0) ?(en = 0) ?(load = 0) ?(d = 0) () =
    Sc_rtl.Interp.set_input t "rst" rst;
    Sc_rtl.Interp.set_input t "en" en;
    Sc_rtl.Interp.set_input t "load" load;
    Sc_rtl.Interp.set_input t "d" d;
    Sc_rtl.Interp.step t
  in
  cycle ~en:1 ();
  check_int "count to 1" 1 (Sc_rtl.Interp.reg t "$q");
  cycle ~en:1 ();
  check_int "count to 2" 2 (Sc_rtl.Interp.reg t "$q");
  cycle ~load:1 ~en:1 ~d:0xabc ();
  check_int "load wins over en" 0xabc (Sc_rtl.Interp.reg t "$q");
  cycle ();
  check_int "hold without en" 0xabc (Sc_rtl.Interp.reg t "$q");
  cycle ~rst:1 ~load:1 ~d:0xfff ();
  check_int "reset wins over all" 0 (Sc_rtl.Interp.reg t "$q");
  (* terminal count: combinational on the current state *)
  Sc_rtl.Interp.set_reg t "$q" 0xfff;
  cycle ~en:1 ();
  check_int "tc at 12'hfff" 1 (Sc_rtl.Interp.output t "tc");
  check_int "q output mirrors the state" 0xfff (Sc_rtl.Interp.output t "q");
  check_int "wraps to zero" 0 (Sc_rtl.Interp.reg t "$q")

(* --- formal equivalence against the hand-written ISP twin --- *)

let test_counter12_equiv_isp () =
  let from_verilog =
    (Sc_synth.Synth.gates (elab_ok counter12_src)).Sc_synth.Synth.circuit
  in
  let isp_design =
    match Sc_rtl.Parser.parse counter12_isp with
    | Ok d -> d
    | Error e -> Alcotest.failf "ISP twin parse: %s" e
  in
  let from_isp = (Sc_synth.Synth.gates isp_design).Sc_synth.Synth.circuit in
  match Sc_equiv.Checker.check ~k:8 from_verilog from_isp with
  | Sc_equiv.Checker.Equivalent -> ()
  | v ->
    Alcotest.failf "counter12.v is not equivalent to its ISP twin: %s"
      (Format.asprintf "%a" Sc_equiv.Checker.pp_verdict v)

(* --- the shared pipeline: pass identity, warm/cold and j1/j4 QoR --- *)

module P = Sc_pipeline.Pipeline
module M = Sc_metrics.Metrics
module Obs = Sc_obs.Obs

let with_clean_pipeline f =
  P.disable_cache ();
  P.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
    f

let capture_counter12 () =
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.enable recorder;
  (match
     Obs.with_recorder recorder (fun () ->
         Sc_core.Compiler.compile_verilog counter12_src)
   with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "compile failed: %s" (Sc_pipeline.Diag.to_string d));
  M.capture ~recorder ~design:"counter12" ()

let test_pipeline_pass_and_diag () =
  with_clean_pipeline @@ fun () ->
  (match P.with_log (fun () -> Sc_core.Compiler.compile_verilog counter12_src) with
  | Ok (compiled, circuit), log ->
    check_bool "gates synthesized" true
      ((Sc_netlist.Circuit.stats circuit).Sc_netlist.Circuit.gate_total > 0);
    check_bool "layout produced" true (compiled.Sc_core.Compiler.area > 0);
    check_bool "verilog.parse ran as a pipeline pass" true
      (List.exists (fun (n, _) -> n = "verilog.parse") log)
  | Error d, _ ->
    Alcotest.failf "compile failed: %s" (Sc_pipeline.Diag.to_string d));
  (* a frontend error surfaces as a Diag tagged with the pass name *)
  match Sc_core.Compiler.compile_verilog "module t(input a endmodule" with
  | Ok _ -> Alcotest.fail "malformed source must not compile"
  | Error d ->
    check_string "diag stage" "verilog.parse" d.Sc_pipeline.Diag.stage

let test_warm_and_parallel_qor_identity () =
  with_clean_pipeline @@ fun () ->
  P.enable_cache ();
  Fun.protect ~finally:(fun () -> Sc_par.Pool.set_default_size 1)
  @@ fun () ->
  Sc_par.Pool.set_default_size 1;
  let cold = capture_counter12 () in
  Sc_par.Pool.set_default_size 4;
  let warm = capture_counter12 () in
  check_string "warm -j4 QoR bytes = cold -j1 QoR bytes" (M.qor_string cold)
    (M.qor_string warm);
  let rt key =
    match List.assoc_opt key warm.M.runtime with Some v -> v | None -> 0.
  in
  check_bool "warm verilog.parse hit" true
    (rt "pipeline.verilog.parse.hit" >= 1.);
  check_bool "no warm frontend miss" true
    (rt "cache.verilog.parse.miss" = 0.)

let suite =
  [ Alcotest.test_case "lexer positions" `Quick test_lexer_positions
  ; Alcotest.test_case "lexer literals" `Quick test_lexer_literals
  ; Alcotest.test_case "parse counter12" `Quick test_parse_counter12
  ; Alcotest.test_case "parse non-ANSI header" `Quick test_parse_non_ansi_header
  ; Alcotest.test_case "expression shapes" `Quick test_parse_expr_shapes
  ; Alcotest.test_case "rejections are positioned errors" `Quick
      test_parse_errors
  ; Alcotest.test_case "elaborate counter12" `Quick test_elaborate_counter12
  ; Alcotest.test_case "elaboration errors" `Quick test_elaborate_errors
  ; Alcotest.test_case "width exactness" `Quick test_width_exactness
  ; Alcotest.test_case "counter12 behaviour" `Quick test_counter12_behaviour
  ; Alcotest.test_case "counter12 equivalent to ISP twin" `Quick
      test_counter12_equiv_isp
  ; Alcotest.test_case "pipeline pass and diag" `Quick
      test_pipeline_pass_and_diag
  ; Alcotest.test_case "warm and -j QoR identity" `Quick
      test_warm_and_parallel_qor_identity
  ]
