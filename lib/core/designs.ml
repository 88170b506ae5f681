open Sc_netlist

(* --- behavioral sources --- *)

let counter_src =
  {|
-- 4-bit loadable counter with synchronous reset
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
-- accumulator ALU: add, subtract, and, xor; zero flag
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

let gray_src =
  {|
-- 3-bit Gray-code cycle
module gray;
inputs reset[1];
outputs g[3];
registers s[3];
behavior
  if reset == 1 then s := 0;
  else s := s + 1;
  end
  g := s ^ (s >> 1);
end
|}

let seqdet_src =
  {|
-- Mealy detector for the overlapping pattern 1011
module seqdet;
inputs x[1], reset[1];
outputs hit[1];
registers st[2];
behavior
  hit := 0;
  if reset == 1 then st := 0;
  else
    decode st
      0: if x == 1 then st := 1; else st := 0; end
      1: if x == 1 then st := 1; else st := 2; end
      2: if x == 1 then st := 3; else st := 0; end
      3: if x == 1 then st := 1; hit := 1; else st := 2; end
    end
  end
end
|}

let pdp8_src =
  {|
-- the mini PDP-8: 8-bit accumulator machine, 4-bit PC, four scratch
-- words standing in for core memory; instructions arrive on a port.
-- encoding: inst[7:5] opcode, inst[4:3] scratch address,
-- inst[2:0] OPR micro-ops / low JMP target bits.
-- opcodes: 0 AND, 1 TAD, 2 ISZ, 3 DCA, 5 JMP, 7 OPR (4, 6 are no-ops)
-- written module-style: one memory read bus and one shared adder
module pdp8;
inputs inst[8], reset[1];
outputs pc_out[4], ac_out[8];
registers pc[4], ac[8], m0[8], m1[8], m2[8], m3[8];
wires op[3], mem[8], adda[8], addb[8], sum[8];
behavior
  op := inst >> 5;
  decode (inst >> 3) & 3
    0: mem := m0;
    1: mem := m1;
    2: mem := m2;
    3: mem := m3;
  end
  -- shared adder operand selection:
  --   TAD: ac + mem; ISZ: mem + 1; OPR IAC: ac + 1; OPR CMA+IAC: ~ac + 1
  adda := ac;
  addb := 1;
  if op == 1 then addb := mem; end
  if op == 2 then adda := mem; end
  if op == 7 then
    if inst[1] == 1 then adda := ~ac; end
  end
  sum := adda + addb;
  if reset == 1 then
    pc := 0; ac := 0; m0 := 0; m1 := 0; m2 := 0; m3 := 0;
  else
    pc := pc + 1;
    decode op
      0: ac := ac & mem;
      1: ac := sum;
      2: decode (inst >> 3) & 3
           0: m0 := sum;
           1: m1 := sum;
           2: m2 := sum;
           3: m3 := sum;
         end
         if sum == 0 then pc := pc + 2; end
      3: decode (inst >> 3) & 3
           0: m0 := ac;
           1: m1 := ac;
           2: m2 := ac;
           3: m3 := ac;
         end
         ac := 0;
      5: pc := inst & 15;
      7: decode inst & 7
           1: ac := 0;
           2: ac := ~ac;
           3: ac := 255;
           4: ac := sum;
           5: ac := 1;
           6: ac := sum;
           7: ac := 0;
         end
    end
  end
  pc_out := pc;
  ac_out := ac;
end
|}

let pdp8_dp_src =
  {|
-- the PDP-8 datapath alone: scratch read bus, shared adder with its
-- operand selection, and the zero flag; register-free so it can be
-- equivalence-checked combinationally against the hand sub-blocks
module pdp8_dp;
inputs inst[8], ac[8], m0[8], m1[8], m2[8], m3[8];
outputs mem[8], sum[8], sum_zero[1];
wires op[3], membus[8], adda[8], addb[8], s[8];
behavior
  op := inst >> 5;
  decode (inst >> 3) & 3
    0: membus := m0;
    1: membus := m1;
    2: membus := m2;
    3: membus := m3;
  end
  mem := membus;
  adda := ac;
  addb := 1;
  if op == 1 then addb := membus; end
  if op == 2 then adda := membus; end
  if op == 7 then
    if inst[1] == 1 then adda := ~ac; end
  end
  s := adda + addb;
  sum := s;
  sum_zero := s == 0;
end
|}

let parse src =
  match Sc_rtl.Parser.parse src with
  | Ok d -> d
  | Error e -> Sc_pipeline.Diag.fail ~stage:"parse" e

(* --- hand-built structural baselines --- *)

(* A hand incrementer: half-adder chain, much cheaper than a general
   ripple adder built from full adders. *)
let increment b q =
  let w = Array.length q in
  let out = Array.make w Builder.const0 in
  let carry = ref Builder.const1 in
  for i = 0 to w - 1 do
    out.(i) <- Builder.xor2 b q.(i) !carry;
    if i < w - 1 then carry := Builder.and2 b q.(i) !carry
  done;
  out

let reset_gate b reset d = Array.map (fun n -> Builder.and2 b n (Builder.not_ b reset)) d

let hand_counter () =
  let b = Builder.create "counter_hand" in
  let reset = (Builder.input b "reset" 1).(0) in
  let load = (Builder.input b "load" 1).(0) in
  let data = Builder.input b "data" 4 in
  let q = Builder.fresh_vec b 4 in
  let inc = increment b q in
  let next = Builder.mux_vec b ~sel:load inc data in
  let next = reset_gate b reset next in
  Array.iteri (fun i d -> Builder.gate_into b Gate.Dff [| d |] q.(i)) next;
  Builder.output b "q" q;
  Builder.finish b

let hand_traffic () =
  let b = Builder.create "traffic_hand" in
  let car = (Builder.input b "car" 1).(0) in
  let reset = (Builder.input b "reset" 1).(0) in
  let s = Builder.fresh_vec b 2 in
  let t = Builder.fresh_vec b 2 in
  let n0 = Builder.not_ b s.(0) and n1 = Builder.not_ b s.(1) in
  let s_is k =
    match k with
    | 0 -> Builder.and2 b n1 n0
    | 1 -> Builder.and2 b n1 s.(0)
    | 2 -> Builder.and2 b s.(1) n0
    | _ -> Builder.and2 b s.(1) s.(0)
  in
  let s0' = s_is 0 and s1' = s_is 1 and s2' = s_is 2 in
  let t_full = Builder.and2 b t.(1) t.(0) in
  (* hand-minimized next state: ns1 = s1 xor s0 pattern; written directly *)
  let ns1 = Builder.or2 b s1' s2' in
  let ns0 =
    Builder.or2 b (Builder.and2 b s0' car) (Builder.and2 b s2' t_full)
  in
  (* timer: cleared in s1, counts in s2 while not full *)
  let count_en = Builder.and2 b s2' (Builder.not_ b t_full) in
  let tinc = increment b t in
  let nt0 = Builder.and2 b (Builder.mux2 b ~sel:count_en t.(0) tinc.(0)) (Builder.not_ b s1') in
  let nt1 = Builder.and2 b (Builder.mux2 b ~sel:count_en t.(1) tinc.(1)) (Builder.not_ b s1') in
  let next = reset_gate b reset [| ns0; ns1; nt0; nt1 |] in
  Builder.gate_into b Gate.Dff [| next.(0) |] s.(0);
  Builder.gate_into b Gate.Dff [| next.(1) |] s.(1);
  Builder.gate_into b Gate.Dff [| next.(2) |] t.(0);
  Builder.gate_into b Gate.Dff [| next.(3) |] t.(1);
  (* lamps decoded straight from the state bits *)
  let s3' = s_is 3 in
  Builder.output b "ns" [| s0'; s1'; Builder.or2 b s2' s3' |];
  Builder.output b "ew" [| s2'; s3'; Builder.or2 b s0' s1' |];
  Builder.finish b

let hand_alu () =
  let b = Builder.create "alu_hand" in
  let op = Builder.input b "op" 2 in
  let a = Builder.input b "a" 4 in
  let bv = Builder.input b "b" 4 in
  let acc = Builder.fresh_vec b 4 in
  (* one shared adder does add and subtract *)
  let sub = Builder.and2 b op.(0) (Builder.not_ b op.(1)) in
  let b_adj = Array.map (fun n -> Builder.xor2 b n sub) bv in
  let sum, _ = Builder.adder b ~cin:sub a b_adj in
  let ands = Array.map2 (Builder.and2 b) a bv in
  let xors = Array.map2 (Builder.xor2 b) a bv in
  let logic = Builder.mux_vec b ~sel:op.(0) ands xors in
  let next = Builder.mux_vec b ~sel:op.(1) sum logic in
  Array.iteri (fun i d -> Builder.gate_into b Gate.Dff [| d |] acc.(i)) next;
  Builder.output b "y" acc;
  Builder.output b "z"
    [| Builder.not_ b (Builder.or_reduce b (Array.to_list acc)) |];
  Builder.finish b

let hand_pdp8 () =
  let b = Builder.create "pdp8_hand" in
  let inst = Builder.input b "inst" 8 in
  let reset = (Builder.input b "reset" 1).(0) in
  let pc = Builder.fresh_vec b 4 in
  let ac = Builder.fresh_vec b 8 in
  let m = Array.init 4 (fun _ -> Builder.fresh_vec b 8) in
  (* opcode decode (one-hot) *)
  let i5 = inst.(5) and i6 = inst.(6) and i7 = inst.(7) in
  let n5 = Builder.not_ b i5 and n6 = Builder.not_ b i6 and n7 = Builder.not_ b i7 in
  let op_and = Builder.and_reduce b [ n7; n6; n5 ] in
  let op_tad = Builder.and_reduce b [ n7; n6; i5 ] in
  let op_isz = Builder.and_reduce b [ n7; i6; n5 ] in
  let op_dca = Builder.and_reduce b [ n7; i6; i5 ] in
  let op_jmp = Builder.and_reduce b [ i7; n6; i5 ] in
  let op_opr = Builder.and_reduce b [ i7; i6; i5 ] in
  (* scratch-word read bus *)
  let mem =
    Array.init 8 (fun k ->
        let low = Builder.mux2 b ~sel:inst.(3) m.(0).(k) m.(1).(k) in
        let high = Builder.mux2 b ~sel:inst.(3) m.(2).(k) m.(3).(k) in
        Builder.mux2 b ~sel:inst.(4) low high)
  in
  (* one shared 8-bit adder:
       TAD: ac + mem;  ISZ: mem + 1;  OPR IAC: ac + 1;  OPR CMA+IAC: ~ac + 1 *)
  let cma = Builder.and2 b op_opr inst.(1) in
  let ac_or_not = Array.map (fun n -> Builder.xor2 b n cma) ac in
  let add_a = Builder.mux_vec b ~sel:op_isz ac_or_not mem in
  let one = Array.init 8 (fun i -> if i = 0 then Builder.const1 else Builder.const0) in
  let add_b = Builder.mux_vec b ~sel:op_tad one mem in
  let sum, _ = Builder.adder b add_a add_b in
  let sum_zero = Builder.not_ b (Builder.or_reduce b (Array.to_list sum)) in
  (* accumulator next value *)
  let and_val = Array.map2 (Builder.and2 b) ac mem in
  let zero8 = Array.make 8 Builder.const0 in
  let ones8 = Array.make 8 Builder.const1 in
  let not_ac = Array.map (Builder.not_ b) ac in
  (* OPR table on inst[2:0]: 0 hold, 1 zero, 2 ~ac, 3 255, 4 sum, 5 one,
     6 sum, 7 zero *)
  let opr_low0 = Builder.mux_vec b ~sel:inst.(0) ac zero8 in
  let opr_low1 = Builder.mux_vec b ~sel:inst.(0) not_ac ones8 in
  let opr_low = Builder.mux_vec b ~sel:inst.(1) opr_low0 opr_low1 in
  let opr_high0 = Builder.mux_vec b ~sel:inst.(0) sum one in
  let opr_high1 = Builder.mux_vec b ~sel:inst.(0) sum zero8 in
  let opr_high = Builder.mux_vec b ~sel:inst.(1) opr_high0 opr_high1 in
  let opr_val = Builder.mux_vec b ~sel:inst.(2) opr_low opr_high in
  let ac_next = Builder.mux_vec b ~sel:op_tad and_val sum in
  let ac_next = Builder.mux_vec b ~sel:op_opr ac_next opr_val in
  let ac_next = Builder.mux_vec b ~sel:op_dca ac_next zero8 in
  let ac_en =
    Builder.or_reduce b [ op_and; op_tad; op_dca; op_opr; reset ]
  in
  let ac_next = reset_gate b reset ac_next in
  Array.iteri
    (fun i d -> Builder.gate_into b Gate.Dffe [| d; ac_en |] ac.(i))
    ac_next;
  (* scratch words: ISZ writes sum, DCA writes ac *)
  let wr_val = Builder.mux_vec b ~sel:op_dca sum ac in
  for k = 0 to 3 do
    let a1 = if k land 2 <> 0 then inst.(4) else Builder.not_ b inst.(4) in
    let a0 = if k land 1 <> 0 then inst.(3) else Builder.not_ b inst.(3) in
    let hit = Builder.and2 b a1 a0 in
    let en =
      Builder.or2 b
        (Builder.and2 b hit (Builder.or2 b op_isz op_dca))
        reset
    in
    let d = reset_gate b reset wr_val in
    Array.iteri
      (fun i dn -> Builder.gate_into b Gate.Dffe [| dn; en |] m.(k).(i))
      d
  done;
  (* program counter: +1, +2 on ISZ skip, or JMP target *)
  let skip = Builder.and2 b op_isz sum_zero in
  let pc_inc =
    (* pc + (skip ? 2 : 1) using one small adder *)
    let addend =
      [| Builder.not_ b skip; skip; Builder.const0; Builder.const0 |]
    in
    fst (Builder.adder b pc addend)
  in
  let target = Array.sub inst 0 4 in
  let pc_next = Builder.mux_vec b ~sel:op_jmp pc_inc target in
  let pc_next = reset_gate b reset pc_next in
  Array.iteri (fun i d -> Builder.gate_into b Gate.Dff [| d |] pc.(i)) pc_next;
  Builder.output b "pc_out" pc;
  Builder.output b "ac_out" ac;
  Builder.finish b

(* The hand machine's shared sub-blocks, standalone: same read bus,
   operand selection, adder and zero flag as hand_pdp8 above, with the
   registers replaced by input ports.  Port-compatible with the
   synthesized pdp8_dp_src so the two can be mitered (E9). *)
let hand_pdp8_dp () =
  let b = Builder.create "pdp8_dp_hand" in
  let inst = Builder.input b "inst" 8 in
  let ac = Builder.input b "ac" 8 in
  let m = Array.init 4 (fun k -> Builder.input b (Printf.sprintf "m%d" k) 8) in
  let i5 = inst.(5) and i6 = inst.(6) and i7 = inst.(7) in
  let n5 = Builder.not_ b i5 and n6 = Builder.not_ b i6 and n7 = Builder.not_ b i7 in
  let op_tad = Builder.and_reduce b [ n7; n6; i5 ] in
  let op_isz = Builder.and_reduce b [ n7; i6; n5 ] in
  let op_opr = Builder.and_reduce b [ i7; i6; i5 ] in
  let mem =
    Array.init 8 (fun k ->
        let low = Builder.mux2 b ~sel:inst.(3) m.(0).(k) m.(1).(k) in
        let high = Builder.mux2 b ~sel:inst.(3) m.(2).(k) m.(3).(k) in
        Builder.mux2 b ~sel:inst.(4) low high)
  in
  let cma = Builder.and2 b op_opr inst.(1) in
  let ac_or_not = Array.map (fun n -> Builder.xor2 b n cma) ac in
  let add_a = Builder.mux_vec b ~sel:op_isz ac_or_not mem in
  let one = Array.init 8 (fun i -> if i = 0 then Builder.const1 else Builder.const0) in
  let add_b = Builder.mux_vec b ~sel:op_tad one mem in
  let sum, _ = Builder.adder b add_a add_b in
  let sum_zero = Builder.not_ b (Builder.or_reduce b (Array.to_list sum)) in
  Builder.output b "mem" mem;
  Builder.output b "sum" sum;
  Builder.output b "sum_zero" [| sum_zero |];
  Builder.finish b

(* --- stimulus --- *)

let counter_stim cyc =
  [ ("reset", if cyc = 0 then 1 else 0)
  ; ("load", if cyc mod 11 = 7 then 1 else 0)
  ; ("data", (cyc * 5) land 15)
  ]

let traffic_stim cyc =
  [ ("reset", if cyc = 0 then 1 else 0); ("car", (cyc / 3) land 1) ]

let alu_stim cyc =
  [ ("op", cyc land 3); ("a", cyc land 15); ("b", (cyc * 7) land 15) ]

let gray_stim cyc = [ ("reset", if cyc = 0 then 1 else 0) ]

let seqdet_stim cyc =
  (* feed a pattern-rich bit stream *)
  let bits = 0b110101101101011 in
  [ ("reset", if cyc = 0 then 1 else 0); ("x", (bits lsr (cyc mod 15)) land 1) ]

let pdp8_program =
  [| 0xE5 (* OPR CLA+IAC : ac := 1 *)
   ; 0x68 (* DCA m1      : m1 := 1, ac := 0 *)
   ; 0xE5 (* OPR CLA+IAC : ac := 1 *)
   ; 0x28 (* TAD m1      : ac := 2 *)
   ; 0x28 (* TAD m1      : ac := 3 *)
   ; 0x70 (* DCA m2      : m2 := 3, ac := 0 *)
   ; 0x48 (* ISZ m1      : m1 := 2 *)
   ; 0x08 (* AND m1      : ac := 0 *)
   ; 0xE2 (* OPR CMA     : ac := 255 *)
   ; 0x50 (* ISZ m2      : m2 := 4 *)
   ; 0xE6 (* OPR CMA+IAC : ac := 1 *)
   ; 0x30 (* TAD m2      : ac := 5 *)
   ; 0xA2 (* JMP 2 *)
   ; 0xE7 (* OPR CLA+CMA+IAC : ac := 0 *)
   ; 0x78 (* DCA m3 *)
   ; 0x58 (* ISZ m3 *)
  |]

let pdp8_stim cyc =
  if cyc = 0 then [ ("reset", 1); ("inst", 0) ]
  else
    [ ("reset", 0)
    ; ("inst", pdp8_program.((cyc - 1) mod Array.length pdp8_program))
    ]

(* --- the modular reference design: separate compilation workload --- *)

let system_src =
  {|
-- two-module system: a combinational mixer feeding an accumulator.
-- Each module block compiles through its own sub-pipeline; the chip
-- block binds them by interface signature and macro-assembles them.

module mixer;
inputs a[4], b[4];
outputs y[4];
behavior
  y := a ^ b;
end

module accum;
inputs d[4], reset[1];
outputs q[4];
registers acc[4];
behavior
  if reset == 1 then acc := 0;
  else acc := acc + d;
  end
  q := acc;
end

chip system;
inputs a[4], b[4], reset[1];
outputs q[4];
instances
  u_mix : mixer;
  u_acc : accum;
connect
  u_mix.a = a;
  u_mix.b = b;
  u_acc.d = u_mix.y;
  u_acc.reset = reset;
  q = u_acc.q;
end
|}

let all () =
  [ ("counter", counter_src, Some (hand_counter ()), counter_stim, 50)
  ; ("traffic", traffic_src, Some (hand_traffic ()), traffic_stim, 80)
  ; ("alu4", alu_src, Some (hand_alu ()), alu_stim, 64)
  ; ("gray", gray_src, None, gray_stim, 24)
  ; ("seqdet", seqdet_src, None, seqdet_stim, 60)
  ; ("pdp8", pdp8_src, Some (hand_pdp8 ()), pdp8_stim, 120)
  ]

let builtin = function
  | "counter" -> Some counter_src
  | "traffic" -> Some traffic_src
  | "alu" | "alu4" -> Some alu_src
  | "gray" -> Some gray_src
  | "seqdet" -> Some seqdet_src
  | "pdp8" -> Some pdp8_src
  | "pdp8_dp" -> Some pdp8_dp_src
  | "system" -> Some system_src
  | _ -> None

let circuit spec =
  match String.index_opt spec ':' with
  | None -> None
  | Some i -> (
    let name = String.sub spec (i + 1) (String.length spec - i - 1) in
    match String.sub spec 0 i with
    | "hand" ->
      Some
        (match name with
        | "counter" -> Ok (hand_counter ())
        | "traffic" -> Ok (hand_traffic ())
        | "alu" | "alu4" -> Ok (hand_alu ())
        | "pdp8" -> Ok (hand_pdp8 ())
        | "pdp8_dp" -> Ok (hand_pdp8_dp ())
        | n -> Error ("unknown hand design " ^ n))
    | "isp" ->
      Some
        (match builtin name with
        | None -> Error ("unknown builtin design " ^ name)
        | Some src -> (
          match Sc_synth.Synth.gates (parse src) with
          | r -> Ok r.Sc_synth.Synth.circuit
          | exception Sc_pipeline.Diag.Error d ->
            Error (Sc_pipeline.Diag.to_string d)))
    | _ -> None)
