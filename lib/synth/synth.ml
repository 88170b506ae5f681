open Sc_netlist
module Ast = Sc_rtl.Ast
module SMap = Map.Make (String)

type result =
  { circuit : Circuit.t
  ; stats : Circuit.stats
  }

(* --- the gates backend: direct structural translation --- *)

let adjust nets w =
  let n = Array.length nets in
  if n = w then nets
  else if n > w then Array.sub nets 0 w
  else Array.init w (fun i -> if i < n then nets.(i) else Builder.const0)

let align a bb =
  let w = max (Array.length a) (Array.length bb) in
  (adjust a w, adjust bb w)

let truth b nets = Builder.or_reduce b (Array.to_list nets)

(* Expression reads are non-blocking: registers always read their
   pre-cycle (q) value and inputs their port nets, matching the
   interpreter's semantics; [read_env] is therefore fixed for the whole
   behaviour while the statement walk threads a separate write map. *)
let rec compile_expr design b read_env wenv e =
  let resolve n =
    (* wires are blocking: read the current write-map value; everything
       else (inputs, registers) reads the fixed pre-cycle environment *)
    if List.exists (fun (d : Ast.decl) -> d.dname = n) design.Ast.wires then
      SMap.find n wenv
    else SMap.find n read_env
  in
  match (e : Ast.expr) with
  | Ast.Const v ->
    let w = max 1 (Sc_rtl.Check.expr_width design e) in
    Array.init w (fun i ->
        if v land (1 lsl i) <> 0 then Builder.const1 else Builder.const0)
  | Ast.Ref n -> resolve n
  | Ast.Bit (n, i) -> [| (resolve n).(i) |]
  | Ast.Unop (Ast.Not, e') ->
    Array.map (Builder.not_ b) (compile_expr design b read_env wenv e')
  | Ast.Binop (op, ea, eb) ->
    (* truncate to the node's semantic width so the interpreter's masking
       and the hardware agree bit-for-bit *)
    let w = max 1 (Sc_rtl.Check.expr_width design e) in
    adjust (compile_binop design b read_env wenv op ea eb) w

and compile_binop design b read_env wenv op ea eb =
    let va = compile_expr design b read_env wenv ea in
    let vb = compile_expr design b read_env wenv eb in
    match op with
    | Ast.Add ->
      let va, vb = align va vb in
      fst (Builder.adder b va vb)
    | Ast.Sub ->
      let va, vb = align va vb in
      fst (Builder.adder b ~cin:Builder.const1 va (Array.map (Builder.not_ b) vb))
    | Ast.And ->
      let va, vb = align va vb in
      Array.map2 (Builder.and2 b) va vb
    | Ast.Or ->
      let va, vb = align va vb in
      Array.map2 (Builder.or2 b) va vb
    | Ast.Xor ->
      let va, vb = align va vb in
      Array.map2 (Builder.xor2 b) va vb
    | Ast.Eq ->
      let va, vb = align va vb in
      let diffs = Array.map2 (Builder.xor2 b) va vb in
      [| Builder.not_ b (truth b diffs) |]
    | Ast.Ne ->
      let va, vb = align va vb in
      let diffs = Array.map2 (Builder.xor2 b) va vb in
      [| truth b diffs |]
    | Ast.Lt ->
      (* unsigned: a < b iff no carry out of a + ~b + 1 *)
      let va, vb = align va vb in
      let _, carry =
        Builder.adder b ~cin:Builder.const1 va (Array.map (Builder.not_ b) vb)
      in
      [| Builder.not_ b carry |]
    | Ast.Gt ->
      let va, vb = align va vb in
      let _, carry =
        Builder.adder b ~cin:Builder.const1 vb (Array.map (Builder.not_ b) va)
      in
      [| Builder.not_ b carry |]
    | Ast.Shl ->
      let k = match eb with Ast.Const k -> k | _ -> assert false in
      Array.init (Array.length va) (fun i ->
          if i < k then Builder.const0 else va.(i - k))
    | Ast.Shr ->
      let k = match eb with Ast.Const k -> k | _ -> assert false in
      Array.init (Array.length va) (fun i ->
          if i + k < Array.length va then va.(i + k) else Builder.const0)

let decl_width design n =
  match Sc_rtl.Check.find_decl design n with
  | Some d -> d.Ast.width
  | None -> assert false

(* Merge two environments under a select net: for every name bound in
   either branch, mux bitwise.  Names missing on one side fall back to
   zeros; the definite-assignment check guarantees such placeholders are
   overwritten before they can reach an output or register. *)
let merge_env design b read_env sel env_t env_f =
  let is_reg n =
    List.exists (fun (d : Ast.decl) -> d.dname = n) design.Ast.regs
  in
  SMap.merge
    (fun name vt vf ->
      let w = decl_width design name in
      let value v =
        match v with
        | Some nets -> nets
        | None ->
          (* an unassigned register holds its pre-cycle value; outputs are
             zero placeholders that definite-assignment guarantees get
             overwritten *)
          if is_reg name then SMap.find name read_env
          else Array.make w Builder.const0
      in
      match (vt, vf) with
      | None, None -> None
      | _ ->
        let t = adjust (value vt) w and f = adjust (value vf) w in
        Some (Array.init w (fun i -> Builder.mux2 b ~sel f.(i) t.(i))))
    env_t env_f

let rec compile_stmts design b read_env env stmts =
  List.fold_left (compile_stmt design b read_env) env stmts

and compile_stmt design b read_env env = function
  | Ast.Assign (n, e) ->
    let v = compile_expr design b read_env env e in
    SMap.add n (adjust v (decl_width design n)) env
  | Ast.If (c, th, el) ->
    let sel = truth b (compile_expr design b read_env env c) in
    let env_t = compile_stmts design b read_env env th in
    let env_f = compile_stmts design b read_env env el in
    merge_env design b read_env sel env_t env_f
  | Ast.Decode (scrutinee, cases, dflt) ->
    let sv = compile_expr design b read_env env scrutinee in
    let base = compile_stmts design b read_env env dflt in
    List.fold_left
      (fun acc (v, ss) ->
        let const =
          Array.init (Array.length sv) (fun i ->
              if v land (1 lsl i) <> 0 then Builder.const1 else Builder.const0)
        in
        let diffs = Array.map2 (Builder.xor2 b) sv const in
        let hit = Builder.not_ b (truth b diffs) in
        let env_case = compile_stmts design b read_env env ss in
        merge_env design b read_env hit env_case acc)
      base cases

let check_design ~stage design =
  match Sc_rtl.Check.check design with
  | [] -> ()
  | e :: _ -> Sc_pipeline.Diag.fail ~stage e

let translate design =
  check_design ~stage:"compile" design;
  Sc_obs.Obs.span "compile" @@ fun () ->
  let b = Builder.create design.Ast.name in
  let env = ref SMap.empty in
  List.iter
    (fun (d : Ast.decl) ->
      env := SMap.add d.dname (Builder.input b d.dname d.width) !env)
    design.Ast.inputs;
  let qs =
    List.map
      (fun (d : Ast.decl) ->
        let q = Builder.fresh_vec b d.width in
        Array.iteri
          (fun i n -> Builder.name_net b n (Printf.sprintf "%s[%d]" d.dname i))
          q;
        env := SMap.add d.dname q !env;
        (d, q))
      design.Ast.regs
  in
  let final = compile_stmts design b !env SMap.empty design.Ast.body in
  List.iter
    (fun ((d : Ast.decl), q) ->
      match SMap.find_opt d.dname final with
      | Some next ->
        Array.iteri
          (fun i dnet -> Builder.gate_into b Gate.Dff [| dnet |] q.(i))
          next
      | None ->
        (* register never assigned: holds its value *)
        Array.iter (fun qn -> Builder.gate_into b Gate.Dff [| qn |] qn) q)
    qs;
  List.iter
    (fun (d : Ast.decl) -> Builder.output b d.dname (SMap.find d.dname final))
    design.Ast.outputs;
  Builder.finish b

let replay_gauges r =
  Sc_obs.Obs.gauge "gates" r.stats.Circuit.gate_total;
  Sc_obs.Obs.gauge "flipflops" r.stats.Circuit.flipflops;
  Sc_obs.Obs.gauge "transistors" r.stats.Circuit.transistors

let result_of circuit =
  let r = { circuit; stats = Circuit.stats circuit } in
  replay_gauges r;
  r

let optimize_result ?inject circuit =
  let simplified = Optimize.simplify circuit in
  let simplified =
    match inject with
    | None -> simplified
    | Some i ->
      (* fault-injection demo: flip the first mutable gate at or after
         index [i] (wrapping past sequential/constant gates), producing
         a live miscompile for --certify to refuse *)
      let n = List.length (Circuit.flatten simplified).Circuit.gates in
      if n = 0 then invalid_arg "optimize_result: no gates to mutate";
      let rec try_at seen j =
        if seen >= n then
          invalid_arg
            "optimize_result: no mutable gate (all sequential or constant)"
        else
          match Sc_equiv.Checker.mutate simplified (j mod n) with
          | c -> c
          | exception Invalid_argument _ -> try_at (seen + 1) (j + 1)
      in
      try_at 0 (((i mod n) + n) mod n)
  in
  result_of simplified

let gates ?(optimize = true) design =
  let raw = translate design in
  if optimize then optimize_result raw else result_of raw

(* --- the PLA backend: FSM extraction through the reference semantics --- *)

let max_bits = 12

(* The raw, unminimized next-state/output cover of a design, enumerated
   through the reference semantics ([Sc_rtl.Interp]).  This is the
   specification the minimized PLA is certified against. *)
let fsm_cover design =
  check_design ~stage:"compile" design;
  let in_bits =
    List.fold_left (fun a (d : Ast.decl) -> a + d.width) 0 design.Ast.inputs
  in
  let state_bits =
    List.fold_left (fun a (d : Ast.decl) -> a + d.width) 0 design.Ast.regs
  in
  let out_bits =
    List.fold_left (fun a (d : Ast.decl) -> a + d.width) 0 design.Ast.outputs
  in
  let total_in = in_bits + state_bits in
  if total_in > max_bits then
    Sc_pipeline.Diag.failf ~stage:"compile"
      "pla_fsm: %d state+input bits exceed %d" total_in max_bits;
  let interp = Sc_rtl.Interp.create design in
  let f bits =
    (* bit order: inputs in declaration order (lsb first), then registers *)
    let pos = ref 0 in
    let take w =
      let v = ref 0 in
      for i = 0 to w - 1 do
        if bits.(!pos + i) then v := !v lor (1 lsl i)
      done;
      pos := !pos + w;
      !v
    in
    List.iter
      (fun (d : Ast.decl) -> Sc_rtl.Interp.set_input interp d.dname (take d.width))
      design.Ast.inputs;
    List.iter
      (fun (d : Ast.decl) -> Sc_rtl.Interp.set_reg interp d.dname (take d.width))
      design.Ast.regs;
    Sc_rtl.Interp.step interp;
    let out = Array.make (state_bits + out_bits) false in
    let opos = ref 0 in
    let put w v =
      for i = 0 to w - 1 do
        out.(!opos + i) <- v land (1 lsl i) <> 0
      done;
      opos := !opos + w
    in
    List.iter
      (fun (d : Ast.decl) -> put d.width (Sc_rtl.Interp.reg interp d.dname))
      design.Ast.regs;
    List.iter
      (fun (d : Ast.decl) -> put d.width (Sc_rtl.Interp.output interp d.dname))
      design.Ast.outputs;
    out
  in
  Sc_logic.Cover.of_function ~ninputs:total_in ~noutputs:(state_bits + out_bits)
    f

let pla_fsm ?(minimize = true) design =
  check_design ~stage:"compile" design;
  let state_bits =
    List.fold_left (fun a (d : Ast.decl) -> a + d.width) 0 design.Ast.regs
  in
  let out_bits =
    List.fold_left (fun a (d : Ast.decl) -> a + d.width) 0 design.Ast.outputs
  in
  let pla =
    Sc_obs.Obs.span "compile" @@ fun () ->
    Sc_pla.Generator.generate ~minimize
      ~name:(design.Ast.name ^ "_pla")
      (fsm_cover design)
  in
  (* wrap: inputs and state feed the PLA; state bits register its outputs *)
  let b = Builder.create design.Ast.name in
  let input_nets =
    List.concat_map
      (fun (d : Ast.decl) -> Array.to_list (Builder.input b d.dname d.width))
      design.Ast.inputs
  in
  let qs = Builder.fresh_vec b state_bits in
  let pla_in = Array.of_list (input_nets @ Array.to_list qs) in
  let pla_out = Builder.fresh_vec b (state_bits + out_bits) in
  Builder.inst b ~name:"control" pla.Sc_pla.Generator.netlist
    [ ("in", pla_in); ("out", pla_out) ];
  Array.iteri
    (fun i q -> Builder.gate_into b Gate.Dff [| pla_out.(i) |] q)
    qs;
  let opos = ref state_bits in
  List.iter
    (fun (d : Ast.decl) ->
      Builder.output b d.dname (Array.sub pla_out !opos d.width);
      opos := !opos + d.width)
    design.Ast.outputs;
  let circuit = Builder.finish b in
  ({ circuit; stats = Circuit.stats circuit }, pla)

let verify_against_interp design circuit cycles stim =
  let interp = Sc_rtl.Interp.create design in
  let engine = Sc_sim.Engine.create circuit in
  let compared = ref 0 in
  let ok = ref true in
  for cyc = 0 to cycles - 1 do
    let ins = stim cyc in
    List.iter (fun (n, v) -> Sc_rtl.Interp.set_input interp n v) ins;
    List.iter (fun (n, v) -> Sc_sim.Engine.set_input_int engine n v) ins;
    (* Both models report outputs as f(state_k, in_k): the interpreter
       computes them inside [step] from pre-cycle state; the circuit shows
       them combinationally once inputs settle, BEFORE the clock edge. *)
    Sc_rtl.Interp.step interp;
    let all_known =
      List.for_all
        (fun (d : Ast.decl) ->
          Sc_sim.Engine.get_output_int engine d.dname <> None)
        design.Ast.outputs
    in
    if all_known then begin
      incr compared;
      List.iter
        (fun (d : Ast.decl) ->
          let expected = Sc_rtl.Interp.output interp d.dname in
          if Sc_sim.Engine.get_output_int engine d.dname <> Some expected then
            ok := false)
        design.Ast.outputs
    end;
    Sc_sim.Engine.step engine
  done;
  !ok && !compared > 0
