open Sc_netlist

type counterexample =
  { frames : (string * int) list list
  ; output : string
  ; bit : int
  ; cycle : int
  }

type verdict =
  | Equivalent
  | Not_equivalent of counterexample

let pp_verdict ppf = function
  | Equivalent -> Format.fprintf ppf "equivalent"
  | Not_equivalent cex ->
    Format.fprintf ppf "NOT equivalent: %s[%d] differs at cycle %d under"
      cex.output cex.bit cex.cycle;
    List.iteri
      (fun cyc frame ->
        Format.fprintf ppf "@ cycle %d:" cyc;
        List.iter (fun (p, v) -> Format.fprintf ppf " %s=%d" p v) frame)
      cex.frames

let is_sequential c = (Circuit.stats c).Circuit.flipflops > 0

(* first differing output bit, in port declaration order — for unrolled
   circuits that order is frame-major, so the earliest cycle wins *)
let first_diff man oa ob =
  let rec scan = function
    | [] -> None
    | (name, bits_a) :: rest ->
      let bits_b = List.assoc name ob in
      let rec bit i =
        if i >= Array.length bits_a then scan rest
        else
          let d = Bdd.xor man bits_a.(i) bits_b.(i) in
          if Bdd.is_false d then bit (i + 1) else Some (name, i, d)
      in
      bit 0
  in
  scan oa

(* turn a satisfying assignment of the miter into per-cycle stimulus *)
let cex_of_assignment ~seq ~nframes ~(inputs : Circuit.port list) env
    assignment out_name out_bit =
  let values = Hashtbl.create 16 in
  List.iter
    (fun (v, b) ->
      if b then begin
        let pname, bit = env.Miter.names.(v) in
        let base, f = if seq then Unroll.split_port pname else (pname, 0) in
        let cur =
          Option.value ~default:0 (Hashtbl.find_opt values (base, f))
        in
        Hashtbl.replace values (base, f) (cur lor (1 lsl bit))
      end)
    assignment;
  let output, cycle =
    if seq then Unroll.split_port out_name else (out_name, 0)
  in
  (* frames beyond the failing cycle cannot influence the verdict —
     truncate so replay doesn't drive phantom cycles *)
  let frames =
    List.init
      (min nframes (cycle + 1))
      (fun f ->
        List.map
          (fun (p : Circuit.port) ->
            ( p.port_name
            , Option.value ~default:0
                (Hashtbl.find_opt values (p.port_name, f)) ))
          inputs)
  in
  { frames; output; bit = out_bit; cycle }

(* The miter behind [check] and [certify]: both circuits unrolled once,
   one variable order, every output bit in one manager.  [Ok n] when
   all [n] output ports agree, else the counterexample of the first
   differing bit in port declaration order. *)
let miter man ?order ~k a b =
  let seq = is_sequential a || is_sequential b in
  let a', b' =
    if seq then (Unroll.frames ~k a, Unroll.frames ~k b) else (a, b)
  in
  Miter.check_signatures a' b';
  let env = Miter.env_of ?order man a' in
  let oa = Miter.outputs env a' and ob = Miter.outputs env b' in
  match first_diff man oa ob with
  | None -> Ok (List.length oa)
  | Some (name, bit, diff) ->
    let assignment = Bdd.sat_one man diff in
    let nframes = if seq then k else 1 in
    let inputs = Circuit.inputs (Circuit.flatten a) in
    Error (cex_of_assignment ~seq ~nframes ~inputs env assignment name bit)

let check ?man ?order ?(k = 8) a b =
  Sc_obs.Obs.span "equiv" @@ fun () ->
  let man = match man with Some m -> m | None -> Bdd.create () in
  let verdict = miter man ?order ~k a b in
  Sc_obs.Obs.gauge "bdd.nodes" (Bdd.node_count man);
  match verdict with
  | Ok _ -> Equivalent
  | Error cex -> Not_equivalent cex

type certificate =
  { cert_cones : int
  ; cert_nodes : int
  }

(* Obs-quiet but for its span: the pass manager replays the
   certificate's counters *)
let certify ?order ?(k = 8) a b =
  Sc_obs.Obs.span "equiv" @@ fun () ->
  let man = Bdd.create () in
  Result.map
    (fun ports -> { cert_cones = ports; cert_nodes = Bdd.node_count man })
    (miter man ?order ~k a b)

type replay_verdict = Reproduced | Not_reproduced | Indeterminate

let replay_verdict_to_string = function
  | Reproduced -> "reproduced"
  | Not_reproduced -> "not reproduced"
  | Indeterminate -> "indeterminate (X state)"

let replay a b cex =
  let ea = Sc_sim.Engine.create a and eb = Sc_sim.Engine.create b in
  Sc_sim.Engine.force_registers ea Sc_sim.Value.V0;
  Sc_sim.Engine.force_registers eb Sc_sim.Value.V0;
  let rec go cyc = function
    | [] -> Not_reproduced
    | frame :: rest ->
      List.iter
        (fun (p, v) ->
          Sc_sim.Engine.set_input_int ea p v;
          Sc_sim.Engine.set_input_int eb p v)
        frame;
      if cyc = cex.cycle then
        let va = (Sc_sim.Engine.get_output ea cex.output).(cex.bit) in
        let vb = (Sc_sim.Engine.get_output eb cex.output).(cex.bit) in
        match (Sc_sim.Value.to_bool va, Sc_sim.Value.to_bool vb) with
        | Some x, Some y -> if x <> y then Reproduced else Not_reproduced
        | _ -> Indeterminate
      else begin
        Sc_sim.Engine.step ea;
        Sc_sim.Engine.step eb;
        go (cyc + 1) rest
      end
  in
  go 0 cex.frames

let mutate c i =
  let f = Circuit.flatten c in
  let gates = Array.of_list f.Circuit.gates in
  if i < 0 || i >= Array.length gates then
    invalid_arg
      (Printf.sprintf "Checker.mutate: gate %d out of range (%d gates)" i
         (Array.length gates));
  let g = gates.(i) in
  let flip kind = { g with Circuit.kind } in
  let g' =
    match g.Circuit.kind with
    | Gate.And2 -> flip Gate.Or2
    | Gate.Or2 -> flip Gate.And2
    | Gate.Nand2 -> flip Gate.Nor2
    | Gate.Nor2 -> flip Gate.Nand2
    | Gate.Nand3 -> flip Gate.Nor3
    | Gate.Nor3 -> flip Gate.Nand3
    | Gate.Xor2 -> flip Gate.Xnor2
    | Gate.Xnor2 -> flip Gate.Xor2
    | Gate.Inv -> flip Gate.Buf
    | Gate.Buf -> flip Gate.Inv
    | Gate.Mux2 ->
      { g with Circuit.ins = [| g.Circuit.ins.(1); g.Circuit.ins.(0); g.Circuit.ins.(2) |] }
    | Gate.Dff | Gate.Dffe | Gate.Const0 | Gate.Const1 ->
      invalid_arg
        (Printf.sprintf "Checker.mutate: gate %d (%s) is sequential or constant"
           i
           (Gate.to_string g.Circuit.kind))
  in
  gates.(i) <- g';
  Circuit.create
    ~name:(f.Circuit.cname ^ "_mut")
    ~ports:f.Circuit.ports ~gates:(Array.to_list gates) ~insts:[]
    ~net_count:f.Circuit.net_count ~net_names:f.Circuit.net_names

let check_covers (a : Sc_logic.Cover.t) (b : Sc_logic.Cover.t) =
  if
    a.Sc_logic.Cover.ninputs <> b.Sc_logic.Cover.ninputs
    || a.Sc_logic.Cover.noutputs <> b.Sc_logic.Cover.noutputs
  then invalid_arg "Checker.check_covers: arity mismatch";
  let man = Bdd.create () in
  let ba = Miter.bdd_of_cover man a and bb = Miter.bdd_of_cover man b in
  let rec scan o =
    if o >= Array.length ba then None
    else
      let d = Bdd.xor man ba.(o) bb.(o) in
      if Bdd.is_false d then scan (o + 1)
      else begin
        let input = Array.make a.Sc_logic.Cover.ninputs false in
        List.iter (fun (v, bv) -> input.(v) <- bv) (Bdd.sat_one man d);
        Some (input, o)
      end
  in
  scan 0

let check_artwork cell ~inputs ~outputs circuit =
  let n = List.length inputs in
  if n > 12 then
    invalid_arg "Checker.check_artwork: more than 12 inputs to tabulate";
  let net = Sc_extract.Extractor.extract cell in
  let node = Sc_extract.Extractor.node_of net in
  let vdd = node "vdd" and gnd = node "gnd" in
  let man = Bdd.create () in
  let env = Miter.env_of_order man (List.map (fun nm -> (nm, 0)) inputs) in
  let circuit_outs = Miter.outputs env circuit in
  let nouts = List.length outputs in
  let on = Array.make nouts Bdd.zero in
  let undef = Array.make nouts Bdd.zero in
  for v = 0 to (1 lsl n) - 1 do
    let drive =
      List.mapi
        (fun i nm ->
          ( node nm
          , if v land (1 lsl i) <> 0 then Sc_extract.Switch.V1
            else Sc_extract.Switch.V0 ))
        inputs
    in
    let values = Sc_extract.Switch.simulate net ~vdd ~gnd ~inputs:drive in
    let minterm = ref Bdd.one in
    for i = 0 to n - 1 do
      let lit = Bdd.var man i in
      let lit = if v land (1 lsl i) <> 0 then lit else Bdd.not_ man lit in
      minterm := Bdd.and_ man !minterm lit
    done;
    List.iteri
      (fun oi oname ->
        match values.(node oname) with
        | Sc_extract.Switch.V1 -> on.(oi) <- Bdd.or_ man on.(oi) !minterm
        | Sc_extract.Switch.V0 -> ()
        | Sc_extract.Switch.VX -> undef.(oi) <- Bdd.or_ man undef.(oi) !minterm)
      outputs
  done;
  let circuit_bit oname =
    match List.assoc_opt oname circuit_outs with
    | Some bits when Array.length bits = 1 -> bits.(0)
    | Some _ ->
      invalid_arg ("Checker.check_artwork: output " ^ oname ^ " is not 1 bit")
    | None ->
      invalid_arg ("Checker.check_artwork: circuit lacks output " ^ oname)
  in
  let rec scan oi = function
    | [] -> Equivalent
    | oname :: rest ->
      let diff =
        Bdd.or_ man (Bdd.xor man on.(oi) (circuit_bit oname)) undef.(oi)
      in
      if Bdd.is_false diff then scan (oi + 1) rest
      else begin
        let assign = Hashtbl.create 8 in
        List.iter (fun (v, bv) -> Hashtbl.replace assign v bv) (Bdd.sat_one man diff);
        let frame =
          List.mapi
            (fun i nm ->
              (nm, if Option.value ~default:false (Hashtbl.find_opt assign i) then 1 else 0))
            inputs
        in
        Not_equivalent { frames = [ frame ]; output = oname; bit = 0; cycle = 0 }
      end
  in
  scan 0 outputs
