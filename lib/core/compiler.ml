open Sc_layout
module Obs = Sc_obs.Obs
module P = Sc_pipeline.Pipeline
module Diag = Sc_pipeline.Diag

type behavior_style = Random_logic | Pla_control

type compiled =
  { layout : Cell.t
  ; cif : string
  ; drc_violations : int
  ; area : int
  ; transistors : int
  }

(* Routing the row channels is pure measurement on this artwork style
   (the rows stay at a fixed pitch): [Channel.route] computes each
   channel's track assignment and draws nothing, and only these three
   counts are kept.  It is a QoR source — route.tracks/height/channels —
   so it runs unconditionally; an unroutable channel is reported as "no
   summary", never an abort.  Any other exception is a bug and reaches
   the pass's Diag boundary. *)
type route_summary =
  { rchannels : int
  ; rtracks : int
  ; rheight : int
  }

let route_placement placement =
  match Sc_place.Placer.route_channels placement with
  | rc ->
    Some
      { rchannels = List.length rc.Sc_place.Placer.channels
      ; rtracks =
          List.fold_left
            (fun a (r : Sc_route.Channel.routed) -> a + r.tracks)
            0 rc.Sc_place.Placer.channels
      ; rheight = rc.Sc_place.Placer.total_height
      }
  | exception Sc_route.Channel.Unroutable _ -> None

(* --- the pass sequences ----------------------------------------------
   Every stage both compilation paths run is registered once with
   Sc_pipeline: the manager derives the span, the Diag boundary, the
   stage cache and the run log.  Key discipline (see pipeline.mli):
   same-named passes over different artifact types bake a "style=..."
   param at the call site; out-of-band knobs (restarts, entry, args)
   travel as params too, so editing one invalidates exactly the passes
   downstream of it. *)

let parse_pass : (string, Sc_rtl.Ast.design) P.pass =
  P.register ~name:"parse" Sc_rtl.Parser.design

let compile_gates_pass : (Sc_rtl.Ast.design, Sc_netlist.Circuit.t) P.pass =
  P.register ~name:"compile" (fun design ->
      Ok (Sc_synth.Synth.translate design))

type optimized =
  { oresult : Sc_synth.Synth.result
  ; gates_in : int
  ; gates_out : int
  }

(* Bound (in cycles) for per-pass translation certificates on
   sequential designs. *)
let certify_k = 4

let cert_of_circuits reference candidate =
  match Sc_equiv.Checker.certify ~k:certify_k reference candidate with
  | Ok c ->
    P.Certified
      { P.cert_cones = c.Sc_equiv.Checker.cert_cones
      ; cert_nodes = c.Sc_equiv.Checker.cert_nodes
      }
  | Error cex ->
    P.Refuted
      (Format.asprintf "@[<v>%a@]" Sc_equiv.Checker.pp_verdict
         (Sc_equiv.Checker.Not_equivalent cex))

(* the fault-injection knob rides in the value but is pinned by the
   run-site ~param, mirroring the restarts discipline on place; version
   2: the result no longer carries cell area and critical path; version
   3: certificates are cached under this pass's output key, and their
   node counts now come from one BDD manager instead of a sum over one
   manager per output port, so a cache written before must not replay *)
let optimize_pass : (Sc_netlist.Circuit.t * int option, optimized) P.pass =
  P.register ~name:"optimize" ~version:3
    ~replay:(fun _ o ->
      Obs.count "optimize.gates_in" o.gates_in;
      Obs.count "optimize.gates_out" o.gates_out;
      Sc_synth.Synth.replay_gauges o.oresult)
    ~certify:(fun (raw, _) o ->
      cert_of_circuits raw o.oresult.Sc_synth.Synth.circuit)
    (fun (raw, inject) ->
      let gates_in =
        List.length (Sc_netlist.Circuit.flatten raw).Sc_netlist.Circuit.gates
      in
      let r = Sc_synth.Synth.optimize_result ?inject raw in
      Ok
        { oresult = r
        ; gates_in
        ; gates_out =
            List.length
              (Sc_netlist.Circuit.flatten r.Sc_synth.Synth.circuit)
                .Sc_netlist.Circuit.gates
        })

type placed =
  { placement : Sc_place.Placer.placement
  ; playout : Cell.t
  }

(* the restarts knob rides in the value but is pinned by the run-site
   ~param (see the key discipline above), so a --restarts edit
   invalidates place and everything downstream, nothing upstream *)
let place_pass : (Sc_netlist.Circuit.t * string * int, placed) P.pass =
  P.register ~name:"place"
    ~replay:(fun _ p ->
      Obs.gauge "place.hpwl" (Sc_place.Placer.hpwl p.placement);
      Obs.gauge "place.rows" p.placement.Sc_place.Placer.nrows;
      Obs.gauge "place.cells"
        (Array.length p.placement.Sc_place.Placer.x))
    (fun (circuit, name, restarts) ->
      let problem = Sc_place.Placer.problem_of_circuit circuit in
      let pl =
        if restarts <= 0 then Sc_place.Placer.ordered problem
        else Sc_place.Placer.best_of ~seeds:restarts problem
      in
      Ok { placement = pl; playout = Sc_place.Placer.to_layout ~name pl })

let route_pass : (Sc_place.Placer.placement, route_summary option) P.pass =
  P.register ~name:"route"
    ~replay:(fun _ s ->
      match s with
      | None -> ()
      | Some s ->
        (* with zero channels the fresh path never reaches
           Channel.route, so no tracks/height counters exist to
           replay — emitting zeros here would make warm snapshots
           differ from cold ones *)
        if s.rchannels > 0 then begin
          Obs.count "route.tracks" s.rtracks;
          Obs.count "route.height" s.rheight
        end;
        Obs.count "route.channels" s.rchannels)
    (fun placement ->
      match route_placement placement with
      | Some s ->
        Obs.count "route.channels" s.rchannels;
        Ok (Some s)
      | None -> Ok None)

let drc_pass : (Cell.t, int) P.pass =
  P.register ~name:"drc"
    ~replay:(fun _ n -> Obs.count "drc.violations" n)
    (fun layout -> Ok (List.length (Sc_drc.Checker.check layout)))

(* version 2: calls named with "91" instead of flat promoted labels *)
let emit_pass : (Cell.t, Sc_cif.Emit.emitted) P.pass =
  P.register ~name:"emit" ~version:2
    ~replay:(fun _ e -> Sc_cif.Emit.replay_counters e)
    (fun layout -> Ok (Sc_cif.Emit.emit layout))

type measured =
  { marea : int
  ; mtransistors : int
  ; mcells : int
  ; mrects : int
  }

let measure_gauges m =
  Obs.gauge "area" m.marea;
  Obs.gauge "layout.transistors" m.mtransistors;
  Obs.gauge "layout.cells" m.mcells;
  Obs.gauge "layout.rects" m.mrects

let measure_pass : (Cell.t, measured) P.pass =
  P.register ~name:"measure"
    ~replay:(fun _ m -> measure_gauges m)
    (fun layout ->
      (* one walk: the transistor count is nearly all of it *)
      let s = Obs.span "measure.transistor_count" (fun () -> Stats.measure layout) in
      let m =
        { marea = s.bbox_area
        ; mtransistors = s.transistors
        ; mcells = s.cells
        ; mrects = s.rects
        }
      in
      measure_gauges m;
      Ok m)

type pla_compiled =
  { presult : Sc_synth.Synth.result
  ; pla : Sc_pla.Generator.t
  ; state_bits : int
  ; pname : string
  }

(* version 2: the result no longer carries cell area and critical path *)
let compile_pla_pass : (Sc_rtl.Ast.design, pla_compiled) P.pass =
  P.register ~name:"compile" ~version:2
    ~certify:(fun design pc ->
      (* the minimize sub-step is what needs a certificate: the realized
         (minimized) cover against the cover enumerated straight from
         the reference semantics *)
      let spec = Sc_synth.Synth.fsm_cover design in
      match
        Sc_equiv.Checker.check_covers spec pc.pla.Sc_pla.Generator.cover
      with
      | None ->
        P.Certified
          { P.cert_cones = spec.Sc_logic.Cover.noutputs; cert_nodes = 0 }
      | Some (input, o) ->
        P.Refuted
          (Printf.sprintf
             "minimized PLA cover differs from the enumerated FSM on output \
              %d under input %s"
             o
             (String.concat ""
                (List.rev_map
                   (fun b -> if b then "1" else "0")
                   (Array.to_list input)))))
    (fun design ->
      let r, pla = Sc_synth.Synth.pla_fsm design in
      Ok
        { presult = r
        ; pla
        ; state_bits =
            List.fold_left
              (fun a (d : Sc_rtl.Ast.decl) -> a + d.width)
              0 design.Sc_rtl.Ast.regs
        ; pname = design.Sc_rtl.Ast.name
        })

(* physical view: the PLA block above a row of state registers *)
let place_pla_pass : (pla_compiled, Cell.t) P.pass =
  P.register ~name:"place" (fun pc ->
      if pc.state_bits = 0 then Ok pc.pla.Sc_pla.Generator.layout
      else
        let dff = Sc_stdcell.Library.layout_of Sc_netlist.Gate.Dff in
        Ok
          (Compose.above ~name:pc.pname ~sep:20
             (Compose.row ~name:"state_row"
                (List.init pc.state_bits (fun _ -> dff)))
             pc.pla.Sc_pla.Generator.layout))

let elaborate_pass : (string * (string option * int list), Cell.t) P.pass =
  P.register ~name:"elaborate" (fun (src, (entry, args)) ->
      Sc_lang.Lang.compile ?entry ~args src)

let parse_verilog_pass : (string, Sc_rtl.Ast.design) P.pass =
  P.register ~name:"verilog.parse" Sc_verilog.Elaborate.design

(* --- drivers --- *)

let ( let* ) = Result.bind

(* the back half shared by every path: layout -> drc / cif / stats *)
let finish_layout layout_staged =
  let* drc = P.run drc_pass layout_staged in
  let* emitted = P.run emit_pass layout_staged in
  let* m = P.run measure_pass layout_staged in
  let mv = P.value m in
  Ok
    { layout = P.value layout_staged
    ; cif = (P.value emitted).Sc_cif.Emit.text
    ; drc_violations = P.value drc
    ; area = mv.marea
    ; transistors = mv.mtransistors
    }

(* the standard-cell middle shared by both behavioral frontends: the
   ISP and Verilog parse passes produce the same design IR, so
   compile → optimize → place → route run identically (and share cache
   keys through the staged input's digest) *)
let gates_path ~restarts ?inject design =
  let* raw = P.run ~param:"style=gates" compile_gates_pass design in
  let* opt =
    P.run
      ~param:
        (match inject with
        | None -> ""
        | Some i -> Printf.sprintf "inject=%d" i)
      optimize_pass
      (P.map (fun c -> (c, inject)) raw)
  in
  let circuit = (P.value opt).oresult.Sc_synth.Synth.circuit in
  let* placed =
    P.run
      ~param:(Printf.sprintf "style=gates;restarts=%d" restarts)
      place_pass
      (P.map
         (fun o ->
           let c = o.oresult.Sc_synth.Synth.circuit in
           (c, c.Sc_netlist.Circuit.cname, restarts))
         opt)
  in
  let* _route = P.run route_pass (P.map (fun p -> p.placement) placed) in
  Ok (P.map (fun p -> p.playout) placed, circuit)

(* The behavioral body of flat ISP, Verilog and every module of a chip:
   a frontend pass to the design IR, the standard-cell (or PLA) middle,
   then drc/emit/measure.  Also returns the staged layout's key, which
   the chip assembly is keyed on. *)
let behavioral frontend ?(style = Random_logic) ~restarts ?inject src =
  let* design = P.run frontend (P.source src) in
  let* layout_staged, circuit =
    match style with
    | Random_logic -> gates_path ~restarts ?inject design
    | Pla_control ->
      let* pc = P.run ~param:"style=pla" compile_pla_pass design in
      let circuit = (P.value pc).presult.Sc_synth.Synth.circuit in
      let* layout = P.run ~param:"style=pla" place_pla_pass pc in
      Ok (layout, circuit)
  in
  let* c = finish_layout layout_staged in
  Ok (c, circuit, P.key layout_staged)

let without_key r = Result.map (fun (c, circuit, _) -> (c, circuit)) r

let compile_verilog ?(restarts = 0) ?inject_fault src =
  without_key (behavioral parse_verilog_pass ~restarts ?inject:inject_fault src)

let compile_layout ?entry ?(args = []) src =
  let param =
    Printf.sprintf "entry=%s;args=%s"
      (Option.value ~default:"" entry)
      (String.concat "," (List.map string_of_int args))
  in
  let* layout =
    P.run ~param elaborate_pass
      (P.map (fun s -> (s, (entry, args))) (P.source src))
  in
  finish_layout layout

(* --- modular compilation ----------------------------------------------
   A source with a [chip] block compiles at module granularity: each
   module block runs the behavioral body keyed on that block's raw
   text, in file order in the caller, each with its own Obs recorder
   and run journal; the chip is resolved once against the modules'
   signatures, then assembles the per-module layouts into a macro row
   with a routed channel (Sc_chip.Assemble.pack) inside a pad frame,
   and whole-chip drc/emit/measure finish the job.  Editing one module
   invalidates exactly that module's stage keys plus the assembly. *)

type module_compiled =
  { mc_name : string
  ; mc_sig : Sc_netlist.Signature.t
  ; mc_circuit : Sc_netlist.Circuit.t  (** optimized *)
  ; mc_layout : Cell.t
  ; mc_key : string  (** staged key of the module layout *)
  }

(* A fresh recorder isolates the module's QoR gauges (modules would
   clobber each other's last-write gauges in a shared recorder) and
   [with_log] its --explain rows; both merge into the caller's as soon
   as the module finishes, rows prefixed "NAME:" and gauges
   "module.NAME.". *)
let run_module ~restarts (m : Chipdesc.source_module) =
  let enabled = Obs.enabled () in
  let rec_ = Obs.Recorder.create () in
  if enabled then Obs.Recorder.enable rec_;
  let r, log =
    Obs.span "module" @@ fun () ->
    Obs.with_recorder rec_ @@ fun () ->
    P.with_log @@ fun () -> behavioral parse_pass ~restarts m.sm_text
  in
  P.append_log (List.map (fun (n, st) -> (m.sm_name ^ ":" ^ n, st)) log);
  if enabled then
    List.iter
      (fun (k, v) ->
        if Sc_metrics.Metrics.is_runtime_key k then Obs.count k v
        else Obs.gauge ("module." ^ m.sm_name ^ "." ^ k) v)
      (Obs.Recorder.totals rec_);
  match r with
  | Ok (c, circuit, key) ->
    Ok
      { mc_name = circuit.Sc_netlist.Circuit.cname
      ; mc_sig = Sc_netlist.Signature.of_circuit circuit
      ; mc_circuit = circuit
      ; mc_layout = c.layout
      ; mc_key = key
      }
  | Error d ->
    Error
      (Chipdesc.in_source ~first:m.sm_line
         { d with Diag.stage = "module:" ^ d.Diag.stage })

(* --- the assembly pass --- *)

type assembled =
  { aframed : Cell.t
  ; acore_area : int
  ; amacros : int
  ; arow_width : int
  ; arow_height : int
  ; atracks : int
  ; achannel_height : int
  ; atrunk : int
  ; apads : int
  }

let assembly_gauges a =
  Obs.gauge "assembly.macros" a.amacros;
  Obs.gauge "assembly.row_width" a.arow_width;
  Obs.gauge "assembly.row_height" a.arow_height;
  Obs.gauge "assembly.channel_tracks" a.atracks;
  Obs.gauge "assembly.channel_height" a.achannel_height;
  Obs.gauge "assembly.trunk_length" a.atrunk;
  Obs.gauge "assembly.core_area" a.acore_area;
  Obs.gauge "assembly.pads" a.apads

(* the bit-level pin names of a port *)
let port_bits name ~width =
  List.init width (fun k -> Chipdesc.bit_name (Chipdesc.Cport name) ~width k)

let pin_name (b : Chipdesc.bit) =
  Chipdesc.bit_name b.b_end ~width:b.b_width b.b_idx

(* the chip's nets come resolved: every instance's module is compiled
   and every endpoint exists with the width its bit carries *)
let assemble_pass :
    ( Chipdesc.chip_decl * module_compiled list * Chipdesc.chip_net list
    , assembled )
    P.pass =
  P.register ~name:"assemble"
    ~replay:(fun _ a ->
      Obs.count "route.tracks" a.atracks;
      Obs.count "route.height" a.achannel_height;
      assembly_gauges a)
    (fun (chip, mods, nets) ->
      (* one copy of each library cell, whichever process built a
         module's layout: the CIF then matches a cold compile's *)
      let mods =
        List.map
          (fun mc ->
            { mc with mc_layout = Sc_stdcell.Library.intern mc.mc_layout })
          mods
      in
      let macros =
        List.map
          (fun (i : Chipdesc.instance) ->
            let mc = List.find (fun mc -> mc.mc_name = i.ci_module) mods in
            { Sc_chip.Assemble.mi_name = i.ci_name
            ; mi_pins =
                List.concat_map
                  (fun (p : Sc_netlist.Signature.port_sig) ->
                    port_bits p.sname ~width:p.swidth)
                  mc.mc_sig.Sc_netlist.Signature.sports
            ; mi_cell = mc.mc_layout
            })
          chip.Chipdesc.ch_insts
      in
      let chip_ports =
        List.concat_map
          (fun (d : Chipdesc.port_decl) ->
            port_bits d.pd_name ~width:d.pd_width)
          (chip.Chipdesc.ch_inputs @ chip.Chipdesc.ch_outputs)
      in
      let endpoint (b : Chipdesc.bit) =
        match b.b_end with
        | Chipdesc.Cport _ -> Sc_chip.Assemble.Chip (pin_name b)
        | Chipdesc.Ipin (i, _) -> Sc_chip.Assemble.Pin (i, pin_name b)
      in
      let anets =
        List.map
          (fun (n : Chipdesc.chip_net) ->
            { Sc_chip.Assemble.net_name = pin_name n.cn_src
            ; ends = List.map endpoint (n.cn_src :: n.cn_sinks)
            })
          nets
      in
      let packed =
        Sc_chip.Assemble.pack ~name:(chip.Chipdesc.ch_name ^ "_core") ~macros
          ~chip_ports ~nets:anets ()
      in
      let pads = max 4 (List.length chip_ports) in
      let framed =
        Sc_chip.Assemble.assemble ~name:chip.Chipdesc.ch_name
          ~core:packed.Sc_chip.Assemble.core ~pads ()
      in
      let a =
        { aframed = framed.Sc_chip.Assemble.chip
        ; acore_area = framed.Sc_chip.Assemble.core_area
        ; amacros = packed.Sc_chip.Assemble.macro_count
        ; arow_width = packed.Sc_chip.Assemble.row_width
        ; arow_height = packed.Sc_chip.Assemble.row_height
        ; atracks = packed.Sc_chip.Assemble.channel_tracks
        ; achannel_height = packed.Sc_chip.Assemble.channel_height
        ; atrunk = packed.Sc_chip.Assemble.trunk_length
        ; apads = framed.Sc_chip.Assemble.pads
        }
      in
      assembly_gauges a;
      Ok a)

(* --- stitching: the whole-chip hierarchical circuit --- *)

let stitch chip mods nets =
  let module C = Chipdesc in
  let module B = Sc_netlist.Builder in
  let b = B.create chip.C.ch_name in
  let source_nets : (C.endpoint * int, Sc_netlist.Circuit.net) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (d : C.port_decl) ->
      let v = B.input b d.pd_name d.pd_width in
      Array.iteri (fun k n -> Hashtbl.add source_nets (C.Cport d.pd_name, k) n) v)
    chip.C.ch_inputs;
  let mod_of name = List.find (fun mc -> mc.mc_name = name) mods in
  List.iter
    (fun (i : C.instance) ->
      let mc = mod_of i.ci_module in
      List.iter
        (fun (p : Sc_netlist.Circuit.port) ->
          if p.dir = Sc_netlist.Circuit.Out then begin
            let v = B.fresh_vec b (Array.length p.bits) in
            Array.iteri
              (fun k n ->
                Hashtbl.add source_nets (C.Ipin (i.ci_name, p.port_name), k) n)
              v
          end)
        mc.mc_circuit.Sc_netlist.Circuit.ports)
    chip.C.ch_insts;
  (* sink bit -> the net of its driving source bit *)
  let sink_nets : (C.endpoint * int, Sc_netlist.Circuit.net) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (n : C.chip_net) ->
      let src = Hashtbl.find source_nets (n.cn_src.C.b_end, n.cn_src.C.b_idx) in
      List.iter
        (fun (s : C.bit) -> Hashtbl.add sink_nets (s.C.b_end, s.C.b_idx) src)
        n.cn_sinks)
    nets;
  List.iter
    (fun (i : C.instance) ->
      let mc = mod_of i.ci_module in
      let conns =
        List.map
          (fun (p : Sc_netlist.Circuit.port) ->
            let w = Array.length p.bits in
            let arr =
              match p.dir with
              | Sc_netlist.Circuit.In ->
                Array.init w (fun k ->
                    Hashtbl.find sink_nets (C.Ipin (i.ci_name, p.port_name), k))
              | Sc_netlist.Circuit.Out ->
                Array.init w (fun k ->
                    Hashtbl.find source_nets (C.Ipin (i.ci_name, p.port_name), k))
            in
            (p.port_name, arr))
          mc.mc_circuit.Sc_netlist.Circuit.ports
      in
      B.inst b ~name:i.ci_name mc.mc_circuit conns)
    chip.C.ch_insts;
  List.iter
    (fun (d : C.port_decl) ->
      B.output b d.pd_name
        (Array.init d.pd_width (fun k ->
             Hashtbl.find sink_nets (C.Cport d.pd_name, k))))
    chip.C.ch_outputs;
  B.finish b

(* --- the modular driver --- *)

let compile_modular ?(restarts = 0) src =
  let* { Chipdesc.modules; chip } = Chipdesc.split src in
  match chip with
  | None -> Error (Diag.v ~stage:"chip" "modular source has no chip block")
  | Some chip ->
    (* compile each instantiated module once, in file order *)
    let used =
      List.filter
        (fun (m : Chipdesc.source_module) ->
          List.exists
            (fun (i : Chipdesc.instance) -> i.ci_module = m.sm_name)
            chip.Chipdesc.ch_insts)
        modules
    in
    if Obs.enabled () then Obs.gauge "modular.modules" (List.length used);
    let* mods =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* mc = run_module ~restarts m in
          Ok (mc :: acc))
        (Ok []) used
    in
    let mods = List.rev mods in
    let* nets =
      Chipdesc.resolve chip ~sigs:(fun n ->
          List.find_opt (fun mc -> mc.mc_name = n) mods
          |> Option.map (fun mc -> mc.mc_sig))
    in
    (* the nets are a function of the chip declaration and the
       signatures, both in the key *)
    let staged =
      P.inject ~tag:"assembly"
        ~repr:
          (Chipdesc.decl_repr chip ^ "\x00"
          ^ String.concat ";"
              (List.map
                 (fun mc ->
                   Printf.sprintf "%s=%s:%s" mc.mc_name mc.mc_key
                     (Sc_netlist.Signature.digest mc.mc_sig))
                 mods)
          ^ Printf.sprintf "\x00restarts=%d" restarts)
        (chip, mods, nets)
    in
    let* assembled = P.run assemble_pass staged in
    let* c = finish_layout (P.map (fun a -> a.aframed) assembled) in
    Ok (c, stitch chip mods nets)

(* the behavioral front door dispatches on the source: a [chip] block
   means separate compilation, anything else takes the flat path *)
let compile_behavior ?(style = Random_logic) ?(restarts = 0) ?inject_fault src =
  if not (Chipdesc.is_modular src) then
    without_key
      (behavioral parse_pass ~style ~restarts ?inject:inject_fault src)
  else
    match (style, inject_fault) with
    | Pla_control, _ ->
      Error
        (Diag.v ~stage:"chip"
           "modular designs use the gates style (no --style pla)")
    | _, Some _ ->
      Error
        (Diag.v ~stage:"chip"
           "modular designs take no fault injection (no --inject-fault)")
    | Random_logic, None -> compile_modular ~restarts src

(* --- the compile request: every driver's one way in --- *)

type kind = Isp | Verilog | Layout

type request =
  { kind : kind
  ; source : string
  ; style : behavior_style option
  ; restarts : int
  ; certify : bool
  ; inject_fault : int option
  ; entry : string option
  ; args : int list
  }

let request kind source =
  { kind; source; style = None; restarts = 0; certify = false
  ; inject_fault = None; entry = None; args = []
  }

let kind_name = function
  | Isp -> "ISP"
  | Verilog -> "Verilog"
  | Layout -> "layout-language"

(* a flag set where it does not apply, named as the command line spells
   it; then a layout-language entry the program cannot run *)
let validate r =
  let off kinds =
    if List.mem r.kind kinds then None else Some (kind_name r.kind ^ " sources")
  in
  (* the PLA path has no placement restarts and no optimize pass to fault *)
  let placed =
    if r.style = Some Pla_control then Some "--style pla"
    else off [ Isp; Verilog ]
  in
  match
    List.find_map
      (fun (flag, given, where) ->
        match where with
        | Some w when given -> Some (flag ^ " does not apply to " ^ w)
        | _ -> None)
      [ ("--style", r.style <> None, off [ Isp ])
      ; ("--entry", r.entry <> None, off [ Layout ])
      ; ("--args", r.args <> [], off [ Layout ])
      ; ("--restarts", r.restarts <> 0, placed)
      ; ("--inject-fault", r.inject_fault <> None, placed)
      ]
  with
  | Some msg -> Error (Diag.v ~stage:"request" msg)
  | None when r.kind = Layout ->
    Option.fold ~none:(Ok ()) ~some:Result.error
      (Sc_lang.Lang.entry_error ?entry:r.entry ~args:r.args r.source)
  | None -> Ok ()

(* a request holds no closure and no mutable or shared part, so its
   unshared marshalling is a canonical encoding *)
let digest (r : request) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

type outcome =
  { result : (compiled * Sc_netlist.Circuit.t option, Diag.t) result
  ; journal : (string * P.status) list
  }

let run r =
  match validate r with
  | Error d -> { result = Error d; journal = [] }
  | Ok () ->
    let result, journal =
      P.with_certify r.certify @@ fun () ->
      P.with_log @@ fun () ->
      let restarts = r.restarts and inject_fault = r.inject_fault in
      let with_circuit = Result.map (fun (c, circuit) -> (c, Some circuit)) in
      match r.kind with
      | Layout ->
        Result.map
          (fun c -> (c, None))
          (compile_layout ?entry:r.entry ~args:r.args r.source)
      | Isp ->
        with_circuit
          (compile_behavior ?style:r.style ~restarts ?inject_fault r.source)
      | Verilog ->
        with_circuit (compile_verilog ~restarts ?inject_fault r.source)
    in
    { result; journal }
