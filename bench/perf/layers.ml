(* The traced run: per-layer numbers for a workload.

   The workload's replay set is compiled in-process, calling each
   layer's public functions directly and timing a span around every
   call, so the compiler itself runs exactly as in the timed runs (its
   own recorder stays off).  The same specs also run through the
   untraced front door (Sc_core.Compiler, no stage cache), which gives
   the tracing overhead and the time no layer span covers.  Runs at
   -j 1, so Gc.counters deltas see every allocation a layer makes
   (separate compilation still spawns a domain per module; its
   allocation is not seen).

   A layer's [ms] is its self time per request: the sum over the replay
   set divided by its size, the median of [reps] repetitions. *)

module R = Sc_obs.Obs.Recorder
module C = Sc_core.Compiler
module Placer = Sc_place.Placer

type acc =
  { mutable ms : float
  ; mutable words : float
  }

type t =
  { recorder : R.t  (** the Chrome trace *)
  ; accs : (string, acc) Hashtbl.t  (** current repetition, by span *)
  }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span t name f =
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = R.span t.recorder name f in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let words = allocated_words () -. w0 in
  (match Hashtbl.find_opt t.accs name with
  | Some a ->
    a.ms <- a.ms +. ms;
    a.words <- a.words +. words
  | None -> Hashtbl.replace t.accs name { ms; words });
  r

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* what a traced compile leaves behind, measured after its spans close *)
type artifacts =
  { obs : Check.obs
  ; gates_out : int option
  ; cones : int option
  ; placement : Placer.placement option
  ; routed : Placer.routed_channels option
  ; boxes : Sc_layout.Flatten.flat_box list option
  }

(* the PLA block above a row of state registers, as the pla place pass
   builds it *)
let pla_layout pla (d : Sc_rtl.Ast.design) =
  let bits =
    List.fold_left (fun a (x : Sc_rtl.Ast.decl) -> a + x.width) 0 d.regs
  in
  if bits = 0 then pla.Sc_pla.Generator.layout
  else
    let dff = Sc_stdcell.Library.layout_of Sc_netlist.Gate.Dff in
    Sc_layout.Compose.above ~name:d.name ~sep:20
      (Sc_layout.Compose.row ~name:"state_row" (List.init bits (fun _ -> dff)))
      pla.Sc_pla.Generator.layout

let cif_obs ~gates ~flipflops ~area ~transistors ~drc cif =
  { Check.gates
  ; flipflops
  ; area
  ; transistors
  ; drc
  ; cif_bytes = String.length cif
  ; cif_digest = Some (Digest.string cif)
  ; qor = None
  }

(* one spec, layer by layer; separate compilation runs as one
   core.compile_modular span *)
let traced_compile t (s : Plan.spec) =
  if Sc_core.Chipdesc.is_modular s.source then
    let c, _ =
      span t "core.compile_modular" (fun () ->
          match C.compile_modular ~restarts:s.restarts s.source with
          | Ok r -> r
          | Error d -> failwith (Sc_pipeline.Diag.to_string d))
    in
    { obs =
        cif_obs ~gates:None ~flipflops:None ~area:c.C.area
          ~transistors:c.C.transistors ~drc:c.C.drc_violations c.C.cif
    ; gates_out = None
    ; cones = None
    ; placement = None
    ; routed = None
    ; boxes = None
    }
  else
    let design =
      if s.style = "verilog" then
        span t "verilog.elaborate" (fun () ->
            ok_or_fail (Sc_verilog.Elaborate.design_of_source s.source))
      else
        span t "rtl.parse" (fun () ->
            let d = ok_or_fail (Sc_rtl.Parser.parse s.source) in
            (match Sc_rtl.Check.check d with [] -> () | e :: _ -> failwith e);
            d)
    in
    let layout, circuit, gates_out, cones, placement, routed =
      if s.style = "pla" then
        let r, pla = span t "synth.pla" (fun () -> Sc_synth.Synth.pla_fsm design) in
        ( span t "place.to_layout" (fun () -> pla_layout pla design)
        , r.Sc_synth.Synth.circuit, None, None, None, None )
      else
        let raw = span t "synth.translate" (fun () -> Sc_synth.Synth.translate design) in
        let gates c = List.length (Sc_netlist.Circuit.flatten c).Sc_netlist.Circuit.gates in
        (* the optimize pass also counts gates before and after *)
        let r, gates_out =
          span t "synth.optimize" (fun () ->
              ignore (gates raw);
              let r = Sc_synth.Synth.optimize_result raw in
              (r, gates r.Sc_synth.Synth.circuit))
        in
        let circuit = r.Sc_synth.Synth.circuit in
        let cones =
          if s.certify then
            match
              (* k = 4: the pipeline's certificate bound *)
              span t "equiv.certify" (fun () ->
                  Sc_equiv.Checker.certify ~k:4 raw circuit)
            with
            | Ok c -> Some c.Sc_equiv.Checker.cert_cones
            | Error _ -> failwith (s.id ^ ": optimizer certificate refused")
          else None
        in
        let pl =
          span t "place.place" (fun () ->
              let p = Placer.problem_of_circuit circuit in
              if s.restarts <= 0 then Placer.ordered p
              else Placer.best_of ~seeds:s.restarts p)
        in
        let layout =
          span t "place.to_layout" (fun () ->
              Placer.to_layout ~name:circuit.Sc_netlist.Circuit.cname pl)
        in
        let routed =
          span t "route.channels" (fun () ->
              try Some (Placer.route_channels pl) with _ -> None)
        in
        (layout, circuit, Some gates_out, cones, Some pl, routed)
    in
    let boxes = span t "layout.flatten" (fun () -> Sc_layout.Flatten.run layout) in
    let drc =
      span t "drc.check_flat" (fun () ->
          List.length (Sc_drc.Checker.check_flat boxes))
    in
    let emitted = span t "cif.emit" (fun () -> Sc_cif.Emit.emit layout) in
    let transistors =
      span t "layout.transistor_count" (fun () ->
          Sc_layout.Stats.transistor_count layout)
    in
    ignore
      (span t "layout.flat_rect_count" (fun () ->
           Sc_layout.Cell.flat_rect_count layout));
    let st = Sc_netlist.Circuit.stats circuit in
    { obs =
        cif_obs ~gates:(Some st.Sc_netlist.Circuit.gate_total)
          ~flipflops:(Some st.Sc_netlist.Circuit.flipflops)
          ~area:(Sc_layout.Cell.area layout) ~transistors ~drc
          emitted.Sc_cif.Emit.text
    ; gates_out
    ; cones
    ; placement
    ; routed
    ; boxes = Some boxes
    }

(* the same compile through the untraced front door *)
let untraced (s : Plan.spec) =
  let r =
    Sc_pipeline.Pipeline.with_certify s.certify (fun () ->
        match s.style with
        | "verilog" -> C.compile_verilog ~restarts:s.restarts s.source
        | "pla" -> C.compile_behavior ~style:C.Pla_control ~restarts:s.restarts s.source
        | _ -> C.compile_behavior ~restarts:s.restarts s.source)
  in
  match r with
  | Ok _ -> ()
  | Error d -> failwith (s.id ^ ": " ^ Sc_pipeline.Diag.to_string d)

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.

let median_of reps f = Stat.median (List.init reps (fun _ -> f ()))

(* generated designs of increasing size: the scaling exponents *)
let ladder_params =
  List.map
    (fun (width, regs, ops) -> { Gen.width; regs; ops })
    [ (3, 1, 2); (6, 2, 3); (8, 4, 4); (12, 4, 4); (12, 8, 4) ]

let layout_of (d : Sc_rtl.Ast.design) =
  let r = Sc_synth.Synth.optimize_result (Sc_synth.Synth.translate d) in
  let c = r.Sc_synth.Synth.circuit in
  Placer.to_layout ~name:c.Sc_netlist.Circuit.cname
    (Placer.ordered (Placer.problem_of_circuit c))

(* log-log slopes of DRC and transistor-count time against flat boxes *)
let exponents ~reps designs =
  let points =
    List.map
      (fun d ->
        let layout = layout_of d in
        let boxes = Sc_layout.Flatten.run layout in
        let n = float_of_int (List.length boxes) in
        ( ( n
          , median_of reps (fun () ->
                time (fun () -> ignore (Sc_drc.Checker.check_flat boxes))) )
        , ( n
          , median_of reps (fun () ->
                time (fun () -> ignore (Sc_layout.Stats.transistor_count layout)))
          ) ))
      designs
  in
  (Stat.loglog_slope (List.map fst points), Stat.loglog_slope (List.map snd points))

(* all-hit rebuilds of [src] from the in-memory and the on-disk store,
   and the cost of capturing a metrics snapshot after one *)
let cache_probes ~reps ~dir src =
  let module P = Sc_pipeline.Pipeline in
  let compile () =
    match C.compile_behavior src with
    | Ok _ -> ()
    | Error d -> failwith (Sc_pipeline.Diag.to_string d)
  in
  P.enable_cache ~dir ();
  Fun.protect
    ~finally:(fun () ->
      P.clear_caches ();
      P.disable_cache ())
    (fun () ->
      compile ();
      let memory = median_of reps (fun () -> time compile) in
      let disk =
        median_of reps (fun () ->
            P.clear_caches ();
            time compile)
      in
      let capture =
        median_of reps (fun () ->
            let r = R.create () in
            R.enable r;
            Sc_obs.Obs.with_recorder r compile;
            R.disable r;
            time (fun () ->
                ignore (Sc_metrics.Metrics.capture ~recorder:r ~design:"probe" ())))
      in
      (memory, disk, capture))

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* [run env ~check ~specs ~ladder ~probe ~reps ~startup_reps ~trace_file]
   — the per-layer metrics of the replay set [specs], with the number
   of traced compiles and how many of them produced a wrong result *)
let run (env : Load.env) ~check ~specs ~ladder ~probe ~reps ~startup_reps
    ~trace_file =
  let m = Load.metric in
  let nspecs = float_of_int (List.length specs) in
  let startup =
    median_of startup_reps (fun () ->
        (Proc.run
           ~out:(Filename.concat env.Load.dir "version.txt")
           ~timeout:Load.request_timeout env.Load.scc [ "--version" ])
          .Proc.wall_s
        *. 1000.)
  in
  let t = { recorder = R.create (); accs = Hashtbl.create 32 } in
  R.enable t.recorder;
  (* the first pass fills lazy library state (cell layouts, memo tables)
     for both paths alike *)
  List.iter untraced specs;
  let failed = ref 0 in
  (* Each spec runs untraced and traced back to back, so the two see
     the same machine, in alternating order from one repetition to the
     next; each compile starts from a compacted heap, as in a fresh
     process, so neither pays for the garbage the other left. *)
  let reps_data =
    List.init reps (fun rep ->
        Hashtbl.reset t.accs;
        let untraced_ms = ref 0. and traced_ms = ref 0. in
        let arts =
          List.map
            (fun (s : Plan.spec) ->
              let plain () =
                Gc.compact ();
                untraced_ms := !untraced_ms +. time (fun () -> untraced s)
              in
              if rep mod 2 = 0 then plain ();
              Gc.compact ();
              let t0 = Unix.gettimeofday () in
              let a =
                R.span t.recorder ("compile " ^ s.id) (fun () -> traced_compile t s)
              in
              traced_ms := !traced_ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
              if rep mod 2 = 1 then plain ();
              if not (Check.observe check s a.obs) then incr failed;
              a)
            specs
        in
        let per_layer =
          Hashtbl.fold (fun name a l -> (name, (a.ms, a.words)) :: l) t.accs []
        in
        (!untraced_ms, !traced_ms, per_layer, arts))
  in
  R.write_trace t.recorder trace_file;
  let _, _, _, arts = List.hd reps_data in
  let names =
    List.sort_uniq compare
      (List.concat_map (fun (_, _, l, _) -> List.map fst l) reps_data)
  in
  let over_reps f = Stat.median (List.map f reps_data) in
  let span_ms =
    List.map
      (fun name ->
        m ~n:reps (name ^ ".ms") "ms"
          (over_reps (fun (_, _, l, _) ->
               match List.assoc_opt name l with
               | Some (ms, _) -> ms /. nspecs
               | None -> 0.)))
      names
  in
  let alloc =
    List.map
      (fun g ->
        m ~n:reps (g ^ ".alloc_mw") "Mwords"
          (over_reps (fun (_, _, l, _) ->
               List.fold_left
                 (fun a (name, (_, w)) -> if layer_of name = g then a +. w else a)
                 0. l
               /. nspecs /. 1e6)))
      (List.sort_uniq compare (List.map layer_of names))
  in
  (* the trace-validity figures compare the fastest repetition of each
     path: the least disturbed measure of the work itself *)
  let attributed (_, _, l, _) = List.fold_left (fun a (_, (ms, _)) -> a +. ms) 0. l in
  let traced (_, tr, _, _) = tr in
  let untraced = List.fold_left (fun a (u, _, _, _) -> min a u) infinity reps_data in
  let best =
    List.fold_left
      (fun b r -> if traced r < traced b then r else b)
      (List.hd reps_data) reps_data
  in
  let count name unit f =
    match List.filter_map f arts with
    | [] -> []
    | xs ->
      [ m ~n:(List.length xs) name unit (Stat.mean (List.map float_of_int xs)) ]
  in
  let j2 =
    let pool = Sc_par.Pool.create ~domains:2 () in
    Fun.protect
      ~finally:(fun () -> Sc_par.Pool.shutdown pool)
      (fun () ->
        median_of reps (fun () ->
            List.fold_left
              (fun a art ->
                match art.boxes with
                | Some boxes ->
                  a +. time (fun () -> ignore (Sc_drc.Checker.check_flat ~pool boxes))
                | None -> a)
              0. arts
            /. nspecs))
  in
  let drc_exp, tc_exp = exponents ~reps:(min reps 3) ladder in
  let memory, disk, capture =
    cache_probes ~reps ~dir:(Filename.concat env.Load.dir "cache-probe") probe
  in
  let npoints = List.length ladder in
  let metrics =
    [ m ~n:startup_reps "process.startup_ms" "ms" startup ]
    @ span_ms @ alloc
    @ count "synth.gates_out" "count" (fun a -> a.gates_out)
    @ count "equiv.certify.cones" "count" (fun a -> a.cones)
    @ count "place.hpwl" "lambda" (fun a -> Option.map Placer.hpwl a.placement)
    @ count "route.tracks" "count" (fun a ->
          Option.map
            (fun (r : Placer.routed_channels) ->
              List.fold_left
                (fun n (c : Sc_route.Channel.routed) -> n + c.tracks)
                0 r.channels)
            a.routed)
    @ count "layout.flat_boxes" "count" (fun a -> Option.map List.length a.boxes)
    @ count "drc.violations" "count" (fun a -> Some a.obs.Check.drc)
    @ count "cif.bytes" "bytes" (fun a -> Some a.obs.Check.cif_bytes)
    @ [ m ~n:reps "drc.check_flat_j2.ms" "ms" j2
      ; m ~n:npoints "drc.exponent" "slope" drc_exp
      ; m ~n:npoints "layout.transistor_count.exponent" "slope" tc_exp
      ; m ~n:reps "pipeline.hit_memory.ms" "ms" memory
      ; m ~n:reps "pipeline.hit_disk.ms" "ms" disk
      ; m ~n:reps "metrics.capture.ms" "ms" capture
      ; m ~n:reps "trace.unattributed_pct" "%" (100. *. (untraced -. attributed best) /. untraced)
      ; m ~n:reps "trace.overhead_pct" "%" (100. *. (traced best -. untraced) /. untraced)
      ]
  in
  (metrics, reps * List.length specs, !failed)
