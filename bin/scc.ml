(* scc — the silicon compiler command line.

   Subcommands:
     scc compile SRC    compile a textual description to layout: a
                        builtin design or ISP file, a Verilog module
                        (.v) or a layout-language program (.lsl)
     scc isp SRC        alias of compile
     scc verilog SRC    alias of compile
     scc drc FILE       design-rule-check a CIF file
     scc stats FILE     report area/device statistics of a CIF file
     scc sim FILE       interpret an ISP description with a trivial stimulus
     scc extract FILE   extract the transistor circuit from CIF geometry
     scc svg FILE       render CIF artwork as SVG
     scc equiv A B      prove two circuits equivalent (BDD engine)
     scc report FILE    render a metrics snapshot as a human table
     scc diff BASE CUR  classify metric deltas against a baseline;
                        exit 1 on a QoR regression
     scc serve          run the compile daemon
     scc client VERB    talk to a running daemon

   compile prints a netlist/cell summary on stderr and writes CIF only
   with -o.  It takes --stats (per-stage time/counter table on stdout,
   from the Sc_obs spans), --trace FILE (Chrome trace-event JSON for
   chrome://tracing or ui.perfetto.dev), --metrics FILE (versioned QoR +
   runtime snapshot JSON, the input of report/diff), --stage-cache DIR
   (persist every pass artifact of the Sc_pipeline pass manager, so
   recompiles are incremental) and --explain (print which passes ran vs
   hit the cache).  On a .lsl source --verify certifies the primitive
   cell artwork (extracted and exhaustively tabulated at switch level)
   against its gate specification. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_out output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)

let report_compiled (c : Sc_core.Compiler.compiled) =
  Printf.eprintf "cell %s: %dx%d lambda, %d transistors, DRC %s\n%!"
    c.Sc_core.Compiler.layout.Sc_layout.Cell.name
    (Sc_layout.Cell.width c.Sc_core.Compiler.layout)
    (Sc_layout.Cell.height c.Sc_core.Compiler.layout)
    c.Sc_core.Compiler.transistors
    (if c.Sc_core.Compiler.drc_violations = 0 then "clean"
     else string_of_int c.Sc_core.Compiler.drc_violations ^ " violations")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input file.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write CIF to $(docv).")

(* --- parallelism / caching --- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel stages (DRC sharding, \
           placement restarts, equivalence cones).  1 (the default) is \
           strictly sequential; output is byte-identical at every level.")

(* sizes the process-default pool before running [k] *)
let with_jobs jobs k =
  Sc_par.Pool.set_default_size jobs;
  k ()

let stage_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stage-cache" ] ~docv:"DIR"
        ~doc:
          "Persist every pass's artifact content-addressed under \
           $(docv).  Identical inputs are stage-level hits, even \
           across processes: recompiling after a $(b,--restarts) \
           change reruns only place and later passes, and an \
           unchanged source reruns nothing.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "After compiling, print one line per pass saying whether it \
           ran or was served from the stage cache (memory or disk).")

let restarts_arg =
  Arg.(
    value & opt int 0
    & info [ "restarts" ] ~docv:"N"
        ~doc:
          "Extra random-start placements refined concurrently (best \
           HPWL wins; 0 = constructive placement only).")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Translation-validate the compilation: every \
           netlist-to-netlist pass (the optimizer, the PLA minimizer) \
           must prove its output equivalent to its own input with the \
           BDD engine before the pipeline continues.  A refused pass \
           exits 1 naming the pass; proofs are recorded in the metrics \
           snapshot (equiv.certified_passes) and cached in the stage \
           cache, so certified warm rebuilds stay all-hit.")

let inject_fault_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject-fault" ] ~docv:"I"
        ~doc:
          "Deliberately miscompile: flip the first mutable gate at or \
           after index $(docv) of the optimized netlist before it \
           leaves the optimize pass (fault-injection demo — with \
           $(b,--certify) the pipeline must refuse it).")

(* enable the pipeline store (when asked), run certified (when asked),
   then print the per-pass outcomes (--explain) and cache stats to
   stderr *)
let with_pipeline ~stage_cache ~explain ~certify k =
  Option.iter (fun dir -> Sc_pipeline.Pipeline.enable_cache ~dir ()) stage_cache;
  let r, log =
    Sc_pipeline.Pipeline.with_certify certify (fun () ->
        Sc_pipeline.Pipeline.with_log k)
  in
  if explain then
    Format.eprintf "%a%!" Sc_pipeline.Pipeline.pp_explain log;
  if stage_cache <> None then
    List.iter
      (fun (name, s) ->
        Printf.eprintf "cache %s: %s\n%!" name
          (Format.asprintf "%a" Sc_cache.Cache.pp_stats s))
      (Sc_pipeline.Pipeline.cache_stats ());
  r

let report_diag d =
  Printf.eprintf "error: %s\n" (Sc_pipeline.Diag.to_string d);
  1

(* --- observability: --stats / --trace / --metrics --- *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print a per-stage timing and counter table after compiling.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write Chrome trace-event JSON to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable QoR + runtime snapshot (versioned \
           JSON) to $(docv); render it with $(b,scc report), compare \
           against a baseline with $(b,scc diff).")

(* [instrumented ~stats ~trace ~metrics ~design k] runs [k] under a
   recorder that is enabled when any sink was requested.  The sinks are
   written even when [k] fails, so a crashing compile still leaves its
   partial telemetry behind. *)
let instrumented ~stats ~trace ~metrics ~design k =
  let r = Sc_obs.Obs.Recorder.create () in
  if stats || trace <> None || metrics <> None then
    Sc_obs.Obs.Recorder.enable r;
  let finish () =
    Sc_obs.Obs.Recorder.disable r;
    if stats then Format.printf "%a@?" Sc_obs.Obs.Recorder.pp_summary r;
    Option.iter
      (fun path ->
        Sc_obs.Obs.Recorder.write_trace r path;
        Printf.eprintf "trace written to %s\n%!" path)
      trace;
    Option.iter
      (fun path ->
        Sc_metrics.Metrics.write path
          (Sc_metrics.Metrics.capture ~recorder:r ~design ());
        Printf.eprintf "metrics written to %s\n%!" path)
      metrics
  in
  match Sc_obs.Obs.with_recorder r k with
  | code ->
    finish ();
    code
  | exception e ->
    finish ();
    raise e

let design_of_path path = Filename.remove_extension (Filename.basename path)

(* certify the primitive cell library: extract each cell's masks,
   tabulate the transistor netlist at switch level, and prove the result
   equal to the gate the library claims the cell implements *)
let verify_cell_library () =
  let gate_ref name kind ins =
    let b = Sc_netlist.Builder.create name in
    let nets = List.map (fun n -> (Sc_netlist.Builder.input b n 1).(0)) ins in
    Sc_netlist.Builder.output b "y"
      [| Sc_netlist.Builder.gate b kind (Array.of_list nets) |];
    Sc_netlist.Builder.finish b
  in
  let bad =
    List.fold_left
      (fun bad (name, cell, kind, ins) ->
        match
          Sc_equiv.Checker.check_artwork cell ~inputs:ins ~outputs:[ "y" ]
            (gate_ref name kind ins)
        with
        | Sc_equiv.Checker.Equivalent ->
          Printf.eprintf "verify: artwork %-6s equivalent to its gate\n%!" name;
          bad
        | Sc_equiv.Checker.Not_equivalent _ as v ->
          Printf.eprintf "verify: artwork %s FAILED: %s\n%!" name
            (Format.asprintf "%a" Sc_equiv.Checker.pp_verdict v);
          bad + 1)
      0
      [ ("inv", Sc_stdcell.Nmos.inv (), Sc_netlist.Gate.Inv, [ "a" ])
      ; ("nand2", Sc_stdcell.Nmos.nand 2, Sc_netlist.Gate.Nand2, [ "a"; "b" ])
      ; ("nand3", Sc_stdcell.Nmos.nand 3, Sc_netlist.Gate.Nand3, [ "a"; "b"; "c" ])
      ; ("nor2", Sc_stdcell.Nmos.nor2 (), Sc_netlist.Gate.Nor2, [ "a"; "b" ])
      ]
  in
  (* and the full library's artwork passes DRC (memoized per geometry) *)
  List.fold_left
    (fun bad kind ->
      if Sc_stdcell.Library.drc_clean kind then bad
      else begin
        Printf.eprintf "verify: cell %s FAILED DRC: %d violations\n%!"
          (Sc_netlist.Gate.to_string kind)
          (Sc_stdcell.Library.drc_violations kind);
        bad + 1
      end)
    bad Sc_netlist.Gate.all

(* --- compile: one front door for every textual description --- *)

type kind = Isp | Verilog | Layout

let kind_name = function
  | Isp -> "ISP"
  | Verilog -> "Verilog"
  | Layout -> "layout-language"

(* A builtin design name or any file is ISP unless its suffix names
   another language.  Shared by compile and the client verbs. *)
let resolve_source src =
  match Sc_core.Designs.builtin src with
  | Some text -> Ok (Isp, text)
  | None when Sys.file_exists src ->
    let kind =
      if Filename.check_suffix src ".v" then Verilog
      else if Filename.check_suffix src ".lsl" then Layout
      else Isp
    in
    Ok (kind, read_file src)
  | None -> Error (src ^ " is neither a builtin design nor a file")

let usage_error msg =
  Printf.eprintf "error: %s\n" msg;
  2

let src_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SRC"
        ~doc:
          "A builtin design ($(b,counter), $(b,traffic), $(b,alu4), \
           $(b,gray), $(b,seqdet), $(b,pdp8), $(b,pdp8_dp), \
           $(b,system)), a Verilog file ($(b,*.v)), a layout-language \
           file ($(b,*.lsl)), or any other file as ISP.")

let style_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("gates", Sc_core.Compiler.Random_logic)
              ; ("pla", Sc_core.Compiler.Pla_control)
              ]))
        None
    & info [ "s"; "style" ] ~docv:"STYLE"
        ~doc:
          "ISP control style: $(b,gates) (random logic, the default) or \
           $(b,pla).")

let dump_isp_arg =
  Arg.(
    value & flag
    & info [ "dump-isp" ]
        ~doc:
          "Print the elaborated Verilog design in the ISP-level IR \
           instead of compiling (shows exactly what the shared pipeline \
           will see).")

let entry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "entry" ] ~docv:"CELL"
        ~doc:"Layout-language entry cell (default: last defined).")

let args_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "a"; "args" ] ~docv:"INTS" ~doc:"Layout-language entry cell arguments.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "With a layout-language source, prove the primitive cells' \
           extracted artwork equal to their gates with the BDD engine.")

let compile_run src output style dump_isp entry args verify stats trace metrics
    jobs stage_cache explain restarts certify inject_fault =
  match resolve_source src with
  | Error e -> usage_error e
  | Ok (kind, text) -> (
    (* flags that apply to some source kinds only *)
    let misapplied =
      List.find_opt
        (fun (_, given, kinds) -> given && not (List.mem kind kinds))
        [ ("--style", style <> None, [ Isp ])
        ; ("--dump-isp", dump_isp, [ Verilog ])
        ; ("--entry", entry <> None, [ Layout ])
        ; ("--args", args <> [], [ Layout ])
        ; ("--verify", verify, [ Layout ])
        ; ("--restarts", restarts <> 0, [ Isp; Verilog ])
        ; ("--inject-fault", inject_fault <> None, [ Isp; Verilog ])
        ]
    in
    match misapplied with
    | Some (flag, _, _) ->
      usage_error
        (Printf.sprintf "%s does not apply to %s sources" flag (kind_name kind))
    | None when dump_isp -> (
      match Sc_core.Compiler.verilog_design text with
      | Error d -> report_diag d
      | Ok design ->
        Format.printf "%a@." Sc_rtl.Ast.pp design;
        0)
    | None -> (
      with_jobs jobs @@ fun () ->
      with_pipeline ~stage_cache ~explain ~certify @@ fun () ->
      instrumented ~stats ~trace ~metrics ~design:(design_of_path src)
      @@ fun () ->
      let with_circuit = Result.map (fun (c, circuit) -> (c, Some circuit)) in
      let compiled =
        match kind with
        | Isp ->
          with_circuit
            (Sc_core.Compiler.compile_behavior ?style ~restarts ?inject_fault
               text)
        | Verilog ->
          with_circuit
            (Sc_core.Compiler.compile_verilog ~restarts ?inject_fault text)
        | Layout ->
          Result.map
            (fun c -> (c, None))
            (Sc_core.Compiler.compile_layout ?entry ~args text)
      in
      match compiled with
      | Error d -> report_diag d
      | Ok (c, circuit) ->
        Option.iter
          (fun circuit ->
            let s = Sc_netlist.Circuit.stats circuit in
            Printf.eprintf "netlist: %d gates, %d flip-flops\n%!"
              s.Sc_netlist.Circuit.gate_total s.Sc_netlist.Circuit.flipflops)
          circuit;
        report_compiled c;
        if output <> None then write_out output c.Sc_core.Compiler.cif;
        if verify && verify_cell_library () > 0 then 1 else 0))

let compile_term =
  Term.(
    const compile_run $ src_arg $ output_arg $ style_arg $ dump_isp_arg
    $ entry_arg $ args_arg $ verify_arg $ stats_arg $ trace_arg $ metrics_arg
    $ jobs_arg $ stage_cache_arg $ explain_arg $ restarts_arg $ certify_arg
    $ inject_fault_arg)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a textual description to layout: ISP (a builtin design \
          or a file) and Verilog ($(b,*.v), the subset in \
          docs/VERILOG.md) through synthesis, placement and routing; a \
          layout-language program ($(b,*.lsl)) straight to artwork.  \
          Prints a summary on stderr and writes CIF only with $(b,-o); \
          see $(b,--stats)/$(b,--trace) for where the time and area go.")
    compile_term

(* the names compile had before it was one command; scripts still use them *)
let alias name =
  Cmd.v (Cmd.info name ~doc:"Alias of $(b,compile).") compile_term

(* --- drc / stats on CIF files --- *)

let with_cif file k =
  match Sc_cif.Elaborate.of_string (read_file file) with
  | Error e ->
    Printf.eprintf "error: %s\n" (Sc_cif.Elaborate.error_to_string e);
    1
  | Ok cell -> k cell

let drc_cmd =
  let run file jobs =
    with_jobs jobs @@ fun () ->
    with_cif file (fun cell ->
        let vs = Sc_drc.Checker.check cell in
        Sc_drc.Checker.report Format.std_formatter vs;
        if vs = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "drc" ~doc:"Design-rule-check a CIF file.")
    Term.(const run $ file_arg $ jobs_arg)

let stats_cmd =
  let run file =
    with_cif file (fun cell ->
        Format.printf "%a@." Sc_layout.Stats.pp (Sc_layout.Stats.measure cell);
        0)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Report area and device statistics of a CIF file.")
    Term.(const run $ file_arg)

(* --- extract --- *)

let extract_cmd =
  let run file =
    with_cif file (fun cell ->
        let net = Sc_extract.Extractor.extract cell in
        Format.printf "%a@." Sc_extract.Extractor.pp net;
        List.iter (fun w -> Printf.printf "  warning: %s\n" w)
          net.Sc_extract.Extractor.warnings;
        List.iter
          (fun (name, node) -> Printf.printf "  port %s = node %d\n" name node)
          net.Sc_extract.Extractor.named;
        if net.Sc_extract.Extractor.warnings = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Extract the transistor circuit from a CIF file's geometry.")
    Term.(const run $ file_arg)

(* --- svg --- *)

let svg_cmd =
  let run file output =
    with_cif file (fun cell ->
        let svg = Sc_layout.Render.to_svg cell in
        write_out output svg;
        0)
  in
  Cmd.v
    (Cmd.info "svg" ~doc:"Render a CIF file as SVG artwork.")
    Term.(const run $ file_arg $ output_arg)

(* --- sim --- *)

let cycles_arg =
  Arg.(value & opt int 16 & info [ "n"; "cycles" ] ~docv:"N" ~doc:"Cycles to run.")

let sim_cmd =
  let run file cycles =
    match Sc_rtl.Parser.parse (read_file file) with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      1
    | Ok design -> (
      match Sc_rtl.Check.check design with
      | e :: _ ->
        Printf.eprintf "check error: %s\n" e;
        1
      | [] ->
        let t = Sc_rtl.Interp.create design in
        let has_reset =
          List.exists
            (fun (d : Sc_rtl.Ast.decl) -> d.dname = "reset")
            design.Sc_rtl.Ast.inputs
        in
        for cyc = 0 to cycles - 1 do
          if has_reset then
            Sc_rtl.Interp.set_input t "reset" (if cyc = 0 then 1 else 0);
          Sc_rtl.Interp.step t;
          Printf.printf "cycle %2d:" cyc;
          List.iter
            (fun (d : Sc_rtl.Ast.decl) ->
              Printf.printf " %s=%d" d.dname (Sc_rtl.Interp.output t d.dname))
            design.Sc_rtl.Ast.outputs;
          print_newline ()
        done;
        0)
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Interpret an ISP description (reset asserted on cycle 0, other \
          inputs zero).")
    Term.(const run $ file_arg $ cycles_arg)

(* --- equiv --- *)

(* A circuit spec is hand:NAME or isp:NAME (Sc_core.Designs.circuit), or
   an ISP or Verilog (.v) file path, synthesized *)
let resolve_circuit spec =
  match Sc_core.Designs.circuit spec with
  | Some r -> r
  | None -> (
    try
      if not (Sys.file_exists spec) then Error ("no such file: " ^ spec)
      else if Filename.check_suffix spec ".v" then (
        match Sc_core.Compiler.verilog_design (read_file spec) with
        | Error d -> Error (spec ^ ": " ^ Sc_pipeline.Diag.to_string d)
        | Ok design -> Ok (Sc_synth.Synth.gates design).Sc_synth.Synth.circuit)
      else (
        match Sc_rtl.Parser.parse (read_file spec) with
        | Error e -> Error (spec ^ ": " ^ e)
        | Ok design -> Ok (Sc_synth.Synth.gates design).Sc_synth.Synth.circuit)
    with Sc_pipeline.Diag.Error d ->
      Error (spec ^ ": " ^ Sc_pipeline.Diag.to_string d))

let equiv_cmd =
  let spec_arg idx name =
    Arg.(
      required
      & pos idx (some string) None
      & info [] ~docv:name
          ~doc:
            "Circuit: $(b,hand:)NAME (hand baseline), $(b,isp:)NAME \
             (builtin ISP source, synthesized), an ISP file path, or a \
             Verilog file path (*.v, elaborated then synthesized).")
  in
  let k_arg =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K"
          ~doc:"Unrolling depth for sequential circuits (default 8).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mutate" ] ~docv:"I"
          ~doc:"Flip gate $(docv) of the second circuit before checking \
                (fault-injection demo).")
  in
  let order_arg =
    Arg.(
      value
      & opt (enum [ ("decl", Sc_equiv.Miter.Declaration); ("dfs", Sc_equiv.Miter.Fanin_dfs) ])
          Sc_equiv.Miter.Fanin_dfs
      & info [ "order" ] ~docv:"ORDER"
          ~doc:"BDD variable order: $(b,decl) or $(b,dfs) (default).")
  in
  let run a_spec b_spec k mutate order jobs =
    with_jobs jobs @@ fun () ->
    match (resolve_circuit a_spec, resolve_circuit b_spec) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok a, Ok b -> (
      match
        let b =
          match mutate with
          | None -> b
          | Some i -> Sc_equiv.Checker.mutate b i
        in
        (* -j > 1 checks one output cone per task, each with its own
           manager; the single-manager path reports its node count *)
        let verdict, nodes =
          if jobs > 1 then
            (Sc_equiv.Checker.check_cones ~order ~k a b, None)
          else begin
            let man = Sc_equiv.Bdd.create () in
            (Sc_equiv.Checker.check ~man ~order ~k a b, Some man)
          end
        in
        (verdict, nodes, b)
      with
      | exception Invalid_argument e ->
        Printf.eprintf "error: %s\n" e;
        2
      | exception Sc_equiv.Miter.Mismatch e ->
        Printf.eprintf "port mismatch: %s\n" e;
        2
      | Sc_equiv.Checker.Equivalent, nodes, _ ->
        (match nodes with
        | Some man ->
          Printf.printf "equivalent (%d BDD nodes)\n"
            (Sc_equiv.Bdd.node_count man)
        | None -> Printf.printf "equivalent\n");
        0
      | (Sc_equiv.Checker.Not_equivalent cex as v), _, b ->
        Format.printf "@[<v>%a@]@." Sc_equiv.Checker.pp_verdict v;
        let verdict = Sc_equiv.Checker.replay a b cex in
        Printf.printf "replay through the event-driven simulator: %s\n"
          (match verdict with
          | Sc_equiv.Checker.Reproduced -> "confirmed"
          | Sc_equiv.Checker.Not_reproduced | Sc_equiv.Checker.Indeterminate ->
            Sc_equiv.Checker.replay_verdict_to_string verdict);
        1)
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Prove two circuits equivalent with the BDD engine (bounded \
          unrolling when registers are present), or print a concrete \
          counterexample.")
    Term.(
      const run $ spec_arg 0 "A" $ spec_arg 1 "B" $ k_arg $ mutate_arg
      $ order_arg $ jobs_arg)

(* --- report / diff: the QoR telemetry surface --- *)

let report_cmd =
  let run file =
    match Sc_metrics.Metrics.read file with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok s ->
      Format.printf "%a@?" Sc_metrics.Metrics.pp_snapshot s;
      0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a metrics snapshot (written by --metrics) as a human \
          table.")
    Term.(const run $ file_arg)

let diff_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline snapshot JSON.")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current snapshot JSON.")
  in
  let thresholds_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "thresholds" ] ~docv:"FILE"
          ~doc:
            "Per-metric neutrality thresholds: a JSON object mapping a \
             key or prefix pattern (ending in *) to {\"rel\": r, \
             \"abs\": a}.  Unmatched QoR keys compare exactly; runtime \
             keys default to rel 0.25 / abs 20000 us.")
  in
  let gate_runtime_arg =
    Arg.(
      value & flag
      & info [ "gate-runtime" ]
          ~doc:
            "Also fail (exit 1) on runtime regressions.  Off by \
             default: wall-clock is machine-dependent, so runtime \
             deltas are reported but only QoR regressions gate.")
  in
  let run baseline current thresholds gate_runtime =
    let load_thresholds () =
      match thresholds with
      | None -> Ok Sc_metrics.Metrics.default_thresholds
      | Some path -> (
        match Sc_metrics.Metrics.thresholds_of_string (read_file path) with
        | Ok t -> Ok t
        | Error e -> Error (path ^ ": " ^ e))
    in
    match
      (Sc_metrics.Metrics.read baseline, Sc_metrics.Metrics.read current,
       load_thresholds ())
    with
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok base, Ok cur, Ok thresholds ->
      let report = Sc_metrics.Metrics.diff ~thresholds base cur in
      Format.printf "%a@?" Sc_metrics.Metrics.pp_report report;
      if Sc_metrics.Metrics.gate ~runtime:gate_runtime report then begin
        Printf.eprintf "quality gate: REGRESSED against %s\n" baseline;
        1
      end
      else 0
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Classify every metric delta between two snapshots as \
          improved, neutral or regressed; exit 1 when the quality gate \
          trips.")
    Term.(
      const run $ baseline_arg $ current_arg $ thresholds_arg
      $ gate_runtime_arg)

(* --- serve / client: the compile daemon --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append a structured JSONL log to $(docv): one JSON object per \
           line — per request (verb, design, digest, status, duration, \
           dedup/cache/certify outcome) plus daemon lifecycle events.")

let serve_log_level_arg =
  let level =
    Arg.conv
      ( (fun s ->
          match Sc_obs.Slog.level_of_string s with
          | Ok l -> Ok l
          | Error e -> Error (`Msg e))
      , fun ppf l -> Format.pp_print_string ppf (Sc_obs.Slog.level_to_string l)
      )
  in
  Arg.(
    value
    & opt level Sc_obs.Slog.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Drop log lines below $(docv): debug, info (default), warn or \
           error.  Per-request lines are info (stats requests: debug), \
           protocol violations and failed compiles warn.")

let serve_trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Write per-execution Chrome traces to \
           $(docv)/<seq>-<design>-<digest>.trace.json (created if \
           missing).  Sampled by $(b,--trace-sample).")

let serve_trace_sample_arg =
  let sample =
    Arg.conv
      ( (fun s ->
          match String.index_opt s '/' with
          | Some i -> (
            match
              ( int_of_string_opt (String.sub s 0 i)
              , int_of_string_opt
                  (String.sub s (i + 1) (String.length s - i - 1)) )
            with
            | Some n, Some m when m >= 1 && n >= 0 -> Ok (n, m)
            | _ -> Error (`Msg (s ^ ": expected N/M with M >= 1, N >= 0")))
          | None -> Error (`Msg (s ^ ": expected N/M, e.g. 1/10")))
      , fun ppf (n, m) -> Format.fprintf ppf "%d/%d" n m )
  in
  Arg.(
    value
    & opt sample (1, 1)
    & info [ "trace-sample" ] ~docv:"N/M"
        ~doc:
          "Trace the first $(b,N) of every $(b,M) executions (default \
           1/1: every execution).  Only meaningful with \
           $(b,--trace-dir).")

let serve_exec_domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "exec-domains" ] ~docv:"N"
        ~doc:
          "Bound on concurrently executing compilations (each runs on \
           its own domain with its own recorder).  Default: the \
           runtime's recommended domain count, at least 2.")

let serve_cmd =
  let run socket jobs stage_cache exec_domains log log_level trace_dir
      trace_sample =
    Sc_serve.Server.run ~jobs ?stage_cache ?exec_domains ?log ~log_level
      ?trace_dir ~trace_sample ~socket ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile daemon: a long-running process multiplexing \
          concurrent compilations over one shared stage cache.  Clients \
          connect over the Unix-domain socket ($(b,scc client)); \
          identical in-flight requests share one execution; each execution \
          records into its own per-request recorder, so instrumented \
          compiles overlap.  Telemetry: per-verb latency histograms \
          ($(b,scc client stats)), a structured JSONL log ($(b,--log)), \
          and sampled Chrome traces ($(b,--trace-dir)).  SIGTERM or \
          $(b,scc client shutdown) drains connections and exits.")
    Term.(
      const run $ socket_arg $ jobs_arg $ stage_cache_arg
      $ serve_exec_domains_arg $ serve_log_arg $ serve_log_level_arg
      $ serve_trace_dir_arg $ serve_trace_sample_arg)

(* client compile specs are sent with the source inlined, so the
   daemon's dedup key is a pure function of the frame: resolve builtin
   names and file paths here, before anything hits the wire *)
let resolve_spec ?(certify = false) src style restarts =
  match resolve_source src with
  | Error e -> Error e
  | Ok (Layout, _) ->
    Error (src ^ ": the daemon compiles ISP and Verilog sources only")
  | Ok (Verilog, _) when style <> None ->
    Error "--style does not apply to Verilog sources"
  | Ok (kind, source) ->
    let style =
      match (kind, style) with
      | Verilog, _ -> "verilog"
      | _, Some Sc_core.Compiler.Pla_control -> "pla"
      | _ -> "gates"
    in
    Ok
      { Sc_serve.Protocol.design = design_of_path src
      ; source
      ; style
      ; restarts
      ; certify
      }

let client_src_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SRC"
        ~doc:
          "A builtin design name, an ISP file or a Verilog file \
           ($(b,*.v)), read locally; the source text is sent inline.")

(* one RPC against the daemon; protocol/transport failures exit 2 *)
let client_call socket req k =
  match Sc_serve.Client.one_shot socket req with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok (Sc_serve.Protocol.Error_reply { stage; message }) ->
    Printf.eprintf "error: %s: %s\n" stage message;
    1
  | Ok resp -> k resp

let unexpected () =
  Printf.eprintf "error: unexpected response from daemon\n";
  2

let client_compile_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Instead of printing the summary, diff the daemon's snapshot \
             against this baseline; exit 1 when the quality gate trips.")
  in
  let compiled spec metrics explain = function
    | Sc_serve.Protocol.Compiled r -> (
      Printf.eprintf
        "%s: %d gates, %d flip-flops, %d transistors, area %d, CIF %d \
         bytes, DRC %s\n%!"
        spec.Sc_serve.Protocol.design r.Sc_serve.Protocol.gates
        r.Sc_serve.Protocol.flipflops r.Sc_serve.Protocol.transistors
        r.Sc_serve.Protocol.area r.Sc_serve.Protocol.cif_bytes
        (if r.Sc_serve.Protocol.drc_violations = 0 then "clean"
         else
           string_of_int r.Sc_serve.Protocol.drc_violations ^ " violations");
      if explain then
        List.iter
          (fun (pass, status) -> Printf.eprintf "  %-10s %s\n%!" pass status)
          r.Sc_serve.Protocol.passes;
      match metrics with
      | None -> 0
      | Some path -> (
        match Sc_metrics.Metrics.of_json r.Sc_serve.Protocol.snapshot with
        | Error e ->
          Printf.eprintf "error: bad snapshot from daemon: %s\n" e;
          2
        | Ok s ->
          Sc_metrics.Metrics.write path s;
          Printf.eprintf "metrics written to %s\n%!" path;
          0))
    | _ -> unexpected ()
  in
  let diffed bpath = function
    | Sc_serve.Protocol.Diffed { report; regressed } ->
      print_string report;
      if regressed then begin
        Printf.eprintf "quality gate: REGRESSED against %s\n" bpath;
        1
      end
      else 0
    | _ -> unexpected ()
  in
  let run socket src style restarts certify metrics explain baseline =
    match resolve_spec ~certify src style restarts with
    | Error e -> usage_error e
    | Ok spec -> (
      match baseline with
      | None ->
        client_call socket (Sc_serve.Protocol.Compile spec)
          (compiled spec metrics explain)
      | Some bpath -> (
        match Sc_obs.Json.parse (read_file bpath) with
        | Error e -> usage_error (bpath ^ ": " ^ e)
        | Ok base ->
          client_call socket
            (Sc_serve.Protocol.Diff { spec; baseline = base })
            (diffed bpath)))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a design through the daemon (a $(b,*.v) source is \
          sent with style \"verilog\"); $(b,--metrics) captures the \
          per-request QoR snapshot, byte-identical to a single-shot \
          $(b,scc compile) run; $(b,--baseline) diffs it against a \
          baseline snapshot instead.")
    Term.(
      const run $ socket_arg $ client_src_arg $ style_arg $ restarts_arg
      $ certify_arg $ metrics_arg $ explain_arg $ baseline_arg)

let client_report_cmd =
  let run socket src style restarts =
    match resolve_spec src style restarts with
    | Error e -> usage_error e
    | Ok spec ->
      client_call socket (Sc_serve.Protocol.Report spec) (function
        | Sc_serve.Protocol.Reported table ->
          print_string table;
          0
        | _ -> unexpected ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Compile through the daemon and render the metrics table.")
    Term.(const run $ socket_arg $ client_src_arg $ style_arg $ restarts_arg)

let client_equiv_cmd =
  let spec_arg idx name =
    Arg.(
      required
      & pos idx (some string) None
      & info [] ~docv:name
          ~doc:"Circuit: $(b,hand:)NAME or $(b,isp:)NAME.")
  in
  let k_arg =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K"
          ~doc:"Unrolling depth for sequential circuits (default 8).")
  in
  let run socket a b k =
    client_call socket (Sc_serve.Protocol.Equiv { a; b; k }) (function
      | Sc_serve.Protocol.Equiv_verdict { equivalent; detail } ->
        print_endline detail;
        if equivalent then 0 else 1
      | _ -> unexpected ())
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Prove two builtin circuits equivalent through the daemon.")
    Term.(const run $ socket_arg $ spec_arg 0 "A" $ spec_arg 1 "B" $ k_arg)

let client_stats_cmd =
  let run socket =
    client_call socket Sc_serve.Protocol.Stats (function
      | Sc_serve.Protocol.Stats_reply
          { counters; uptime_s; server_version; verbs } ->
        (* header fields are absent when the daemon predates the
           telemetry protocol bump — print what we got *)
        (match server_version with
        | Some v -> Printf.printf "%-26s %s\n" "version" v
        | None -> ());
        (match uptime_s with
        | Some u -> Printf.printf "%-26s %ds\n" "uptime" u
        | None -> ());
        List.iter
          (fun (verb, n) -> Printf.printf "%-26s %d\n" ("verb." ^ verb) n)
          verbs;
        List.iter (fun (k, v) -> Printf.printf "%-26s %d\n" k v) counters;
        0
      | _ -> unexpected ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the daemon's telemetry: version, uptime, per-verb \
          request counts, server counters (requests, in-flight, dedup \
          hits, executions, peak concurrency), per-verb latency \
          percentiles (p50/p95/p99), and the aggregated stage-cache \
          statistics.")
    Term.(const run $ socket_arg)

let client_shutdown_cmd =
  let run socket =
    client_call socket Sc_serve.Protocol.Shutdown (function
      | Sc_serve.Protocol.Bye -> 0
      | _ -> unexpected ())
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit.")
    Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running compile daemon ($(b,scc serve)) over its \
          Unix-domain socket.")
    [ client_compile_cmd; client_report_cmd; client_equiv_cmd
    ; client_stats_cmd; client_shutdown_cmd
    ]

let () =
  let doc = "the silicon compiler: textual descriptions to layout data" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "scc" ~version:"1.0" ~doc)
          [ compile_cmd; alias "isp"; alias "verilog"; drc_cmd; stats_cmd
          ; sim_cmd; extract_cmd; svg_cmd; equiv_cmd; report_cmd; diff_cmd
          ; serve_cmd; client_cmd
          ]))
