(** The silicon compiler facade: "a completely textual description of a
    design translated to layout data".

    Two front doors, one per definition of silicon compilation debated in
    the paper:

    - {!compile_layout}: structural/graphical path — layout-language text
      straight to artwork;
    - {!compile_behavior}: behavioral path — ISP text through synthesis,
      placement and cell layout.

    Both are thin drivers over {!Sc_pipeline.Pipeline} pass sequences:

    {v
    behavioral  parse ────────┐
    verilog     verilog.parse ┴ compile ─ optimize ─ place ─ route
                parse ─ compile ─ place                      (pla)
    structural  elaborate
    then, for every path:       ─ drc ─ emit ─ measure
    v}

    The Verilog front door ({!compile_verilog}) elaborates a
    synthesizable-Verilog module to the same design IR the ISP parser
    produces, then runs the identical standard-cell pass sequence.

    Each pass gets a span, a stage-cache entry and a [Diag] error
    boundary from the manager; enable {!Sc_pipeline.Pipeline.enable_cache}
    (or [scc --stage-cache DIR]) and recompiling after a [--restarts]
    change reruns only place→measure.  Failures come back as
    {!Sc_pipeline.Diag.t} values — stage name plus message — never as
    raw exceptions, and are never cached. *)

open Sc_layout

(** How the behavioral path realizes control and logic: [Random_logic]
    (standard-cell gates) or [Pla_control] (FSM extraction to a PLA). *)
type behavior_style = Random_logic | Pla_control

(** A finished compilation: the layout plus the measurements every
    front door reports. *)
type compiled =
  { layout : Cell.t
  ; cif : string
  ; drc_violations : int
  ; area : int  (** bounding box, square lambda *)
  ; transistors : int
  }

(** Every front door records into the recorder in scope
    ({!Sc_obs.Obs.with_recorder}) — the whole pass sequence, and the
    pool tasks it fans out — and certifies and journals as the
    caller's {!Sc_pipeline.Pipeline.with_certify} /
    {!Sc_pipeline.Pipeline.with_log} say.  The serve daemon binds a
    fresh recorder per request so concurrent compiles record
    independently. *)

(** Structural path: layout-language source to artwork. *)
val compile_layout :
  ?entry:string ->
  ?args:int list ->
  string ->
  (compiled, Sc_pipeline.Diag.t) result

(** Behavioral path: ISP source to a placed layout of standard cells (or
    a PLA plus registers).  Also returns the synthesized circuit.

    A source containing a top-level [chip] block
    ({!Sc_core.Chipdesc.is_modular}) dispatches to separate compilation
    ({!compile_modular}); [style] must then be [Random_logic] and
    [inject_fault] is ignored.
    [restarts] selects multi-start placement (default 0; it is a
    place-pass parameter, so under a stage cache changing it leaves
    parse/compile/optimize hits).  [inject_fault] deliberately
    miscompiles the optimize pass on the gates path
    ({!Sc_synth.Synth.optimize_result}'s [inject]) — a live target for
    {!Sc_pipeline.Pipeline.with_certify}; like restarts it is pinned
    by a pass param, so faulty artifacts never share cache keys with
    honest ones (ignored by [Pla_control]). *)
val compile_behavior :
  ?style:behavior_style ->
  ?restarts:int ->
  ?inject_fault:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result

(** Separate compilation: a multi-module source with a [chip] block
    ({!Sc_core.Chipdesc}).  Each module block runs its own sub-pipeline
    (parse → compile → optimize → place → route → drc → emit → measure)
    keyed on that block's raw text, as one task on the default
    {!Sc_par.Pool} (in the caller at [-j 1]) with its own recorder and
    run journal, certifying when the caller does — editing one module
    re-runs exactly that module's passes plus assembly.  Concurrent
    compiles of the same module text (the serve daemon) share one
    in-flight run.  The assembly pass packs the per-module layouts into
    a macro row with a routed channel ({!Sc_chip.Assemble.pack}) inside
    the pad frame; whole-chip drc/emit/measure finish.  The returned circuit is the
    hierarchical stitch of the optimized module circuits under the
    chip's connections.  Per-module journal rows appear as
    [module:pass]; per-module QoR totals merge into the recorder in
    scope as [module.NAME.key] gauges. *)
val compile_modular :
  ?restarts:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result

(** Verilog path: a synthesizable-Verilog module to a placed
    standard-cell layout, through the same compile → optimize → place →
    route → drc → emit → measure sequence as {!compile_behavior} (the
    frontends differ only in their parse pass, so everything downstream
    shares the stage cache's behavior).  Parse and elaboration failures
    come back as stage ["verilog.parse"] diagnostics whose messages
    carry [line:col:] positions.  [inject_fault] as in
    {!compile_behavior}. *)
val compile_verilog :
  ?restarts:int ->
  ?inject_fault:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result

(** Elaborate Verilog source to the shared design IR without running
    the pipeline (for [scc compile FILE.v --dump-isp], equivalence
    drivers and tests).  Same ["verilog.parse"] diagnostics as
    {!compile_verilog}. *)
val verilog_design :
  string -> (Sc_rtl.Ast.design, Sc_pipeline.Diag.t) result
