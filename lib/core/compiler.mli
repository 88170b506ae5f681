(** The silicon compiler facade: "a completely textual description of a
    design translated to layout data".

    One way in: [scc compile], the serve daemon and the experiments
    all hand a {!request} to {!run}.  Its kind picks one of the two
    definitions of silicon compilation debated in the paper: the
    structural path ([Layout]: layout-language text straight to
    artwork) or the behavioral path ([Isp], or a [Verilog] module
    elaborated to the same design IR, through synthesis, placement and
    cell layout).  Every path is a thin driver over
    {!Sc_pipeline.Pipeline} pass sequences:

    {v
    behavioral  parse ────────┐
    verilog     verilog.parse ┴ compile ─ optimize ─ place ─ route
                parse ─ compile ─ place                      (pla)
    structural  elaborate
    then, for every path:       ─ drc ─ emit ─ measure
    v}

    Each pass gets a span, a stage-cache entry and a [Diag] error
    boundary from the manager; enable {!Sc_pipeline.Pipeline.enable_cache}
    (or [scc --stage-cache DIR]) and recompiling after a [--restarts]
    change reruns only place→measure.  Failures come back as
    {!Sc_pipeline.Diag.t} values — stage name, source position when
    the input text is at fault, and message — never as raw
    exceptions, and are never cached. *)

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

(** {2 The compile request} *)

(** The source language: ISP, Verilog ([*.v]) or the layout language
    ([*.lsl]). *)
type kind = Isp | Verilog | Layout

(** One compile, as every driver asks for it.  It names no design: a
    display name is the caller's concern. *)
type request =
  { kind : kind
  ; source : string
  ; style : behavior_style option  (** ISP only; [None]: gates *)
  ; restarts : int  (** extra random-start placements *)
  ; certify : bool  (** as {!Sc_pipeline.Pipeline.with_certify} *)
  ; inject_fault : int option  (** see {!compile_behavior} *)
  ; entry : string option  (** layout-language entry cell *)
  ; args : int list  (** its arguments *)
  }

val request : kind -> string -> request
(** [request kind source] — gates style, no restarts, no certificate,
    no fault, the last cell as entry with no arguments. *)

val validate : request -> (unit, Sc_pipeline.Diag.t) result
(** The request's one validation.  A field set where it does not apply
    ([style] off ISP, [entry]/[args] off the layout language,
    [restarts]/[inject_fault] on it or under [Pla_control]) is refused
    with a stage ["request"] diagnostic naming the command-line flag:
    "--restarts does not apply to --style pla".  A layout-language entry
    the source cannot run gets {!Sc_lang.Lang.entry_error}'s. *)

val digest : request -> string
(** The hex digest of the request's canonical encoding, equal exactly
    for equal requests: the serve daemon's in-flight dedup key. *)

(** The compiled artwork with its circuit (none for the layout
    language), or the refusal or failed pass; and the pass journal (the
    [--explain] rows), on failure too. *)
type outcome =
  { result : (compiled * Sc_netlist.Circuit.t option, Sc_pipeline.Diag.t) result
  ; journal : (string * Sc_pipeline.Pipeline.status) list
  }

val run : request -> outcome
(** [run r] — {!validate} [r], then compile it on the calling domain
    under {!Sc_pipeline.Pipeline.with_certify} [r.certify] and a fresh
    {!Sc_pipeline.Pipeline.with_log}, recording into the recorder in
    scope ({!Sc_obs.Obs.with_recorder}) and through the stage cache the
    caller enabled. *)

(** {2 The per-path drivers}

    {!run} calls these; they certify and journal as the caller's
    {!Sc_pipeline.Pipeline.with_certify} and
    {!Sc_pipeline.Pipeline.with_log} say. *)

(** Behavioral path: ISP source to a placed layout of standard cells (or
    a PLA plus registers), with the synthesized circuit.  A source with
    a top-level [chip] block ({!Sc_core.Chipdesc.is_modular}) goes to
    {!compile_modular}; any [style] but [Random_logic], or an
    [inject_fault], is then refused with a ["chip"] diagnostic.
    [restarts] selects multi-start placement (default 0).
    [inject_fault] miscompiles the optimize pass on the gates path
    ({!Sc_synth.Synth.optimize_result}'s [inject]), a live target for
    {!Sc_pipeline.Pipeline.with_certify}.  Both knobs are pass params,
    so changing one reruns only the passes downstream of it and faulty
    artifacts never share cache keys with honest ones.  [Pla_control]
    ignores both; {!validate} refuses a request that sets either. *)
val compile_behavior :
  ?style:behavior_style ->
  ?restarts:int ->
  ?inject_fault:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result

(** Separate compilation: a multi-module source with a [chip] block
    ({!Sc_core.Chipdesc}).  Each module block runs its own sub-pipeline
    keyed on that block's raw text, in file order, with its own
    recorder and run journal, certifying when the caller does: editing
    one module reruns exactly that module's passes plus assembly.
    Concurrent compiles of one source each run every module; they meet
    only in the stage cache.  The chip is resolved once
    ({!Sc_core.Chipdesc.resolve}) against the modules' signatures; the
    assembly pass packs the module layouts into a macro row with a
    routed channel ({!Sc_chip.Assemble.pack}) inside the pad frame, and
    whole-chip drc/emit/measure finish.  The circuit is the
    hierarchical stitch of the optimized module circuits.  Module
    journal rows read [module:pass], module QoR merges into the
    recorder in scope as [module.NAME.key] gauges, and a module's
    diagnostic has stage [module:STAGE], positioned in the source
    file. *)
val compile_modular :
  ?restarts:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result

(** Verilog path: a synthesizable-Verilog module through the pass
    sequence of {!compile_behavior}'s gates path, which shares its
    stage-cache entries from compile on.  Parse and elaboration
    failures are positioned stage ["verilog.parse"] diagnostics. *)
val compile_verilog :
  ?restarts:int ->
  ?inject_fault:int ->
  string ->
  (compiled * Sc_netlist.Circuit.t, Sc_pipeline.Diag.t) result
