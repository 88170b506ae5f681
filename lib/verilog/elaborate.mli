(** Elaboration: lowering a parsed Verilog module onto the ISP-level
    {!Sc_rtl.Ast.design}, the shared entry point of the behavioral
    pipeline (compile → optimize → place → route → drc → emit).

    The lowering is semantics-preserving with respect to the subset's
    documented evaluation rules (see [docs/VERILOG.md]):

    - the clock is identified from the [always @(posedge ...)]
      sensitivity lists, removed from the design's inputs (the ISP
      model has an implicit clock) and banned from expressions;
    - the two-edge idiom [always @(posedge clk or posedge rst)] with a
      body of exactly [if (rst) ... else ...] is accepted and realized
      with synchronous reset priority;
    - every Verilog output is given an internal carrier (ISP outputs
      are write-only), so outputs remain readable in expressions;
    - [?:] and concatenation are hoisted through fresh helper wires
      (names start with [$], which no user identifier can), keeping
      every intermediate at its Verilog-determined width;
    - continuous assignments are topologically sorted into evaluation
      order; a combinational cycle is a positioned error;
    - non-blocking assignments keep Verilog's semantics exactly: all
      right-hand sides see pre-edge register values, the last
      assignment in program order wins.

    Expressions are evaluated {e self-determined}: every operation is
    masked at the width of its widest operand, so an addition's carry
    out is lost unless an operand is widened explicitly (e.g.
    [{1'b0, a} + b]).  All diagnostics are positioned — elaboration
    never raises. *)

val design : string -> (Sc_rtl.Ast.design, Sc_pipeline.Diag.t) result
(** [Parse.parse] composed with the lowering above: Verilog source text
    to an ISP design in one step, or a positioned diagnostic of stage
    ["verilog.parse"].  This is the pipeline's [verilog.parse] pass.
    The design is {!Sc_rtl.Check}-clean by construction; a residual
    check failure is reported as an internal error rather than
    raised. *)

val design_of_source : string -> (Sc_rtl.Ast.design, string) result
(** {!design} with its diagnostic printed as ["line:col: message"],
    for callers that only print it. *)
