(** The layout language: the paper's first definition of silicon
    compilation — "a high level graphic language for producing artwork".

    Programs define parameterised cells; evaluating a program yields a
    {!Sc_layout.Cell.t} hierarchy ready for DRC and CIF emission.  The
    three properties the paper demands of graphics languages are all
    present: repetition ([for] / [array]), parameterisation (cell
    arguments and arithmetic), and hierarchy (cells instantiate cells;
    repeated instantiations share one definition).

    {2 Syntax}

    {v
    -- a row of n contacted tiles
    cell tile(w) {
      box metal 0 0 w 4;
      box poly 1 6 3 6+4;
      port a poly 1 6 3 10;
    }
    cell main(n) {
      for i = 0 to n-1 {
        inst tile(8) at (i*10, 0);
      }
      inst nand2() at (0, 20);      -- standard cells are built in
      wire metal 4 (0,14) (n*10,14);
    }
    v}

    Statements: [box LAYER x0 y0 x1 y1;], [wire LAYER width (x,y) ...;],
    [inst EXPR at (x,y) orient R90;] (placement clauses optional),
    [port NAME LAYER x0 y0 x1 y1;], [let NAME = EXPR;],
    [for I = E to E { ... }], [if E { ... } else { ... }].

    Expressions: integers (decimal, [0x...] or [0b...] — the literal
    syntax of the ISP language, from the lexer the two share,
    {!Sc_rtl.Lexer}), arithmetic [+ - * /], comparisons, cell calls
    [name(args)], and the built-in cells [inv()], [nand2()], [nand3()],
    [nor2()], [and2()], [or2()], [xor2()], [mux2()], [dff()], plus
    combinators [beside(a,b)], [above(a,b)], [rowof(n, c)],
    [arrayof(nx, ny, c)], and the measurers [width(c)], [height(c)].

    Layers: [diff], [poly], [contact], [metal], [implant], [buried],
    [glass]. *)

(** [compile ?entry ?args src] parses and evaluates; [entry] defaults to
    the last cell defined (commonly ["main"]), applied to [args]
    (default [[]]).  A syntax or evaluation error is a diagnostic of
    stage ["elaborate"].  A syntax error is positioned at the offending
    lexeme and names it; a malformed literal (a [0x] without digits, a
    value past the integer range) is such an error, never an exception.
    An evaluation error is positioned at the statement being evaluated
    (an argument-count or duplicate-definition error at its cell
    definition); only an [entry] no cell defines has no position. *)
val compile :
  ?entry:string ->
  ?args:int list ->
  string ->
  (Sc_layout.Cell.t, Sc_pipeline.Diag.t) result

(** [entry_error ?entry ?args src] — the diagnostic {!compile} gives
    when [entry] names no cell of [src] or its entry cell takes another
    number of arguments than [args] holds; [None] otherwise, and when
    [src] itself is refused first (a syntax or definition error is
    {!compile}'s to report).  A compile request's validation
    ({!Sc_core.Compiler.validate}) refuses a request with it. *)
val entry_error :
  ?entry:string -> ?args:int list -> string -> Sc_pipeline.Diag.t option
