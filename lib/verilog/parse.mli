(** Recursive-descent parsing of the synthesizable-Verilog subset.

    Grammar sketch (terminals quoted; [*] = repetition, [?] = option):

    {v
    source    ::= module EOF
    module    ::= "module" id ( "(" ports ")" )? ";" item* "endmodule"
    ports     ::= ansi_port ("," ansi_port)*     (ANSI header)
                | id ("," id)*                   (plain name list)
    ansi_port ::= ("input"|"output") ("wire"|"reg")? range? id
    item      ::= ("input"|"output"|"wire"|"reg") ("wire"|"reg")? range?
                    id ("=" expr)? ("," id)* ";"
                | "assign" id "=" expr ";"
                | "always" "@" "(" edge ("or" edge)* ")" stmt
    range     ::= "[" number ":" number "]"
    edge      ::= "posedge" id
    stmt      ::= "begin" stmt* "end"
                | "if" "(" expr ")" stmt ("else" stmt)?
                | "case" "(" expr ")" arm* ("default" ":"? stmt)? "endcase"
                | id "<=" expr ";"
    arm       ::= expr ("," expr)* ":" stmt
    expr      ::= prec climb over  ?:  |  ^  &  == !=  < <= > >=  << >>
                  + -  ~ -(unary)  with primaries: number, id, id[i],
                  id[h:l], (expr), {expr, ...}
    v}

    Everything outside the subset is rejected with a {e positioned,
    construct-naming} diagnostic — [initial] blocks, [#] delays,
    [negedge]/[@*] sensitivities, blocking [=] inside [always], loops,
    functions/tasks, parameters, [inout] ports, module instantiation,
    multiplication/division, logical [&&]/[||]/[!], replication,
    non-constant bit selects, [casez]/[casex], system tasks and a
    second module in one file.  The exact messages are part of the
    documented surface (see [docs/VERILOG.md]) and are exercised by the
    error-path tests. *)

val parse : string -> (Ast.module_, Sc_pipeline.Diag.t) result
(** Parse one module.  A lexical or syntax error is a positioned
    diagnostic, never an exception. *)
