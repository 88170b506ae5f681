(** Parsing the behavioral language.

    Concrete syntax (comments run from "--" to end of line):

    {v
    module counter;
    inputs reset[1], load[1], data[4];
    outputs q[4];
    registers count[4];
    behavior
      if reset == 1 then count := 0;
      else if load == 1 then count := data;
      else count := count + 1;
      end end
      q := count;
    end
    v}

    Statements: assignment [target := expr;]; conditional
    [if e then ... else ... end] (else part optional); and
    [decode e  K: ... default: ... end].  Expression operators by
    loosening precedence: [~] (complement), [+ -], [<< >>] (constant
    shifts), comparisons, [&], [^], [|].  [name\[i\]] selects a bit.

    Tokens come from {!Lexer}, the lexer the layout language and chip
    blocks share: literals are decimal, [0x...] or [0b...], and a
    literal without digits or past the integer range is an error, not
    an exception. *)

val design : string -> (Ast.design, Sc_pipeline.Diag.t) result
(** The ISP frontend: the design, {!Check}-clean, or a diagnostic of
    stage ["parse"].  A lexical or syntax error is positioned at the
    offending token and names it ([parse: 3:5: expected ":=", found =]);
    a check failure has no position ([parse: check: ...]). *)

val parse : string -> (Ast.design, string) result
(** The syntax alone, unchecked; an error is {!design}'s message with
    its position and without the stage ([3:5: expected ":=", found =]),
    for callers that only print it. *)
