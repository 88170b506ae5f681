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

val parse : string -> (Ast.design, string) result
(** The design, or the first lexical or syntax error as
    ["line:col: message"] (the Verilog frontend's format), naming the
    offending token: [3:5: expected ":=", found =]. *)
