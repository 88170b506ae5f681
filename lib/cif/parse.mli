(** Parsing CIF 2.0 text into the AST.

    The parser accepts the command subset of {!Ast}: DS/DF/DD, L, B (with
    optional axis-parallel direction), P, W, C with T/M/R transformations,
    comments, user extensions and E.  CIF's liberal separator rule is
    honoured: any run of characters that is not a digit, an upper-case
    command letter, '-', '(' or ';' separates tokens. *)

val parse : string -> (Ast.file, string) result
(** The commands, or the first syntax error as ["line:col: message"],
    at the offending character or, for an error about a whole command
    (a box with the wrong number of integers), at the command's first
    character. *)
