(** Lexical analysis for the synthesizable-Verilog frontend.

    Every lexeme carries its source position, and every failure of the
    frontend — lexer, {!Parse} and {!Elaborate} — is one positioned
    {!Sc_pipeline.Diag.t} of stage ["verilog.parse"]: the frontend's
    contract is that a malformed design produces a diagnostic the user
    can act on, never a backtrace.

    The token set covers the supported subset only: identifiers (with
    Verilog's [$] allowed after the first character, and a leading [$]
    reserved for system tasks so the parser can reject them by name),
    sized and unsized numeric literals, and punctuation/operators
    emitted verbatim as {!Sym} — including symbols the parser only ever
    {e rejects} (such as [#], [*] and [&&]), which are lexed so their
    diagnostics can name the construct instead of the character. *)

(** One lexical token. *)
type token =
  | Id of string
      (** An identifier or keyword ([always], [posedge], ... are plain
          [Id]s; the parser decides what is reserved). *)
  | Number of { value : int; width : int option }
      (** A numeric literal.  [width] is [Some w] for sized literals
          ([12'd0], [4'b1010], [8'hff], [6'o17]) and [None] for plain
          decimals and unsized based literals (['b1]).  Underscores in
          the digits are ignored. *)
  | Sym of string
      (** Punctuation or an operator, spelled as written ([<=], [>>],
          [{], [#], ...).  Two-character operators are single tokens. *)
  | Eof  (** End of input (always the last lexeme). *)

(** A token plus the position of its first character. *)
type lexeme =
  { tok : token
  ; pos : Sc_pipeline.Diag.pos
  }

val token_to_string : token -> string
(** Human rendering for diagnostics: [identifier 'clk'], [number 12'd0],
    ['<='], [end of input]. *)

val tokenize : string -> lexeme list
(** Scan a whole source text.  The result always ends with an {!Eof}
    lexeme.  Errors (stray characters, malformed or oversized literals,
    unterminated block comments) raise {!Sc_pipeline.Diag.Error}. *)

val fail : Sc_pipeline.Diag.pos -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise the frontend's diagnostic at a position. *)
