(** The one lexer of the ISP language ({!Parser}), chip blocks
    ([Sc_core.Chipdesc]) and the layout language ([Sc_lang.Lang]).
    Its grammar takes no per-language option; each parser keeps its
    own keywords.

    - identifiers [[A-Za-z_][A-Za-z0-9_]*];
    - integers in decimal, [0x...] or [0b...].  A [0x] or [0b] without
      digits, or a value [int_of_string] cannot hold, is an error (a
      hex or binary literal may use all 63 bits, the top one the sign);
    - the symbols [:= == != << >> <= >=] (one token each) and
      [; , : < > + - & ^ | ~ ( ) [ ] { } = * / % .];
    - comments from [--] to the end of the line.

    The cursor scans one lexeme ahead of its parser, so text after the
    point where a parser stops is never read.  Every failure, lexical
    or syntactic, is the one exception {!Error}, at a
    {!Sc_pipeline.Diag.pos}; each language turns it into a diagnostic
    of its own stage. *)

type token =
  | Ident of string
  | Int of int
  | Sym of string
  | Eof

type lexeme =
  { tok : token
  ; pos : Sc_pipeline.Diag.pos  (** of its first character *)
  }

exception Error of Sc_pipeline.Diag.pos * string

val describe : token -> string
(** The token as a diagnostic names it ([end of input] for {!Eof}). *)

val tokenize : string -> (lexeme list, Sc_pipeline.Diag.pos * string) result
(** Every lexeme of a text, {!Eof} last, or the first lexical error. *)

(** {2 The parsers' cursor} *)

type t

val create : string -> t
(** A cursor on the text's first lexeme. *)

val peek : t -> token
val pos : t -> Sc_pipeline.Diag.pos

val advance : t -> unit
(** Scan the next lexeme (a no-op at {!Eof}). *)

val accept : t -> token -> bool
(** Consume the current lexeme if it is the token; whether it was. *)

val fail : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} at the current lexeme. *)

val expect_sym : t -> string -> unit
(** Consume the symbol, or fail with ["expected S, found T"]. *)

val expect_kw : t -> string -> unit
val expect_ident : t -> string list -> string
(** An identifier that is none of the given reserved words. *)

val expect_int : t -> int
