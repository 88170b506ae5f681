(** A minimal JSON tree, printer and parser — just enough to emit
    Chrome trace-event files and parse them back (the round-trip the
    {!Obs} tests rely on), with no third-party dependency.

    Numbers are [float] (as in JSON itself); integers that fit a float
    exactly print without a fractional part.  Strings are assumed to be
    UTF-8; the printer escapes the two mandatory characters and control
    codes, the parser understands the full escape set including
    [\uXXXX]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed); [Error]
    carries a message with the byte offset of the failure. *)

val member : string -> t -> t option
(** [member key (Obj _)] — field lookup; [None] on missing key or
    non-object. *)
