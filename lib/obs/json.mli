(** A minimal JSON tree, printer and parser — enough for Chrome
    trace-event files, metrics snapshots and the daemon's wire
    protocol, with no third-party dependency.

    Numbers are [float] (as in JSON itself); integers that fit a float
    exactly print without a fractional part.  JSON has no [nan] or
    infinity: a non-finite number prints as [null], so every printed
    text parses back (to [Null] in that place).  Strings are assumed to be
    UTF-8; the printer escapes the two mandatory characters and control
    codes, the parser understands the full escape set including
    [\uXXXX].

    Neither direction copies its input or builds intermediate strings:
    each allocates what it returns and next to nothing else.  The
    printer measures the value, then writes it in one pass into one
    string of exactly that length: integers digit by digit, strings as
    whole runs between the bytes that need escaping (found eight bytes
    at a time).  The parser reads the text in place, once: integers of
    up to 15 digits without a float conversion, a string with no escape
    as one [String.sub], a string with escapes decoded into a string of
    its decoded length, and lists consed in reading order.  On valid
    input only a non-integral number goes through [Printf] or
    [float_of_string].  Object keys and other short strings, and
    integers, recur from text to text, so a parsed tree may share such
    leaves with trees parsed before it (any domain's): a string of up
    to 32 bytes or a [Num] read on the integer path that equals one of
    the last read is that same value, not a copy.

    A [\u] escape is exactly four hex digits, and it must spell a
    Unicode scalar value: a high surrogate ([\uD800]–[\uDBFF]) must be
    followed at once by an escaped low one ([\uDC00]–[\uDFFF]), the
    two decoding to one code point, and a low surrogate may appear only
    there.  Anything else is an [Error] at the offending escape: ["bad
    \u escape"] at its digits, ["lone low surrogate"] at the low one's
    digits, ["lone high surrogate"] just after the high one's. *)

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
