(** Structured stage diagnostics, and the one source position of the
    compiler.

    Every pass failure in the compiler is a [Diag.t]: the name of the
    stage that failed, where in the source text it failed when the
    failure has a place there, and a human-readable message.  Drivers
    print ["stage: line:col: message"] and exit nonzero — the user
    never sees a raw OCaml backtrace for an input problem (a malformed
    design, an FSM too wide for the PLA generator, an unbound entry
    cell).

    The frontends (the ISP, chip-block and layout-language lexer
    [Sc_rtl.Lexer], the Verilog frontend and the CIF parser) position
    their lexemes and errors with {!pos}; this library depends on
    neither of them, so each can depend on it.

    Deep code that cannot return a [result] raises {!Error}; the pass
    manager ({!Pipeline.run}) catches it at the stage boundary and
    turns it back into a value.  Code outside the pipeline that calls
    such a function directly (tests, benches) should match on
    [exception Diag.Error d]. *)

(** A source position, 1-based in both coordinates. *)
type pos =
  { line : int
  ; col : int
  }

val pos_to_string : pos -> string
(** ["line:col"]. *)

type t =
  { stage : string  (** pass that failed, e.g. ["parse"], ["compile"] *)
  ; loc : pos option  (** where in the source, when the input is text *)
  ; message : string
  }

exception Error of t

val v : ?loc:pos -> stage:string -> string -> t
(** [v ?loc ~stage msg] — a diagnostic value. *)

val fail : ?loc:pos -> stage:string -> string -> 'a
(** [fail ?loc ~stage msg] raises {!Error}. *)

val failf :
  ?loc:pos -> stage:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Formatted {!fail}. *)

val of_exn : stage:string -> exn -> t
(** Adopt an arbitrary exception at a stage boundary: an {!Error}
    keeps its own stage; anything else is printed with
    [Printexc.to_string] under [stage]. *)

val located : t -> string
(** ["line:col: message"], or the message alone without a location. *)

val to_string : t -> string
(** ["stage: line:col: message"] (["stage: message"] without a
    location). *)
