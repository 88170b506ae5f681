(** Elaborating parsed CIF back into a layout hierarchy.

    The elaborator rebuilds {!Sc_layout.Cell.t} values from a CIF file:
    symbol definitions become cells, calls become instances, boxes and
    wires become elements, and the "9"/"94" user extensions restore cell
    names and ports.  All coordinates are converted to the lambda grid
    using each symbol's DS scale and {!Sc_tech.Rules.centimicrons_per_lambda};
    geometry that does not land on the lambda grid is an error, as are
    unknown layers, non-rectangular polygons and non-Manhattan transforms. *)

type error =
  | Syntax of string
  | Off_grid of string  (** coordinate not on the lambda grid *)
  | Unknown_layer of string
  | Undefined_symbol of int
  | Unsupported of string
  | Structure of string  (** ill-formed DS/DF bracketing etc. *)

val error_to_string : error -> string

val of_string : string -> (Sc_layout.Cell.t, error) result

(** Emission followed by elaboration is the identity on flattened
    geometry; this helper runs the roundtrip and reports whether the flat
    boxes match exactly. *)
val roundtrip_ok : Sc_layout.Cell.t -> bool
