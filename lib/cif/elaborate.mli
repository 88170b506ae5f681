(** Elaborating parsed CIF back into a layout hierarchy.

    The elaborator rebuilds {!Sc_layout.Cell.t} values from a CIF file:
    symbol definitions become cells, calls become instances, boxes and
    wires become elements, and the user extensions restore names and
    ports: "9 name" names the symbol, "94 name x y layer" is one of its
    own ports, and "91 name" names the instance made by the next call in
    the same symbol.  A symbol whose calls are named promotes their
    ports ([Cell.make ~promote:true]), so {!Sc_layout.Cell.ports} lists
    "<inst>.<port>" for each of them, in call order, then the symbol's
    own labels — the list the emitted cell had.  All coordinates are
    converted to the lambda grid using each symbol's DS scale and
    {!Sc_tech.Rules.centimicrons_per_lambda}; geometry that does not
    land on the lambda grid is an error, as are unknown layers,
    non-rectangular polygons and non-Manhattan transforms.

    A symbol the hierarchy cannot hold is a [Structure] error naming
    it, never an exception: duplicate port or instance names (labels,
    "91" names, or a label meeting a promoted name), a "91" that no call
    follows before DF or that another "91" follows, a "91" outside a
    definition, and a symbol naming some of its calls but not all. *)

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
    geometry and on ports; this helper runs the roundtrip and reports
    whether the flat boxes match exactly and {!Sc_layout.Cell.ports}
    gives the same (name, layer, doubled centre) triples — a label
    carries a port's centre, not its rectangle.  Names of any bytes
    roundtrip: emission escapes them and elaboration decodes them (see
    {!Emit}). *)
val roundtrip_ok : Sc_layout.Cell.t -> bool
