(** Emitting a layout hierarchy as CIF 2.0.

    Geometry is written on a half-lambda grid: every coordinate is doubled
    and the symbol scale factor is halved (DS a = 125 for a 250
    centimicron lambda), so box centres are always integers.  Wires are
    written as their covering boxes, which keeps emission/parsing exactly
    invertible on geometry.  Three user extensions carry the rest: "9"
    names the symbol, "94" labels each of the cell's own ports ([94 name
    cx cy layer], doubled coordinates), and in a promoting cell (see
    {!Sc_layout.Cell.ports}) "91" names the instance the next call makes
    ([91 name], the convention of Berkeley Magic's CIF writer).  A
    promoted "<inst>.<port>" port is thus the called symbol's label under
    the instance's name, never a label of its own: the hierarchy carries
    the ports, and the file grows with the distinct cells, not with the
    ports of every instance.

    Every name is written escaped, in one of three forms: a bus bit
    "base[i]" of a legal base is "base_i_"; any other non-empty name of
    letters, digits, '_', '.' and '-' that does not end in "_<digits>_"
    stands for itself; in every other name each byte but a letter,
    digit, '.' or '-' becomes '%' and two upper-case hex digits, and
    the empty name is a lone '%'.  No text is in two forms, so the
    escape is injective and never empty: any names the cell holds read
    back as they were. *)

(** [unescape text] is the name whose escape is [text]; the elaborator
    decodes every symbol, instance and port name with it.  In text
    from another writer a '%' not followed by two hex digits stands
    for itself. *)
val unescape : string -> string

(** The commands of [cell]'s CIF file, as a list: the same stream
    {!emit} prints and counts, from the same generator. *)
val file_of_cell : Sc_layout.Cell.t -> Ast.file

type emitted =
  { text : string  (** the rendered CIF file *)
  ; commands : int  (** CIF command count *)
  ; rects : (string * int) list
        (** box count per layer, sorted by CIF layer name *)
  ; rects_total : int
  }

val emit : Sc_layout.Cell.t -> emitted
(** Render [cell] inside an ["emit"] span and return the text together
    with its geometry census — the pipeline's emit-pass artifact.  One
    walk of {!commands} appends each command to one buffer with
    {!Ast.add_command} and counts it.  The ["cif.*"] counters are
    reported as a side effect. *)

val replay_counters : emitted -> unit
(** Re-emit the ["cif.*"] counters {!emit} would have reported — used
    by stage-cache hits so warm QoR snapshots match cold ones. *)

val to_string : Sc_layout.Cell.t -> string
(** [(emit cell).text]. *)

(** [write path cell] writes [to_string cell] to the file [path]. *)
val write : string -> Sc_layout.Cell.t -> unit
