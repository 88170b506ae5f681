(** The standard module library: one characterized cell per gate kind.

    Primitive NMOS cells (inverter, NAND2/3, NOR2) are transistor-level
    layouts from {!Nmos}; the remaining kinds are compositions of
    primitives placed in a row (e.g. AND2 = NAND2 + INV, XOR2 = four
    NAND2s, DFF = six NAND2s), which gives them realistic area while
    abstracting intra-cell wiring — the same granularity as the
    standard-module sets of the paper's reference [6].  Composite cells
    re-export their sub-cell ports under "i<k>.<p>" names.

    Areas are in square lambda; delays and transistor counts come from
    {!Sc_netlist.Gate}. *)

open Sc_layout
open Sc_netlist

type cell =
  { kind : Gate.kind
  ; layout : Cell.t
  ; area : int  (** bounding-box area, square lambda *)
  ; width : int
  ; height : int
  ; transistors : int
  ; delay : int
  }

(** One characterized cell per kind, built on the kind's first use and
    then read from a per-kind table (domain-safe); all cells share one
    layout definition per kind. *)
val get : Gate.kind -> cell

val layout_of : Gate.kind -> Cell.t

(** [drc_violations kind] — design-rule violation count of the cell's
    layout, checked once per kind. *)
val drc_violations : Gate.kind -> int

(** [drc_clean kind] = [drc_violations kind = 0]. *)
val drc_clean : Gate.kind -> bool

(** [intern c] — [c] with every cell that has a library cell's name and
    artwork replaced by that library cell, so the process holds one
    copy of each.  A layout read back from a disk cache brings its own
    copies, and CIF emission writes one symbol per physical cell: a
    chip assembled from such layouts must intern them to emit the same
    text as a cold compile.  Cells above a replaced one are rebuilt;
    the rest are returned as they are. *)
val intern : Cell.t -> Cell.t

(** Total layout area of a circuit's gates if placed with no packing
    overhead (lower bound used by E1/E2 area accounting). *)
val circuit_cell_area : Circuit.t -> int
