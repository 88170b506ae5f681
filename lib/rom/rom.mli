(** The ROM generator: the other regular block of the paper's C2 claim.

    A ROM is organized exactly like a PLA whose AND plane is a full
    address decoder: one row per word, fully specified (no don't-cares),
    with the OR plane holding the stored bits.  The generator therefore
    reuses {!Sc_pla.Generator} with minimization disabled — the
    regularity, not logic sharing, is the point of the block.

    [optimize:true] instead lets the minimizer exploit the stored
    pattern, which is the PLA-vs-ROM trade explored in experiment E3. *)

type t =
  { words : int
  ; bits : int
  ; addr_width : int
  ; pla : Sc_pla.Generator.t
  }

(** [generate ?optimize ?name ~bits contents] — [contents.(w)] is the word
    at address [w]; addresses above [Array.length contents] read 0.
    @raise Invalid_argument when [bits] exceeds 62 or contents is empty. *)
val generate : ?optimize:bool -> ?name:string -> bits:int -> int array -> t

val layout : t -> Sc_layout.Cell.t

val netlist : t -> Sc_netlist.Circuit.t

val pp_summary : Format.formatter -> t -> unit
