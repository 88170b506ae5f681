(** Circuit extraction from mask geometry.

    The inverse of the compiler: given artwork, recover the transistor
    netlist it implements.  This closes the loop the paper's final
    paragraph asks for — verification by simulation — at the strongest
    level: the *artwork itself* is simulated (see {!Switch}), not the
    netlist it was generated from.

    The electrical model is scalable NMOS:

    - conductors are connected regions of metal, poly, and diffusion
      (diffusion is first severed wherever poly crosses it — those
      crossings are the transistor channels);
    - contact cuts join metal to the poly or diffusion under them;
      buried contacts join poly to diffusion directly;
    - every poly-over-diffusion crossing outside a buried contact is a
      transistor channel ({!Sc_layout.Stats.channels}; touching pieces
      are one channel): gate = the poly region, source/drain = the
      severed diffusion regions flanking it; an implant over the channel
      marks depletion mode.  So the device count always equals
      {!Sc_layout.Stats.transistor_count}.

    Extraction warns (rather than fails) on oddities: a contact with no
    metal or nothing under it, a buried contact that joins nothing, a
    channel with other than two flanking diffusion regions, or a port
    that touches no conductor.

    Cost: one flattening, then grid-index queries ({!Sc_geom.Rect_index})
    for every candidate search, so near-linear in the rectangle count
    for locally sparse layouts; cutting a diffusion strip crossed by [k]
    gates costs O(k{^ 2}). *)

type device =
  { gate : int  (** node id *)
  ; terminals : int list  (** distinct source/drain node ids (normally 2) *)
  ; depletion : bool
  }

type netlist =
  { node_count : int
  ; devices : device list
  ; named : (string * int) list  (** port name -> node id *)
  ; warnings : string list
  }

(** [extract cell] flattens and extracts. *)
val extract : Sc_layout.Cell.t -> netlist

(** [node_of t name] — node of a named port.
    @raise Not_found when absent. *)
val node_of : netlist -> string -> int

val pp : Format.formatter -> netlist -> unit
