(** Chip assembly: the parameterised pad frame of claim C6.

    One program assembles a complete chip around any core: bonding pads
    (metal squares with overglass openings) are distributed around the
    four sides, each with a connection stub pointing inward; pad wires
    run from each pad toward the core, either to a *bound* core port
    (they land on its metal and merge with it — the connection) or
    stopping 6 lambda short of the core as a pre-routed stub.

    The assembly is pure geometry generation — every output must pass
    DRC (tests enforce it) — and its cost model (pad-ring area overhead
    versus core area) is what experiment E6 sweeps. *)

open Sc_layout

type assembly =
  { chip : Cell.t
  ; pads : int
  ; core_area : int
  ; chip_area : int
  ; overhead : float  (** chip_area / core_area *)
  }

(** [assemble ~name ~core ~pads ()] — distribute [pads] pads round-robin
    over the four sides.  [bind] maps pad index (counter-clockwise from
    the bottom-left) to a core port name; bound pads are wired to the
    port with an L-shaped metal wire.

    @raise Invalid_argument when [pads < 4] or a bound port is missing. *)
val assemble :
  ?bind:(int * string) list -> name:string -> core:Cell.t -> pads:int -> unit ->
  assembly

(** {2 Macro assembly}

    The pad frame generalized to many cores: each module of a design
    arrives as a DRC-clean layout, is wrapped into a {e macro} carrying
    its typed interface as poly pin stubs along its top edge (one per
    signature bit, on a 14-lambda grid), and the macros are packed into
    a row under a chip-level routing channel.  Inter-macro nets and
    chip-port nets route through the channel ({!Sc_route.Channel});
    macro pins enter from below at even grid positions and chip ports
    from above at odd ones, so no column carries both a top and a
    bottom pin — the vertical constraint graph is empty and routing
    succeeds by construction.  The packed core exposes the chip's port
    bits as named poly ports on its top edge, so the existing pad frame
    ({!assemble}) wraps it unchanged. *)

type macro_spec =
  { mi_name : string  (** instance name, unique in the chip *)
  ; mi_pins : string list  (** bit-level pin names, signature order *)
  ; mi_cell : Cell.t  (** the module's DRC-clean layout *)
  }

type endpoint =
  | Chip of string  (** a chip-level port bit *)
  | Pin of string * string  (** (instance name, pin bit name) *)

type net = { net_name : string; ends : endpoint list }

type packed =
  { core : Cell.t
      (** macro row + channel + chip-port stubs; ports = [chip_ports] *)
  ; macro_count : int
  ; row_width : int
  ; row_height : int
  ; channel_tracks : int
  ; channel_height : int
  ; trunk_length : int
  }

(** [pack ~name ~macros ~chip_ports ~nets ()] — place [macros] left to
    right (pin-stub tops aligned on the channel floor), route [nets]
    through one channel, and expose [chip_ports] (bit-level names; list
    order fixes their x positions).  Instances of the same module share
    one wrapper cell, hence one CIF symbol.

    @raise Invalid_argument on duplicate instance names or nets naming
    unknown instances, pins or chip ports. *)
val pack :
  name:string ->
  macros:macro_spec list ->
  chip_ports:string list ->
  nets:net list ->
  unit ->
  packed

val pp_packed : Format.formatter -> packed -> unit
