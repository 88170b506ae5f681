(** Mask layers of the scalable NMOS process.

    The layer set is the Mead–Conway NMOS set used by the Caltech design
    community in 1978-79 and named by the Caltech Intermediate Form
    (Sproull & Lyon, 1979): diffusion, polysilicon, contact cut, metal,
    depletion implant, buried contact and overglass. *)

type t =
  | Diffusion  (** green: source/drain/channel regions and diffused wires *)
  | Poly  (** red: polysilicon gates and wires *)
  | Contact  (** black: contact cuts between metal and poly/diffusion *)
  | Metal  (** blue: metal wires and power rails *)
  | Implant  (** yellow: depletion-mode implant for pull-up loads *)
  | Buried  (** brown: buried poly-diffusion contacts *)
  | Glass  (** overglass openings for bonding pads *)

val all : t list

(** CIF 2.0 layer name, e.g. [ND] for NMOS diffusion. *)
val cif_name : t -> string

val of_cif_name : string -> t option

(** Stable small index, usable as an array key; [index] enumerates [all]. *)
val index : t -> int

val count : int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
