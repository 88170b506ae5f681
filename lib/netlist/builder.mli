(** Imperative construction of circuits.

    A builder accumulates ports, gates and instances, then {!finish}
    validates and freezes the circuit.  Multi-bit buses are plain net
    arrays, index 0 = least significant bit. *)

type t

val create : string -> t

(** Declare an input port of the given width; returns its nets. *)
val input : t -> string -> int -> Circuit.net array

(** Declare an output port driven by existing nets. *)
val output : t -> string -> Circuit.net array -> unit

val fresh_vec : t -> int -> Circuit.net array

val name_net : t -> Circuit.net -> string -> unit

(** [gate b kind ins] adds a gate on a fresh output net. *)
val gate : t -> ?name:string -> Gate.kind -> Circuit.net array -> Circuit.net

(** [gate_into b kind ins out] drives an existing net. *)
val gate_into :
  t -> ?name:string -> Gate.kind -> Circuit.net array -> Circuit.net -> unit

(** [inst b sub conns] instantiates a sub-circuit; every port of [sub]
    must appear in [conns]. *)
val inst :
  t -> ?name:string -> Circuit.t -> (string * Circuit.net array) list -> unit

val const0 : Circuit.net

val const1 : Circuit.net

(** Logic conveniences (each adds one gate). *)

val not_ : t -> Circuit.net -> Circuit.net

val and2 : t -> Circuit.net -> Circuit.net -> Circuit.net

val or2 : t -> Circuit.net -> Circuit.net -> Circuit.net

val xor2 : t -> Circuit.net -> Circuit.net -> Circuit.net

(** [mux2 b ~sel a0 a1] = if sel then a1 else a0. *)
val mux2 : t -> sel:Circuit.net -> Circuit.net -> Circuit.net -> Circuit.net

(** Balanced AND / OR trees; empty input gives the neutral constant. *)

val and_reduce : t -> Circuit.net list -> Circuit.net

val or_reduce : t -> Circuit.net list -> Circuit.net

(** [mux_vec b ~sel a0 a1] muxes two equal-width buses bitwise. *)
val mux_vec :
  t -> sel:Circuit.net -> Circuit.net array -> Circuit.net array ->
  Circuit.net array

(** Ripple-carry add: returns (sum bus, carry out). *)
val adder :
  t -> ?cin:Circuit.net -> Circuit.net array -> Circuit.net array ->
  Circuit.net array * Circuit.net

(** [finish b] freezes and validates.
    @raise Invalid_argument on structural errors. *)
val finish : t -> Circuit.t
