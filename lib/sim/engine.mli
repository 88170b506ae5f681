(** Event-driven gate-level simulation.

    The engine flattens the circuit once, builds fanout tables and then
    propagates value changes through delta cycles until quiescence
    ({!settle}).  {!step} is one synchronous clock edge: all flip-flops
    sample their inputs simultaneously, then the combinational logic
    settles.  This is the "verification by simulation" role the paper
    assigns to behavioral/structural descriptions. *)

open Sc_netlist

type t

(** @raise Invalid_argument when the circuit fails {!Circuit.check} or has
    a combinational cycle. *)
val create : Circuit.t -> t

(** [set_input_int t name v] drives the port with the binary encoding
    of [v]. *)
val set_input_int : t -> string -> int -> unit

(** [force_registers t v] drives every flip-flop output to [v] and lets
    the logic settle — a power-on-reset jig.  [Sc_equiv] counterexamples
    are stated from the all-zero state; forcing [V0] before replay makes
    the engine reproduce them exactly. *)
val force_registers : t -> Value.t -> unit

(** One clock edge: flip-flops load, then logic settles. *)
val step : t -> unit

(** The current three-valued settled value of an output port (lsb
    first). *)
val get_output : t -> string -> Value.t array

(** [None] when any bit is X. *)
val get_output_int : t -> string -> int option

