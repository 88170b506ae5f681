(** Bounded unrolling of sequential circuits.

    [frames ~k c] turns a circuit with flip-flops into a purely
    combinational one spanning [k] clock cycles: input port [p] becomes
    [p@0 .. p@k-1], output port [o] becomes [o@0 .. o@k-1], and every
    flip-flop output at frame 0 is the constant 0 — the interpreter's
    power-up state, which {!Sc_sim.Engine.force_registers} reproduces
    for counterexample replay.  A [Dff] at frame [f] carries its data
    input of frame [f-1]; a [Dffe] holds its frame [f-1] value unless
    enabled.

    Two circuits agree on all outputs of their [k]-frame unrollings iff
    they are [k]-cycle equivalent from the all-zero state. *)

open Sc_netlist

(** @raise Invalid_argument when [k < 1] or on a combinational cycle. *)
val frames : k:int -> Circuit.t -> Circuit.t

(** [split_port "p@f"] = [(p, f)]; [(name, 0)] when unsuffixed. *)
val split_port : string -> string * int
