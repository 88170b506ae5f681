(** The experiment workloads.

    Behavioral (ISP) sources for every design the experiments compile,
    plus hand-crafted structural baselines built directly on the standard
    module library — the stand-ins for the paper's "commercial design"
    comparison points (claim C4).  Each hand design implements exactly
    the same cycle semantics as its ISP description; tests verify both
    against the behavioral interpreter. *)

open Sc_netlist

(** 4-bit loadable counter with synchronous reset. *)
val counter_src : string

(** Traffic-light controller (2-bit state, car sensor, timer). *)
val traffic_src : string

(** 4-bit accumulator ALU (add/sub/and/xor) with zero flag. *)
val alu_src : string

(** 3-bit Gray-code cycle generator. *)
val gray_src : string

(** "1011" sequence detector (Mealy, 2-bit state). *)
val seqdet_src : string

(** The mini PDP-8: an 8-bit accumulator machine with a 4-bit PC, four
    8-bit scratch words in place of core memory (instructions arrive on
    an input port from an external store), and the classic instruction
    set: AND, TAD, ISZ, DCA, JMP and the OPR microcoded group
    (CLA/CMA/IAC combinations).  Encoding: bits 7..5 opcode, 4..3
    scratch-word address, 2..0 OPR micro-op field / JMP target low bits. *)
val pdp8_src : string

(** The PDP-8's combinational datapath alone — the scratch-word read
    bus, the shared adder with its operand selection, and the zero flag
    — exposed as a register-free module so the synthesized datapath can
    be equivalence-checked against the hand netlist's shared sub-blocks
    ({!hand_pdp8_dp}, E9). *)
val pdp8_dp_src : string

(** The modular reference design: a combinational mixer module feeding
    an accumulator module, bound by a [chip] block — the separate
    compilation workload ({!Sc_core.Chipdesc}, bench e17). *)
val system_src : string

(** Parsed designs (panics on internal parse error — these are fixtures). *)
val parse : string -> Sc_rtl.Ast.design

(** {2 Hand-built structural baselines} *)

(** The counter as a hand netlist: ripple increment, reset gating. *)
val hand_counter : unit -> Circuit.t

(** The traffic controller with hand-minimized next-state equations. *)
val hand_traffic : unit -> Circuit.t

(** The ALU around one shared adder (the classic structural trick). *)
val hand_alu : unit -> Circuit.t

(** The full hand PDP-8: shared adder, enable-gated registers, read bus. *)
val hand_pdp8 : unit -> Circuit.t

(** The hand PDP-8's shared sub-blocks (read bus, shared adder, zero
    flag) as a standalone combinational circuit, port-compatible with
    the synthesized {!pdp8_dp_src}. *)
val hand_pdp8_dp : unit -> Circuit.t

(** {2 Per-design stimulus generators for verification, cycle -> inputs} *)

(** Reset on cycle 0, then free-running count with occasional loads. *)
val counter_stim : int -> (string * int) list

(** Cars arriving in bursts against the timer. *)
val traffic_stim : int -> (string * int) list

(** Cycles through the opcodes with varying operands. *)
val alu_stim : int -> (string * int) list

(** Reset, then let the Gray cycle run. *)
val gray_stim : int -> (string * int) list

(** A bit stream containing (and teasing) the "1011" pattern. *)
val seqdet_stim : int -> (string * int) list

(** Drives a small program through the PDP-8: reset, arithmetic on the
    scratch words, OPR group, a JMP loop. *)
val pdp8_stim : int -> (string * int) list

(** [builtin name] — the ISP source of a builtin design: [counter],
    [traffic], [alu]/[alu4], [gray], [seqdet], [pdp8], [pdp8_dp],
    [system] (modular).  The single lookup [scc compile], [scc client]
    and {!circuit} all share. *)
val builtin : string -> string option

(** [circuit spec] — the circuit a spec names, for [scc equiv] and the
    daemon's equiv verb: [hand:NAME] is a hand baseline ([counter],
    [traffic], [alu]/[alu4], [pdp8], [pdp8_dp]), [isp:NAME] a {!builtin}
    source synthesized to gates.  [None] when [spec] has neither prefix
    (the CLI then reads it as a file path). *)
val circuit : string -> (Circuit.t, string) result option

(** (name, ISP source, hand baseline if any, stimulus, verify cycles) *)
val all :
  unit ->
  (string * string * Circuit.t option * (int -> (string * int) list) * int) list
