(** The behavioral silicon-compilation path (the paper's C3/C4/C7):
    compile an ISP-style behavioural description to a structural netlist
    of standard modules.

    Two control/logic styles are offered, matching the structural-vs-
    behavioral debate the paper frames:

    - {!gates}: direct structural translation.  Expressions become
      adders, comparators and boolean gates; control flow becomes
      multiplexer trees; registers become flip-flops holding their value
      by default.

    - {!pla_fsm}: classic FSM synthesis.  The whole design is treated as
      a finite-state machine — the state space (all register bits) and
      input space are enumerated through the {!Sc_rtl.Interp} reference
      semantics, the next-state/output function is minimized as a
      multi-output cover and realized as one PLA plus a register row.
      Only feasible when state+input bits are small (at most [max_bits]).

    Both produce circuits whose simulation matches the interpreter
    cycle-for-cycle (enforced by tests and by {!verify_against_interp}). *)

open Sc_netlist

type result =
  { circuit : Circuit.t
  ; stats : Circuit.stats
  ; cell_area : int  (** summed standard-cell area, square lambda *)
  ; critical_path : int  (** tau units *)
  }

val translate : Sc_rtl.Ast.design -> Circuit.t
(** The raw structural translation, before any optimization — the
    pipeline's "compile" pass.
    @raise Sc_pipeline.Diag.Error when the design fails
    {!Sc_rtl.Check.check} (stage ["compile"]). *)

val optimize_result : ?inject:int -> Circuit.t -> result
(** Run {!Sc_netlist.Optimize.simplify} and package the outcome with
    its stats/area/timing, emitting the gate-count gauges — the
    pipeline's "optimize" pass.  [inject] deliberately miscompiles:
    after simplification the first mutable gate at or after index
    [inject] (wrapping) is flipped with {!Sc_equiv.Checker.mutate} — a
    live fault for the certificate machinery to refuse.
    @raise Invalid_argument with [inject] when no gate can be mutated. *)

val replay_gauges : result -> unit
(** Re-emit the [gates]/[flipflops]/[transistors] gauges a fresh
    {!optimize_result} would have emitted — used by stage-cache hits to
    keep warm QoR snapshots identical to cold ones. *)

(** [gates ?optimize design] — [optimize] (default true) runs
    {!Sc_netlist.Optimize.simplify} on the result (constant folding, CSE,
    dead-gate removal); the E2 ablation toggles it.
    @raise Sc_pipeline.Diag.Error when the design fails
    {!Sc_rtl.Check.check} (stage ["compile"]). *)
val gates : ?optimize:bool -> Sc_rtl.Ast.design -> result

val fsm_cover : Sc_rtl.Ast.design -> Sc_logic.Cover.t
(** The raw, unminimized next-state/output cover of [design],
    enumerated through the {!Sc_rtl.Interp} reference semantics — the
    specification {!pla_fsm}'s minimized PLA is certified against
    ({!Sc_equiv.Checker.check_covers}).
    @raise Sc_pipeline.Diag.Error (stage ["compile"]) under the same
    conditions as {!pla_fsm}. *)

(** @raise Sc_pipeline.Diag.Error (stage ["compile"]) when state+input
    bits exceed [max_bits] or the design fails {!Sc_rtl.Check.check}. *)
val pla_fsm : ?minimize:bool -> Sc_rtl.Ast.design -> result * Sc_pla.Generator.t

(** [verify_against_interp design circuit cycles stim] — drive both the
    interpreter and the circuit with [stim] (cycle -> input values) and
    compare all outputs cycle by cycle.  Synthesized registers power up
    as X while the interpreter powers up at 0, so cycles whose circuit
    outputs still contain X are skipped; designs are expected to have a
    reset path in [stim] that makes the two converge, and at least one
    comparable cycle is required for a [true] verdict. *)
val verify_against_interp :
  Sc_rtl.Ast.design -> Circuit.t -> int -> (int -> (string * int) list) -> bool
