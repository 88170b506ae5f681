(** The equivalence checker: certify that two circuits compute the same
    function, or produce a concrete distinguishing input.

    Combinational circuits are compared directly through {!Miter};
    circuits with flip-flops are compared by [k]-frame bounded unrolling
    from the all-zero power-up state ({!Unroll.frames}).  A negative
    verdict always carries a counterexample stimulus that can be — and
    in {!replay} is — run through {!Sc_sim.Engine} on both circuits.

    This is what certifies the compilation stages: raw synthesis vs the
    optimizer ({!Sc_netlist.Optimize}), synthesized datapaths vs
    hand-built netlists, two-level minimization ({!check_covers}), and
    extracted mask artwork vs its source netlist ({!check_artwork}). *)

open Sc_netlist

(** A distinguishing stimulus.  [frames] lists, per clock cycle, the
    value driven on every input port (don't-care bits are 0); on cycle
    [cycle] output [output] differs between the two circuits at bit
    [bit].  Combinational counterexamples have one frame and
    [cycle = 0]. *)
type counterexample =
  { frames : (string * int) list list
  ; output : string
  ; bit : int
  ; cycle : int
  }

type verdict =
  | Equivalent
  | Not_equivalent of counterexample

(** Human-readable verdict, counterexample frames included. *)
val pp_verdict : Format.formatter -> verdict -> unit

(** [check ?man ?order ?k a b] — formal equivalence of [a] and [b] with
    input/output correspondence by port name.  Combinational pairs are
    proved for all inputs; sequential pairs for the first [k]
    (default 8) cycles from the all-zero state.  Pass [man] to inspect
    BDD statistics afterwards ({!Bdd.node_count}).
    @raise Miter.Mismatch when the port signatures differ.
    @raise Invalid_argument on combinational cycles. *)
val check :
  ?man:Bdd.man -> ?order:Miter.order -> ?k:int -> Circuit.t -> Circuit.t ->
  verdict

(** Proof summary of a successful {!certify}: how many output ports
    (cones) were proved and the node count of the proof's BDD manager. *)
type certificate =
  { cert_cones : int
  ; cert_nodes : int
  }

(** [certify ?order ?k a b] — {!check}'s proof, in a fresh BDD manager,
    packaged for the pass manager's [~certify] hooks: [Ok certificate]
    when equivalent, [Error cex] otherwise, where [cex] is the
    counterexample {!check} returns (the first differing port, bit and
    cycle in declaration order, under the same assignment).  Emits
    {b no} Obs counters, only an ["equiv"] span — the pass manager
    replays certificate counters from the cached summary so warm and
    cold QoR snapshots stay byte-identical. *)
val certify :
  ?order:Miter.order -> ?k:int -> Circuit.t -> Circuit.t ->
  (certificate, counterexample) result

(** Outcome of replaying a counterexample in simulation.
    [Indeterminate] means the named output bit was X on at least one
    side at the failing cycle — the witness is neither confirmed nor
    refuted (the BDD model and the 3-valued simulator disagree about
    initialization), which is distinct from a definite
    [Not_reproduced]. *)
type replay_verdict = Reproduced | Not_reproduced | Indeterminate

val replay_verdict_to_string : replay_verdict -> string

(** [replay a b cex] — drive both circuits with the counterexample
    through {!Sc_sim.Engine} (registers forced to 0 first) and report
    whether the named output bit really differs at the named cycle:
    {!Reproduced} confirms the counterexample in simulation. *)
val replay : Circuit.t -> Circuit.t -> counterexample -> replay_verdict

(** [mutate c i] — flip gate [i] (index into the flattened gate list) to
    a different kind of the same arity (AND<->OR, XOR<->XNOR,
    INV<->BUF, ...); MUX2 gets its data inputs swapped.  Fault
    injection for exercising the checker and its counterexamples.
    @raise Invalid_argument when [i] is out of range or the gate is
    sequential or constant. *)
val mutate : Circuit.t -> int -> Circuit.t

(** [check_covers a b] — equivalence of two sum-of-products covers via
    their BDDs; [None] when equivalent, [Some (input, output)] a
    distinguishing minterm and the output it distinguishes.
    @raise Invalid_argument on arity mismatch. *)
val check_covers :
  Sc_logic.Cover.t -> Sc_logic.Cover.t -> (bool array * int) option

(** [check_artwork cell ~inputs ~outputs circuit] — extract [cell]'s
    transistor netlist from its mask geometry ({!Sc_extract.Extractor}),
    tabulate its switch-level function over the named input ports, and
    compare the resulting BDDs against [circuit]'s (whose input/output
    ports must carry the same names, one bit each).  An X on any output
    is a disagreement.  This is layout-versus-netlist, formally.
    @raise Invalid_argument when [inputs] exceeds 12 bits (tabulation is
    exhaustive) or a port is missing.
    @raise Not_found when [cell] lacks "vdd"/"gnd" ports. *)
val check_artwork :
  Sc_layout.Cell.t ->
  inputs:string list ->
  outputs:string list ->
  Circuit.t ->
  verdict
