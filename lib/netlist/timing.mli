(** Static timing on gate-level circuits.

    The "cost in speed" half of the paper's C3 claim is measured with a
    per-gate delay model: the critical path is the longest combinational
    path from a source (input port, flip-flop output or constant) to a
    sink (output port or flip-flop input), in units of the inverter delay
    tau. *)

exception Combinational_cycle

(** [critical_path ?delay c] flattens [c] and returns the worst path
    delay.  [delay] defaults to {!Gate.delay}.
    @raise Combinational_cycle when the combinational core is cyclic. *)
val critical_path : ?delay:(Gate.kind -> int) -> Circuit.t -> int

(** Arrival time of every net, same model; index by net id of the
    flattened circuit (also returned).  One topological sweep in
    O(n + p) time and space for n nets and p gate input pins: pending
    input counts are an int array and each net's fanout a row of a
    compressed array.
    @raise Combinational_cycle when the combinational core is cyclic. *)
val arrival_times : ?delay:(Gate.kind -> int) -> Circuit.t -> Circuit.t * int array
