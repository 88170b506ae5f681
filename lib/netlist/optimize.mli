(** Netlist cleanup: the synthesizer's optimization pass.

    Rewrites a circuit (flattening it first) by repeatedly applying

    - constant folding (a gate whose inputs are constants becomes a
      constant; controlling constants simplify partially, e.g.
      [and(0,x) = 0], [or(0,x) = x], [mux(_,_,const)] selects a branch);
    - identities ([buf x = x], [inv (inv x) = x], [xor(x,x) = 0],
      [and(x,x) = x], [mux(a,a,s) = a]);
    - common-subexpression elimination (two combinational gates of the
      same kind on the same inputs share one output; commutative inputs
      are normalized; flip-flops never merge, since two registers on one
      D input hold distinct state until the clock edge);
    - dead-gate elimination (anything not reachable from an output).

    The pass preserves simulation behaviour exactly (enforced by tests)
    and is measured by the E2 ablation.

    {b Cost.}  At most 8 passes over the g gates of the flattened
    circuit (n nets), each gate in expected constant time: the
    common-subexpression key is the gate's kind and at most three
    canonical input nets in a hash table, an inverter's output is mapped
    back to its input in an array (so [inv (inv x)] is one lookup), and
    the net union-find compresses its paths.  A gate's inputs are copied
    only when one of them was merged away.  So O(n + g) time and space
    per pass, up to the union-find's near-constant factor. *)

val simplify : Circuit.t -> Circuit.t
