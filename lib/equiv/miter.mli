(** Miter construction: two circuits, one BDD per disagreement.

    Input correspondence is by port name and bit index; both circuits
    must expose identical input and output port signatures
    ({!exception:Mismatch} otherwise).  A shared {!env} assigns one BDD
    variable to every input bit, so the two circuits' output functions
    live in the same variable space and equivalence is handle equality.

    Only combinational circuits are accepted here — unroll sequential
    ones first ({!Unroll.frames}). *)

open Sc_netlist

exception Mismatch of string
(** Port signatures differ (missing port, width or direction clash). *)

(** Variable ordering heuristics.

    - [Declaration]: input bits in port declaration order, lsb first —
      the baseline.
    - [Fanin_dfs]: depth-first traversal of the fanin cones from the
      outputs; inputs get variables in first-visit order.  This places
      inputs that interact (e.g. the two operands of an adder, bit by
      bit) at adjacent levels, which is what keeps datapath BDDs small. *)
type order = Declaration | Fanin_dfs

(** Maps input-port bits to BDD variables (and back, for
    counterexample extraction). *)
type env =
  { man : Bdd.man
  ; var_of : (string * int, int) Hashtbl.t  (** (port, bit) -> variable *)
  ; names : (string * int) array  (** variable -> (port, bit) *)
  }

(** Allocate variables for an explicit input-bit order. *)
val env_of_order : Bdd.man -> (string * int) list -> env

(** [env_of ?order man c] — variables for [c]'s input bits in the
    [order] heuristic's order (default [Fanin_dfs]). *)
val env_of : ?order:order -> Bdd.man -> Circuit.t -> env

(** [outputs env c] — the BDD of every output-port bit of [c], in port
    declaration order.  Flattens [c] and evaluates, in topological
    order, only the gates in the output ports' fan-in: logic no output
    reads (an unrolled circuit's last-frame next-state logic) adds no
    node to the manager.  Every evaluation is memoized inside the
    manager.
    @raise Mismatch when [c] reads an input bit with no variable.
    @raise Invalid_argument on sequential gates or a combinational
    cycle. *)
val outputs : env -> Circuit.t -> (string * Bdd.t array) list

(** [check_signatures a b] — raise {!exception:Mismatch} unless [a] and
    [b] have identical input and output port signatures. *)
val check_signatures : Circuit.t -> Circuit.t -> unit

(** [bdd_of_cover man cover] — one BDD per output of a sum-of-products
    cover, over variables [0 .. ninputs-1] (used to certify two-level
    minimization). *)
val bdd_of_cover : Bdd.man -> Sc_logic.Cover.t -> Bdd.t array
