(** Hierarchical gate-level circuits.

    A circuit is the structural description of the paper's trichotomy: a
    module with named multi-bit ports, primitive gates over single-bit
    nets, and instances of other circuits.  Circuits are immutable; use
    {!Builder} to construct them.

    Nets are small integers local to a module.  Net 0 is constant false
    and net 1 constant true in every module. *)

type net = int

type port_dir = In | Out

type port = { port_name : string; dir : port_dir; bits : net array }

type gate_inst = { kind : Gate.kind; gname : string; ins : net array; out : net }

type t = private
  { cname : string
  ; ports : port list
  ; gates : gate_inst list
  ; insts : inst list
  ; net_count : int
  ; net_names : (net * string) list
  }

and inst = { iname : string; sub : t; conns : (string * net array) list }

val false_net : net

val true_net : net

(** Used by {!Builder}; validates port/gate/instance consistency.
    @raise Invalid_argument on out-of-range nets or bad connections. *)
val create :
  name:string ->
  ports:port list ->
  gates:gate_inst list ->
  insts:inst list ->
  net_count:int ->
  net_names:(net * string) list ->
  t

val find_port_opt : t -> string -> port option

val inputs : t -> port list

(** [flatten c] expands all instances into one flat gate-level module.
    Port structure is preserved; internal nets are renumbered and named
    with instance-path prefixes. *)
val flatten : t -> t

(** Structural well-formedness of a flat or hierarchical circuit: every
    gate input and every output-port bit has exactly one driver (gate
    output, input port bit, or constant); no net has two drivers.
    Returns human-readable problems, empty when sound. *)
val check : t -> string list

(** Combinational cycle detection on the flattened circuit (paths through
    flip-flops are not cycles). *)
val has_combinational_cycle : t -> bool

(** [comb_topo c] flattens [c] and returns the flattened circuit together
    with its combinational gates in topological (fanin-before-fanout)
    order — the evaluation order used by symbolic analyses such as
    {!Sc_equiv} and by unrolling.  Sequential gates are omitted from the
    returned list (their outputs are sources).
    @raise Invalid_argument on a combinational cycle. *)
val comb_topo : t -> t * gate_inst list

type stats =
  { gate_total : int
  ; by_kind : (Gate.kind * int) list
  ; flipflops : int
  ; transistors : int
  ; module_instances : int  (** instances at all levels, the E1 chip count *)
  }

val stats : t -> stats
