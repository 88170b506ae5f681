(** Cycle-accurate interpretation of behavioral designs.

    The interpreter is the language's reference semantics — "verification
    by simulation" on the behavioral description itself — and the oracle
    the synthesizer's netlists are tested against.

    Values are plain integers masked to their declared widths.  One
    {!step} evaluates the whole behaviour with pre-cycle register values,
    then commits register updates. *)

type t

(** @raise Invalid_argument when {!Check.check} reports errors. *)
val create : Ast.design -> t

(** [set_input t name v] — masked to the declared width.
    @raise Not_found on unknown input. *)
val set_input : t -> string -> int -> unit

(** Run one clock cycle; outputs and registers update. *)
val step : t -> unit

(** Value of an output after the latest [step].
    @raise Not_found on unknown output. *)
val output : t -> string -> int

(** Current register value. *)
val reg : t -> string -> int

(** Force a register value (masked).  Used by the synthesizer to
    enumerate the state space and by tests.
    @raise Not_found on unknown register. *)
val set_reg : t -> string -> int -> unit
