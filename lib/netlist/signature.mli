(** Typed module interface signatures.

    A signature is what a module's consumers are allowed to depend on:
    its port names, directions and widths, plus whether the module holds
    clocked state.  Nothing about the body — gate counts, placement,
    area — leaks through, so separate compilation can key a consumer on
    {!digest} alone: as long as an edit leaves the signature unchanged,
    every consumer's own compilation stays cache-valid.

    Signatures render to a canonical one-line string; {!digest} is the
    MD5 of that rendering, making it stable across processes and usable
    inside pipeline cache keys. *)

type port_sig =
  { sname : string
  ; sdir : Circuit.port_dir
  ; swidth : int
  }

type t =
  { mname : string
  ; sports : port_sig list  (** in declaration order *)
  ; clocked : bool  (** the module contains flip-flops (its own or a sub's) *)
  }

val of_circuit : Circuit.t -> t
(** Extract the interface of a circuit: its ports in declaration order,
    clocking inferred from sequential gates anywhere in the hierarchy. *)

val find : t -> string -> port_sig option

val digest : t -> string
(** Hex MD5 of the canonical rendering, e.g.
    ["module alu (in a[4], in b[4], out y[4]) comb"] — stable across
    processes and OCaml versions, safe to embed in pipeline cache
    keys. *)

val compatible : expected:t -> got:t -> (unit, string) result
(** Structural compatibility: same port set with identical directions
    and widths (module names and port order are not compared; clocking
    must match).  The error names both modules and the offending port,
    e.g. ["port y: alu_ref declares out y[4] but alu declares out y[8]"]. *)
