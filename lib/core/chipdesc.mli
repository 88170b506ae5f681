(** Multi-module chip descriptions.

    A modular source file holds several ordinary ISP [module] blocks
    plus one [chip] block naming the top level:

    {v
    module alu4; ... end
    module regfile; ... end

    chip system;
    inputs op[2], a[4];
    outputs y[4];
    instances
      u_alu : alu4;
      u_reg : regfile;
    connect
      u_alu.a = a;
      u_reg.d = u_alu.y;
      y = u_reg.q;
    end
    v}

    {!split} is purely lexical: it cuts the file at top-level
    [module]/[chip] keywords, so each module block's {e raw text} is
    the unit of content addressing — editing one module leaves every
    other block's digest (and its cached sub-pipeline) untouched.
    Semantic binding against the compiled modules' interface
    signatures happens in {!resolve}, once signatures exist. *)

type source_module =
  { sm_name : string
  ; sm_text : string  (** the raw block text, the digest unit *)
  ; sm_line : int  (** the source line the block starts on *)
  }

type port_decl =
  { pd_name : string
  ; pd_width : int
  }

type instance =
  { ci_name : string
  ; ci_module : string
  }

type endpoint =
  | Cport of string  (** a chip-level port *)
  | Ipin of string * string  (** (instance name, port name) *)

type chip_decl =
  { ch_name : string
  ; ch_inputs : port_decl list
  ; ch_outputs : port_decl list
  ; ch_insts : instance list
  ; ch_connects : (endpoint * endpoint) list  (** (sink, source) pairs *)
  }

type t =
  { modules : source_module list  (** in file order *)
  ; chip : chip_decl option
  }

val is_modular : string -> bool
(** The source contains a top-level [chip] block (cheap, lexical). *)

val split : string -> (t, Sc_pipeline.Diag.t) result
(** Cut the source into module blocks and parse the chip block.
    Lexical/syntactic errors ([Sc_rtl.Lexer]'s grammar, so widths may
    be written [0x...]/[0b...]) name the offending token at its
    position in the source; duplicate module or instance names and
    instances of unknown modules are reported here too.  Every error
    is a diagnostic of stage ["chip"]. *)

val in_source : first:int -> Sc_pipeline.Diag.t -> Sc_pipeline.Diag.t
(** A diagnostic positioned in a block that starts on source line
    [first], positioned in the source instead: chip-block errors and a
    module's diagnostics ({!source_module.sm_line}) both go through
    it. *)

(** {2 Signature-level resolution} *)

type bit =
  { b_end : endpoint
  ; b_idx : int
  ; b_width : int  (** the width of [b_end]'s port *)
  }

type chip_net =
  { cn_src : bit
  ; cn_sinks : bit list
  }

val bit_name : endpoint -> width:int -> int -> string
(** Bit-level pin name: ["a"] for a 1-wide port, ["a[3]"] otherwise
    (instance endpoints render just the port part — the instance is
    carried separately). *)

val resolve :
  chip_decl ->
  sigs:(string -> Sc_netlist.Signature.t option) ->
  (chip_net list, Sc_pipeline.Diag.t) result
(** Bind the chip's connections against each instance module's
    interface signature: directions (a sink is a chip output or an
    instance input; a source is a chip input or an instance output),
    widths, single-driver discipline, and completeness (every instance
    input and chip output driven).  Nets are grouped by source bit, so
    fanout shares one net.  Errors, of stage ["chip"], name the
    instances, modules and ports involved.  This is the one interface
    check: the modular driver calls it once per compile, and assembly
    and stitching read its nets. *)

val decl_repr : chip_decl -> string
(** Canonical one-line rendering of the chip declaration — the chip
    block's contribution to the assembly pass's cache key (equal reprs
    imply interchangeable declarations). *)
