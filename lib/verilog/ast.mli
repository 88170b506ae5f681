(** Abstract syntax of the synthesizable-Verilog subset.

    One [module]/[endmodule] with a port list; [wire]/[reg]
    declarations with [\[msb:lsb\]] ranges; continuous [assign]s; and
    [always @(posedge clk)] blocks (optionally with the classic
    async-reset sensitivity [or posedge rst]) whose bodies are
    non-blocking assignments, [if]/[else] and [case].  Every node
    carries the {!Sc_pipeline.Diag.pos} of its first token so
    elaboration errors point at source, exactly like parse errors.

    The tree is deliberately close to the concrete syntax — bit
    selects, part selects, [?:] and concatenation survive as themselves
    — and {!Elaborate} owns the semantic lowering onto the ISP-level
    {!Sc_rtl.Ast.design}. *)

open Sc_pipeline

(** Unary operators ([~]; unary [-] is desugared to [0 - e] by the
    parser). *)
type unop = Bnot  (** bitwise complement [~] *)

(** Binary operators of the subset.  [Le]/[Ge] are first-class here and
    lowered to negated [Gt]/[Lt] during elaboration. *)
type binop =
  | Add
  | Sub
  | And  (** bitwise [&] *)
  | Or  (** bitwise [|] *)
  | Xor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Shl  (** shift by a constant right operand *)
  | Shr
type expr =
  | Number of { value : int; width : int option; npos : Diag.pos }
      (** [12'd0] carries [width = Some 12]; a plain [42] carries
          [None]. *)
  | Id of string * Diag.pos
  | Index of string * int * Diag.pos  (** constant bit select [x\[3\]] *)
  | Slice of string * int * int * Diag.pos
      (** constant part select [x\[hi:lo\]] *)
  | Unop of unop * expr * Diag.pos
  | Binop of binop * expr * expr * Diag.pos
  | Cond of { cond : expr; t : expr; f : expr; cpos : Diag.pos }
      (** the conditional operator [c ? t : f] *)
  | Concat of expr list * Diag.pos  (** [{a, b, ...}], leftmost is
          the most significant part *)

(** Statements allowed inside an [always @(posedge ...)] block. *)
type stmt =
  | Nonblocking of { target : string; rhs : expr; spos : Diag.pos }
      (** [q <= e;] *)
  | If of { cond : expr; then_ : stmt list; else_ : stmt list; spos : Diag.pos }
  | Case of
      { scrutinee : expr
      ; arms : (expr * stmt list) list
          (** one entry per label; an arm with several labels is
              flattened into several entries sharing the body *)
      ; default : stmt list
      ; spos : Diag.pos
      }

(** Port direction (only [input] and [output]; [inout] is rejected at
    parse time). *)
type dir =
  | Input
  | Output

(** Net kind: [wire] (continuous assignment) or [reg] (always-block
    target). *)
type kind =
  | Wire
  | Reg

(** A bit-vector range [\[msb:lsb\]]; a missing range means one bit. *)
type range =
  { msb : int
  ; lsb : int
  }

(** One declared name — from an ANSI port header, a non-ANSI
    [input]/[output] item, or a plain [wire]/[reg] item. *)
type decl =
  { name : string
  ; dir : dir option  (** [None] for internal wires/regs *)
  ; kind : kind
  ; range : range option
  ; dpos : Diag.pos
  }

(** A module item. *)
type item =
  | Decl of decl
  | Assign of { lhs : string; rhs : expr; apos : Diag.pos }
      (** continuous assignment [assign w = e;] *)
  | Always of
      { edges : (string * Diag.pos) list
          (** the [posedge] signals of the sensitivity list, in source
              order (one: the clock; two: clock plus async reset) *)
      ; body : stmt list
      ; apos : Diag.pos
      }

(** A parsed module: name, port-list names in source order, items. *)
type module_ =
  { mname : string
  ; ports : string list
  ; items : item list
  ; mpos : Diag.pos
  }

val expr_pos : expr -> Diag.pos
(** The position of an expression's first token. *)
