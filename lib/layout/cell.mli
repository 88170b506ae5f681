(** Hierarchical layout cells.

    A cell (a CIF "symbol") owns flat geometry — boxes and wires on mask
    layers — plus transformed instances of other cells and named ports.
    Cells are immutable and form a DAG: instantiating a cell shares its
    definition, which is what makes regular structures (the paper's
    memories and PLAs) cheap to describe.

    The bounding box is computed eagerly at construction, so deep
    hierarchies pay no repeated traversal cost. *)

open Sc_geom
open Sc_tech

type element =
  | Box of Layer.t * Rect.t
  | Wire of Layer.t * Path.t

(** A port is a named, layered rectangle on the cell boundary (or interior)
    through which composition and routing connect to the cell. *)
type port = { pname : string; layer : Layer.t; rect : Rect.t }

type t = private
  { name : string
  ; elements : element list
  ; instances : inst list
  ; ports : port list
  ; bbox : Rect.t option  (** [None] for a completely empty cell *)
  ; id : int  (** distinct among the cells one process builds *)
  }

and inst = { inst_name : string; cell : t; trans : Transform.t }

(** Tables keyed by a cell's physical identity, hashed by its [id].
    Traversals memoize with these rather than by [id] alone: a cell read
    back from a disk cache keeps the id it had in the process that wrote
    it, which a cell built here may have too. *)
module Tbl : Hashtbl.S with type key = t

(** [make ~name ?ports ?instances elements] builds a cell.  Port names and
    instance names must be unique within the cell.

    @raise Invalid_argument on duplicate port or instance names. *)
val make :
  name:string -> ?ports:port list -> ?instances:inst list -> element list -> t

val empty : string -> t

(** Convenience constructors. *)

val box : Layer.t -> Rect.t -> element

val wire : Layer.t -> width:int -> Point.t list -> element

val port : string -> Layer.t -> Rect.t -> port

val instantiate : ?name:string -> ?trans:Transform.t -> t -> inst

(** [add c es] returns a copy of [c] with extra elements. *)
val add : t -> element list -> t

val add_ports : t -> port list -> t

(** [find_port c name] looks the port up.
    @raise Not_found when absent. *)
val find_port : t -> string -> port

val find_port_opt : t -> string -> port option

(** [port_in_parent inst p] is [p]'s rectangle seen through the instance
    transform. *)
val port_in_parent : inst -> port -> port

(** Bounding box including all instances; [None] when empty. *)
val bbox : t -> Rect.t option

(** Bounding box or a zero rect at the origin. *)
val bbox_or_zero : t -> Rect.t

val width : t -> int

val height : t -> int

(** Area of the bounding box in square lambda. *)
val area : t -> int

(** [translate_to_origin c] shifts all content so the bbox lower-left
    corner lands on the origin. *)
val translate_to_origin : t -> t

(** All cells reachable from [c] (including [c]), each exactly once,
    children before parents (a reverse topological order suitable for CIF
    symbol definitions). *)
val all_cells : t -> t list

(** Number of element rectangles in the fully expanded (flattened) cell. *)
val flat_rect_count : t -> int
