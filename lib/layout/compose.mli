(** Composition combinators.

    These combinators are the layout-language core the paper's session
    demonstrates: structured layouts built by placing cells beside, above,
    abutted port-to-port, or replicated into arrays.  Every combinator
    returns a new cell whose ports are the sub-cells' ports, qualified by
    instance name so composed cells remain routable. *)

(** [beside ~name ?sep a b] places [b] to the right of [a], lower edges
    aligned, with [sep] lambda of separation (default 0).  Ports are
    re-exported as "i0.<p>" / "i1.<p>"; use [expose] to rename them. *)
val beside : name:string -> ?sep:int -> Cell.t -> Cell.t -> Cell.t

(** [above ~name ?sep a b] stacks [b] on top of [a], left edges aligned. *)
val above : name:string -> ?sep:int -> Cell.t -> Cell.t -> Cell.t

(** [row ~name ?sep cells] chains [beside]. *)
val row : name:string -> ?sep:int -> Cell.t list -> Cell.t

(** [col ~name ?sep cells] chains [above]. *)
val col : name:string -> ?sep:int -> Cell.t list -> Cell.t

(** [array ~name ~nx ~ny ?dx ?dy cell] replicates [cell] into an [nx] by
    [ny] array with pitches [dx], [dy] (defaulting to the cell's width and
    height, i.e. pure abutment — the regular-structure idiom for memories
    and PLAs).  Element ports are exported as "r<j>c<i>.<p>". *)
val array : name:string -> nx:int -> ny:int -> ?dx:int -> ?dy:int -> Cell.t -> Cell.t

(** [abut ~name a pa b pb] translates [b] so that port [pb] of [b]
    coincides with port [pa] of [a] (centre on centre).

    @raise Not_found if a port is missing. *)
val abut : name:string -> Cell.t -> string -> Cell.t -> string -> Cell.t

(** [of_instances ~name insts] — a cell of the given instances and no
    geometry of its own, exporting every port of every instance as
    "<inst>.<port>", instance by instance.  All the combinators above
    build their cell with it. *)
val of_instances : name:string -> Cell.inst list -> Cell.t

(** [expose cell renames] re-exports selected ports under new flat names;
    [renames] maps "inst.port" to the exported name. *)
val expose : Cell.t -> (string * string) list -> Cell.t
