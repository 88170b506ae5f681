(** Abstract syntax of the Caltech Intermediate Form, version 2.0.

    CIF is the layout interchange format of Sproull & Lyon (1979), the
    paper's reference [8] and its concrete notion of "manufacturing data".
    A CIF file is a sequence of commands; geometry appears inside symbol
    definitions, and an optional top level calls the root symbol. *)

type trans_op =
  | Translate of int * int
  | Mirror_x  (** negate x *)
  | Mirror_y  (** negate y *)
  | Rotate of int * int  (** direction vector the +x axis is rotated to *)

type command =
  | Def_start of int * int * int  (** symbol number, scale numerator a, denominator b *)
  | Def_finish
  | Def_delete of int
  | Layer of string
  | Box of { length : int; width : int; cx : int; cy : int }
  | Polygon of (int * int) list
  | Wire of { width : int; points : (int * int) list }
  | Call of int * trans_op list
  | Comment of string
  | User of int * string  (** user extension: leading digit and raw text *)
  | End

type file = command list

(** Well-formedness: definitions properly bracketed, no nested DS, no
    geometry outside a definition except calls after all definitions, file
    terminated by [End].  Returns the list of violations (empty = ok). *)
val check : file -> string list

(** [add_command b c] appends [c]'s text and a newline to [b]: one line
    of a CIF file.  This is the only CIF printer; it writes integers
    itself, without [Printf] or [Format]. *)
val add_command : Buffer.t -> command -> unit

(** The file's text: each command on its own line, in order. *)
val to_string : file -> string
