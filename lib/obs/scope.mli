(** Which run the code on an execution context — a (domain, thread)
    pair — belongs to.

    Each per-run choice is a typed {!key}: {!Obs}'s recorder, and the
    pass manager's certify flag and [--explain] journal.  {!with_}
    binds a key for the extent of a function on the calling context
    only, so concurrent compiles never see each other's bindings;
    {!capture} and {!within} let a pool run each task, on any domain,
    in its submitter's whole scope.  {!get} — behind every [Obs.span]
    and [Obs.count] — takes no lock and allocates nothing while one
    thread runs per domain. *)

type 'a key

val key : 'a -> 'a key
(** [key default] — a fresh key, reading [default] where unbound. *)

val get : 'a key -> 'a
(** The innermost binding on the calling context, else the default. *)

val with_ : 'a key -> 'a -> (unit -> 'b) -> 'b
(** [with_ k v f] runs [f] with [k] bound to [v], then restores the
    previous binding — also when [f] raises. *)

type t
(** A whole scope: every binding in force at one point. *)

val capture : unit -> t

val within : t -> (unit -> 'a) -> 'a
(** [within s f] runs [f] with [s] as the calling context's whole
    scope, then restores the previous one. *)

