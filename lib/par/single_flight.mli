(** In-flight deduplication: concurrent calls with the same key share
    one computation.

    The first caller for a key (the {e owner}) runs the computation;
    callers arriving while it runs block and receive the same value.
    The key is freed as soon as the computation lands, so a later call
    computes afresh — caching across time is the stage cache's job,
    not this module's.  If the owner's computation raises, the
    exception (with its backtrace) reaches the owner and every waiter
    alike.

    Waiters block their thread without helping, so a computation must
    never wait on a flight of the same key beneath it on its own stack.
    {!Pool} keeps that true for flights run as pool tasks: a waiting
    submitter runs only its own batch, never another submitter's
    task. *)

type 'a t

val create : unit -> 'a t

val run : 'a t -> string -> (unit -> 'a) -> [ `Fresh | `Shared ] * 'a
(** [run t key f] — [(`Fresh, f ())] for the owner, [(`Shared, v)] for
    a caller that joined an in-flight computation of [key]. *)
