(** A fixed-size OCaml 5 [Domain] worker pool: the program's one
    concurrency mechanism.

    A compile runs on the domain that calls it.  The serve daemon
    starts one pool at start-up, and its workers are the execution
    domains: each request's compilation or equivalence check is
    {!offload}ed to one of them, so concurrent requests overlap without
    a domain spawned per request.

    {!run} keeps one batch caller, [Sc_drc.Checker.check_flat]'s
    [?pool], which the benchmark times on a pool of two.  Its contract:

    - results are returned in the order the thunks were given,
      regardless of which domain finished first;
    - if any task raises, the exception of the {e earliest} such task is
      re-raised in the caller once all tasks have settled — again
      independent of scheduling;
    - a pool of size 1 spawns no domains at all and runs every task in
      the calling domain.

    The calling domain participates in the work (a pool of size [n]
    spawns [n - 1] worker domains), so no core idles while the caller
    blocks.  Its help covers {e its own batch only}: a caller never runs
    another submitter's tasks, so a task runs either on its submitter's
    domain or on a pool worker.  That makes nested submission safe — a
    task may call [run] on the pool it runs on, and the inner caller
    can always finish its inner batch by itself.

    Every task and offloaded call runs in its submitter's
    {!Sc_obs.Scope}: whatever the submitter had bound — its recorder,
    whether it certifies, the journal its pass outcomes go to — is bound
    for the task too, on any domain, so no caller threads that state
    into its tasks by hand.  Every task runs inside an
    {!Sc_obs.Obs.span} (named by [~label]) when recording; spans carry
    the worker's domain id, so a Chrome trace shows one track per
    domain. *)

type t

val create : domains:int -> unit -> t
(** [create ~domains ()] — a pool executing on [domains] domains total
    (the caller plus [domains - 1] spawned workers); values below 1 are
    clamped to 1. *)

val size : t -> int
(** Number of domains the pool executes on, including the caller. *)

val run : ?label:string -> t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] executes every thunk and returns their results in
    submission order.  Deterministic: scheduling affects only timing,
    never results or raised exceptions (the earliest-submitted failure
    wins).  [label] names the per-task Obs spans (default ["par.task"]). *)

val offload : t -> (unit -> 'a) -> 'a
(** [offload pool f] runs [f] on one of the pool's [size pool - 1]
    worker domains and returns its result; the calling thread blocks
    meanwhile and claims no work, so other threads of its domain run on.
    At most [size pool - 1] offloaded calls run at once; later ones queue.
    [f] runs in the caller's {!Sc_obs.Scope} (inside a ["par.offload"]
    span when recording), and an exception it raises is re-raised in
    the caller — the worker carries on.  With no worker to take it (a
    pool of size 1, or one shut down) or when called from one of the
    pool's own workers, [f] runs inline, so nesting cannot deadlock. *)

val shutdown : t -> unit
(** Join the pool's worker domains.  Idempotent; the pool must be idle. *)
